#include "exec/dispatch.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "common/logging.hh"
#include "common/modarith.hh"
#include "common/thread_pool.hh"
#include "fault/fault.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace tensorfhe::exec
{

namespace
{

rns::RnsPolynomial *
polyOf(Workspace::Pooled &p)
{
    return p.get();
}

rns::RnsPolynomial *
polyOf(rns::RnsPolynomial &p)
{
    return &p;
}

/** The rows' polynomials (leases or plain), row after row. */
template <typename T>
std::vector<rns::RnsPolynomial *>
ptrsOf(std::initializer_list<std::vector<T> *> rows)
{
    std::vector<rns::RnsPolynomial *> out;
    for (auto *row : rows)
        for (auto &p : *row)
            out.push_back(polyOf(p));
    return out;
}

/** `count` polynomials as kernel inputs. */
std::vector<const rns::RnsPolynomial *>
readOnly(rns::RnsPolynomial *const *ps, std::size_t count)
{
    return {ps, ps + count};
}

} // namespace

Dispatcher::Dispatcher(const ckks::CkksContext &ctx,
                       const ckks::KeyBundle &keys, ThreadPool *pool)
    : Dispatcher(ctx, std::make_shared<ckks::KeyStore>(keys), pool)
{}

Dispatcher::Dispatcher(const ckks::CkksContext &ctx,
                       std::shared_ptr<const ckks::KeyStore> store,
                       ThreadPool *pool)
    : ctx_(ctx), store_(std::move(store)), kctx_(pool),
      ws_(std::make_unique<Workspace>(ctx.tower()))
{
    // The arena reports its traffic through the unified metrics
    // snapshot for as long as this dispatcher lives.
    trace::MetricsRegistry::instance().registerWorkspace(ws_.get());
}

Dispatcher::~Dispatcher()
{
    trace::MetricsRegistry::instance().unregisterWorkspace(ws_.get());
}

// ------------------------------------------------------------------
// Elementwise operations

void
Dispatcher::addInPlace(ckks::Ciphertext *as, const ckks::Ciphertext *bs,
                       std::size_t batch) const
{
    TFHE_TRACE_SPAN("exec", "add");
    if (batch == 0)
        return;
    EvalOpStats::instance().record(EvalOpKind::HAdd, batch);
    eleAddCts(kctx_, as, bs, batch);
}

void
Dispatcher::subInPlace(ckks::Ciphertext *as, const ckks::Ciphertext *bs,
                       std::size_t batch) const
{
    TFHE_TRACE_SPAN("exec", "sub");
    if (batch == 0)
        return;
    EvalOpStats::instance().record(EvalOpKind::HAdd, batch);
    eleSubCts(kctx_, as, bs, batch);
}

void
Dispatcher::addPlainInPlace(ckks::Ciphertext *as, const ckks::Plaintext &p,
                            std::size_t batch) const
{
    TFHE_TRACE_SPAN("exec", "addPlain");
    if (batch == 0)
        return;
    EvalOpStats::instance().record(EvalOpKind::HAdd, batch);
    addPlainC0(kctx_, as, p, batch);
}

void
Dispatcher::multiplyPlainInPlace(ckks::Ciphertext *as,
                                 const ckks::Plaintext &p,
                                 std::size_t batch) const
{
    TFHE_TRACE_SPAN("exec", "multiplyPlain");
    if (batch == 0)
        return;
    EvalOpStats::instance().record(EvalOpKind::CMult, batch);
    hadaMultPlainCts(kctx_, as, p, batch);
    for (std::size_t s = 0; s < batch; ++s)
        as[s].scale = as[s].scale * p.scale;
}

void
Dispatcher::fusedElementwise(const FusedSpec &spec, ckks::Ciphertext *out,
                             const ckks::Ciphertext *const *inputs,
                             const ckks::Plaintext *const *pts,
                             std::size_t batch) const
{
    trace::TraceSpan tsp_("exec", "fusedElementwise");
    tsp_.arg("batch", static_cast<s64>(batch))
        .arg("members", static_cast<s64>(spec.ins.size()));
    if (batch == 0)
        return;
    TFHE_FAULT_POINT("exec/fused-elementwise");
    // Fusion-invariant accounting: the fused pass records exactly the
    // executed-op counts of the member launches it replaces.
    if (spec.addLike > 0)
        EvalOpStats::instance().record(EvalOpKind::HAdd,
                                       spec.addLike * batch);
    if (spec.mulLike > 0)
        EvalOpStats::instance().record(EvalOpKind::CMult,
                                       spec.mulLike * batch);
    exec::fusedElementwise(kctx_, spec, out, inputs, pts, batch);
    // Replay the chain over the scale metadata with the same double
    // arithmetic the member ops would have used (MulPt multiplies,
    // adds keep the destination's scale).
    for (std::size_t s = 0; s < batch; ++s) {
        double sc[FusedSpec::kMaxRegs] = {};
        for (const auto &in : spec.ins) {
            switch (in.op) {
              case FusedSpec::Op::Load:
                  sc[in.dst] = inputs[in.idx][s].scale;
                  break;
              case FusedSpec::Op::MulPt:
                  sc[in.dst] = sc[in.dst] * pts[in.idx]->scale;
                  break;
              default:
                  break;
            }
        }
        out[s].scale = sc[spec.result];
    }
}

void
Dispatcher::rescaleInPlace(ckks::Ciphertext *as, std::size_t batch) const
{
    TFHE_TRACE_SPAN("exec", "rescale");
    if (batch == 0)
        return;
    EvalOpStats::instance().record(EvalOpKind::Rescale, batch);
    std::size_t lc = as[0].levelCount();
    const auto &limb_idx = as[0].c1.limbIndices();
    u64 q_last = ctx_.tower().prime(limb_idx[lc - 1]);

    std::vector<rns::RnsPolynomial *> comps;
    comps.reserve(2 * batch);
    for (std::size_t s = 0; s < batch; ++s) {
        comps.push_back(&as[s].c0);
        comps.push_back(&as[s].c1);
    }
    // In the evaluation domain and in place: only the last limb of
    // each component is INTT'd, its lifts into the kept limbs are
    // written to arena rows and NTT'd, and the components keep their
    // buffers.
    std::vector<std::size_t> kept(limb_idx.begin(), limb_idx.end() - 1);
    auto lifts = overwriteRow(2 * batch, kept, rns::Domain::Coeff,
                              "exec/rescale-lift");
    rns::rescaleByLastLimbEvalBatchInPlace(comps, ptrsOf({&lifts}).data(),
                                           ctx_.nttVariant(), kctx_.pool);
    for (std::size_t s = 0; s < batch; ++s)
        as[s].scale = as[s].scale / static_cast<double>(q_last);
}

void
Dispatcher::multiplyInPlace(ckks::Ciphertext *as,
                            const ckks::Ciphertext *bs,
                            std::size_t batch) const
{
    TFHE_TRACE_SPAN("exec", "multiply");
    if (batch == 0)
        return;
    EvalOpStats::instance().record(EvalOpKind::HMult, batch);
    const auto &limb_idx = as[0].c0.limbIndices();

    // d0 = a0*b0, d1 = a0*b1 + a1*b0, d2 = a1*b1 (paper Alg. 2),
    // flattened over (slot x tower). d0/d1 become the product, so they
    // are op outputs; d2 is arena scratch for the relinearization.
    auto d0s = outputRow(batch, limb_idx, rns::Domain::Eval);
    auto d1s = outputRow(batch, limb_idx, rns::Domain::Eval);
    auto d2s = overwriteRow(batch, limb_idx, rns::Domain::Eval,
                            "exec/multiply");
    auto p0 = ptrsOf({&d0s});
    auto p1 = ptrsOf({&d1s});
    multiplyTriple(kctx_, as, bs, p0.data(), p1.data(),
                   ptrsOf({&d2s}).data(), batch);

    // Relinearize d2 through the unified key-switch path.
    auto head = hoist(std::move(d2s));
    auto [ks0, ks1] = keySwitchTail(head, store_->relin());

    addPolysInPlace(kctx_, p0.data(), ptrsOf({&ks0}).data(), batch);
    addPolysInPlace(kctx_, p1.data(), ptrsOf({&ks1}).data(), batch);

    // The relinearization pair and the replaced operands go back to
    // the arena, where the next outputs draw them.
    for (std::size_t s = 0; s < batch; ++s) {
        double scale = as[s].scale * bs[s].scale;
        ws_->donate(std::move(ks0[s]));
        ws_->donate(std::move(ks1[s]));
        ws_->donate(std::move(as[s].c0));
        ws_->donate(std::move(as[s].c1));
        as[s].c0 = std::move(d0s[s]);
        as[s].c1 = std::move(d1s[s]);
        as[s].scale = scale;
    }
}

// ------------------------------------------------------------------
// Hoisted key switching

const Dispatcher::PLift &
Dispatcher::pLift(std::size_t level_count) const
{
    std::lock_guard<std::mutex> lock(pliftMu_);
    auto it = plift_.find(level_count);
    if (it != plift_.end())
        return it->second;
    PLift out;
    const auto &tower = ctx_.tower();
    out.pmodq.resize(level_count);
    out.pmodqShoup.resize(level_count);
    for (std::size_t i = 0; i < level_count; ++i) {
        const Modulus &mod = tower.modulus(i);
        u64 p = 1;
        for (std::size_t k = 0; k < tower.numP(); ++k)
            p = mod.mul(p, tower.prime(tower.specialIndex(k))
                               % mod.value());
        out.pmodq[i] = p;
        out.pmodqShoup[i] = shoupPrecompute(p, mod.value());
    }
    return plift_.emplace(level_count, std::move(out)).first->second;
}

HoistedBatch
Dispatcher::hoist(std::vector<Workspace::Pooled> ds) const
{
    TFHE_TRACE_SPAN("exec", "ks-hoist");
    std::size_t batch = ds.size();
    TFHE_ASSERT(batch > 0, "empty hoist");
    std::size_t lc = ds[0]->numLimbs();
    std::size_t alpha = ctx_.params().alpha();
    std::size_t digits = (lc + alpha - 1) / alpha;
    const auto &limb_idx = ds[0]->limbIndices();
    const auto &tower = ctx_.tower();
    bool eval_in = ds[0]->domain() == rns::Domain::Eval;
    EvalOpStats::instance().record(EvalOpKind::KsHoist, batch);

    std::vector<rns::RnsPolynomial *> d_ptrs = ptrsOf({&ds});
    std::vector<const rns::RnsPolynomial *> d_in(d_ptrs.begin(),
                                                 d_ptrs.end());

    // Dcomp-scale every digit of the input in place, in one (slot x
    // tower) dispatch: a per-limb scalar commutes with the NTT, so it
    // applies in whichever domain the input arrives.
    std::vector<u64> scalars(lc), scalars_shoup(lc);
    for (std::size_t i = 0; i < lc; ++i) {
        scalars[i] = ctx_.dcompScalar(i / alpha, limb_idx[i]);
        scalars_shoup[i] = shoupPrecompute(
            scalars[i], tower.modulus(limb_idx[i]).value());
    }
    mulScalarShoup(kctx_, d_ptrs.data(), scalars, scalars_shoup, batch);

    // Each digit's own limbs enter its ModUp output verbatim, still in
    // the input's domain; Conv writes every other union limb.
    HoistedBatch h;
    h.levelCount = lc;
    h.digits.reserve(digits);
    for (std::size_t j = 0; j < digits; ++j) {
        const auto &plan = ctx_.modUpPlan(j, lc);
        h.digits.push_back(overwriteRow(batch, plan.unionLimbs(),
                                        rns::Domain::Eval,
                                        "exec/hoist-up"));
        plan.copyDigitInto(d_in, j * alpha, ptrsOf({&h.digits[j]}).data(),
                           kctx_.pool);
    }

    // The only INTT: the whole input, every (slot x tower) at once (a
    // no-op for a Coeff input). Conv then reads each digit's slice of
    // it in place.
    rns::toCoeffBatch(d_ptrs, ctx_.nttVariant(), kctx_.pool);
    std::vector<std::size_t> every_slot(ctx_.unionLimbs(lc).size());
    std::iota(every_slot.begin(), every_slot.end(), std::size_t{0});
    std::vector<ntt::NttJob> jobs;
    for (std::size_t j = 0; j < digits; ++j) {
        const auto &plan = ctx_.modUpPlan(j, lc);
        auto up_ptrs = ptrsOf({&h.digits[j]});
        TFHE_FAULT_POINT("exec/modup");
        plan.convertInto(d_in, j * alpha, up_ptrs.data(), kctx_.pool);
        EvalOpStats::instance().recordModUp(batch);
        // An Eval input's copied limbs are already in Eval: only the
        // converted limbs take the NTT.
        const auto &slots = eval_in ? plan.convertedSlots() : every_slot;
        for (rns::RnsPolynomial *up : up_ptrs)
            for (std::size_t i : slots)
                jobs.push_back(
                    {&tower.nttContext(up->limbIndex(i)), up->limb(i)});
    }

    // Into Eval domain: every transformed (digit x slot x tower) limb
    // of the head in ONE batched dispatch.
    ntt::forwardBatch(jobs, ctx_.nttVariant(), kctx_.pool);
    h.table.reserve(digits * batch);
    for (const auto &row : h.digits)
        for (const auto &p : row)
            h.table.push_back(p.get());
    return h;
}

HoistedBatch
Dispatcher::hoistCopy(const rns::RnsPolynomial *const *ds,
                      std::size_t batch) const
{
    auto copies = overwriteRow(batch, ds[0]->limbIndices(),
                               ds[0]->domain(), "exec/hoist-copy");
    std::size_t n = ctx_.n();
    kctx_.pool->parallelFor2D(batch, ds[0]->numLimbs(),
                              [&](std::size_t s, std::size_t i) {
        std::copy(ds[s]->limb(i), ds[s]->limb(i) + n,
                  copies[s]->limb(i));
    });
    return hoist(std::move(copies));
}

void
Dispatcher::tailRawInto(const HoistedBatch &h, const ckks::SwitchKey &key,
                        u64 galois, rns::RnsPolynomial *const *acc0,
                        rns::RnsPolynomial *const *acc1) const
{
    std::size_t digits = h.numDigits();
    requireArg(digits <= key.digits(), "switch key has too few digits: ",
               key.digits(), " for ", digits);
    TFHE_FAULT_POINT("exec/keyswitch-tail");
    EvalOpStats::instance().record(EvalOpKind::KsTail, h.batch());
    auto rk = ctx_.restrictedKey(key, h.levelCount, galois);
    // Every digit row in one pass, one reduction per sum: the key's
    // digit j serves every slot of row j.
    std::size_t batch = h.batch();
    std::vector<const rns::RnsPolynomial *> kb(digits * batch),
        ka(digits * batch);
    for (std::size_t j = 0; j < digits; ++j)
        for (std::size_t s = 0; s < batch; ++s) {
            kb[j * batch + s] = &rk->b[j];
            ka[j * batch + s] = &rk->a[j];
        }
    dotRows(kctx_, acc0, acc1, h.table.data(), kb.data(), ka.data(),
            digits, batch);
}

std::vector<Workspace::Pooled>
Dispatcher::permutedTail(
    const HoistedBatch &h, const ckks::SwitchKey &key, u64 galois,
    const std::function<void(rns::RnsPolynomial *const *)> &fold) const
{
    std::size_t batch = h.batch();
    auto acc = overwriteRow(2 * batch, ctx_.unionLimbs(h.levelCount),
                            rns::Domain::Eval, "exec/ks-acc");
    auto acc_ptrs = ptrsOf({&acc});
    tailRawInto(h, key, galois, acc_ptrs.data(), acc_ptrs.data() + batch);
    if (fold)
        fold(acc_ptrs.data());
    return automorphPooled(readOnly(acc_ptrs.data(), 2 * batch), galois);
}

std::pair<std::vector<rns::RnsPolynomial>, std::vector<rns::RnsPolynomial>>
Dispatcher::modDownPair(const std::vector<rns::RnsPolynomial *> &qp,
                        std::size_t level_count,
                        const rns::ModDownPlan *down) const
{
    // Both halves of every slot share one batched dispatch (identical
    // limb sets), and only their special limbs are INTT'd.
    std::size_t batch = qp.size() / 2;
    const rns::ModDownPlan &plan =
        down ? *down : ctx_.modDownPlan(level_count);
    auto q_idx = ctx_.qLimbs(level_count);
    auto out0 = outputRow(batch, q_idx, rns::Domain::Eval);
    auto out1 = outputRow(batch, q_idx, rns::Domain::Eval);
    auto out_ptrs = ptrsOf({&out0, &out1});
    TFHE_FAULT_POINT("exec/moddown");
    plan.applyEvalBatchInto(qp, out_ptrs.data(), ctx_.nttVariant(),
                            kctx_.pool);
    EvalOpStats::instance().recordModDown(2 * batch);
    return {std::move(out0), std::move(out1)};
}

std::pair<std::vector<rns::RnsPolynomial>, std::vector<rns::RnsPolynomial>>
Dispatcher::keySwitchTail(const HoistedBatch &h, const ckks::SwitchKey &key,
                          const rns::ModDownPlan *down) const
{
    TFHE_TRACE_SPAN("exec", "ks-tail");
    std::size_t batch = h.batch();
    auto acc = overwriteRow(2 * batch, ctx_.unionLimbs(h.levelCount),
                            rns::Domain::Eval, "exec/ks-acc");
    auto acc_ptrs = ptrsOf({&acc});
    tailRawInto(h, key, 1, acc_ptrs.data(), acc_ptrs.data() + batch);
    return modDownPair(acc_ptrs, h.levelCount, down);
}

// ------------------------------------------------------------------
// Rotations

std::vector<std::vector<ckks::Ciphertext>>
Dispatcher::rotateMany(const ckks::Ciphertext *as, std::size_t batch,
                       const std::vector<s64> &steps) const
{
    trace::TraceSpan tsp_("exec", "rotateMany");
    tsp_.arg("batch", static_cast<s64>(batch))
        .arg("steps", static_cast<s64>(steps.size()));
    std::vector<std::vector<ckks::Ciphertext>> out(steps.size());
    if (batch == 0)
        return out;
    std::size_t slots = ctx_.slots();
    std::vector<s64> norms(steps.size());
    std::vector<std::shared_ptr<const ckks::SwitchKey>> pins(
        steps.size());
    bool any_nonzero = false;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        norms[i] = ((steps[i] % s64(slots)) + s64(slots)) % s64(slots);
        if (norms[i] == 0)
            continue;
        pins[i] = store_->rotation(norms[i]);
        requireArg(pins[i] != nullptr, "no rotation key for step ",
                   norms[i]);
        any_nonzero = true;
    }
    auto copyInput = [&](std::vector<ckks::Ciphertext> &dst) {
        dst.assign(as, as + batch);
    };
    if (!any_nonzero) {
        for (auto &cts : out)
            copyInput(cts);
        return out;
    }

    // Hoist every slot's c1 once; the head and the tails' ModDown
    // plan are shared by all steps.
    std::vector<const rns::RnsPolynomial *> c1s(batch);
    for (std::size_t s = 0; s < batch; ++s)
        c1s[s] = &as[s].c1;
    auto head = hoistCopy(c1s.data(), batch);
    const rns::ModDownPlan &down = ctx_.modDownPlan(head.levelCount);

    for (std::size_t r = 0; r < steps.size(); ++r) {
        if (norms[r] == 0) {
            copyInput(out[r]);
            continue;
        }
        EvalOpStats::instance().record(EvalOpKind::HRotate, batch);
        out[r] = automorphFromHead(as, batch, head,
                                   ctx_.galoisForRotation(norms[r]),
                                   *pins[r], &down);
    }
    return out;
}

std::vector<ckks::Ciphertext>
Dispatcher::conjugate(const ckks::Ciphertext *as, std::size_t batch) const
{
    trace::TraceSpan tsp_("exec", "conjugate");
    tsp_.arg("batch", static_cast<s64>(batch));
    if (batch == 0)
        return {};
    EvalOpStats::instance().record(EvalOpKind::Conjugate, batch);
    std::vector<const rns::RnsPolynomial *> c1s(batch);
    for (std::size_t s = 0; s < batch; ++s)
        c1s[s] = &as[s].c1;
    auto head = hoistCopy(c1s.data(), batch);
    return automorphFromHead(as, batch, head,
                             ctx_.galoisForConjugation(), store_->conj(),
                             nullptr);
}

std::vector<ckks::Ciphertext>
Dispatcher::automorphFromHead(const ckks::Ciphertext *as,
                              std::size_t batch, const HoistedBatch &head,
                              u64 galois, const ckks::SwitchKey &key,
                              const rns::ModDownPlan *down) const
{
    std::vector<rns::RnsPolynomial> ks0, ks1;
    {
        TFHE_TRACE_SPAN("exec", "ks-tail");
        auto pair = permutedTail(head, key, galois);
        std::tie(ks0, ks1) =
            modDownPair(ptrsOf({&pair}), head.levelCount, down);
    }
    std::vector<const rns::RnsPolynomial *> c0s(batch);
    for (std::size_t s = 0; s < batch; ++s)
        c0s[s] = &as[s].c0;
    auto c0r = automorphPooled(c0s, galois);
    auto kp = ptrsOf({&ks0});
    auto cp = ptrsOf({&c0r});
    addPolysInPlace(kctx_, kp.data(), cp.data(), batch);

    std::vector<ckks::Ciphertext> out(batch);
    for (std::size_t s = 0; s < batch; ++s) {
        out[s].c0 = std::move(ks0[s]);
        out[s].c1 = std::move(ks1[s]);
        out[s].scale = as[s].scale;
    }
    return out;
}

std::vector<Workspace::Pooled>
Dispatcher::automorphPooled(
    const std::vector<const rns::RnsPolynomial *> &polys,
    u64 galois) const
{
    auto out = overwriteRow(polys.size(), polys[0]->limbIndices(),
                            polys[0]->domain(), "exec/automorph");
    rns::applyAutomorphismBatchInto(polys, galois, ptrsOf({&out}).data(),
                                    kctx_.pool);
    return out;
}

// ------------------------------------------------------------------
// Double-hoisted BSGS

std::shared_ptr<const ckks::SwitchKey>
Dispatcher::stepKey(s64 step) const
{
    auto key = store_->rotation(step);
    requireArg(key != nullptr, "no rotation key for step ", step);
    return key;
}

std::vector<Workspace::Pooled>
Dispatcher::leaseRow(std::size_t batch,
                     const std::vector<std::size_t> &limbs,
                     rns::Domain domain, const char *site) const
{
    std::vector<Workspace::Pooled> row;
    row.reserve(batch);
    for (std::size_t s = 0; s < batch; ++s)
        row.push_back(ws_->zeros(limbs, domain, site));
    return row;
}

std::vector<Workspace::Pooled>
Dispatcher::overwriteRow(std::size_t batch,
                         const std::vector<std::size_t> &limbs,
                         rns::Domain domain, const char *site) const
{
    std::vector<Workspace::Pooled> row;
    row.reserve(batch);
    for (std::size_t s = 0; s < batch; ++s)
        row.push_back(ws_->forOverwrite(limbs, domain, site));
    return row;
}

std::vector<rns::RnsPolynomial>
Dispatcher::outputRow(std::size_t batch,
                      const std::vector<std::size_t> &limbs,
                      rns::Domain domain) const
{
    std::vector<rns::RnsPolynomial> row;
    row.reserve(batch);
    for (std::size_t s = 0; s < batch; ++s)
        row.push_back(ws_->output(limbs, domain));
    return row;
}

Dispatcher::BabyTables
Dispatcher::buildBabyTables(const std::vector<s64> &steps,
                            bool need_b0,
                            const ckks::Ciphertext *const *as,
                            std::size_t batch) const
{
    BabyTables t;
    t.steps = steps;
    t.batch = batch;
    std::size_t lc = as[0]->levelCount();
    t.levelCount = lc;
    const PLift &plift = pLift(lc);
    auto &stats = EvalOpStats::instance();
    std::vector<const rns::RnsPolynomial *> c0s(batch), c1s(batch);
    for (std::size_t s = 0; s < batch; ++s) {
        c0s[s] = &as[s]->c0;
        c1s[s] = &as[s]->c1;
    }

    // head-1: one hoist serves every baby step. Per step: raw tail of
    // the unpermuted head against the step's pre-permuted key (NO
    // ModDown - the pair stays on the extended QP basis), P * c0
    // folded into the c0 half, and one permutation of the pair, so
    // the eventual ModDown yields exactly rot_b(ct).
    std::size_t n_baby = t.steps.size();
    t.T.resize(n_baby);
    t.Tp.resize(n_baby);
    if (n_baby > 0) {
        auto head = hoistCopy(c1s.data(), batch);
        auto liftC0 = [&](rns::RnsPolynomial *const *acc0) {
            addPLifted(kctx_, acc0, c0s.data(), plift.pmodq,
                       plift.pmodqShoup, batch);
        };
        for (std::size_t bi = 0; bi < n_baby; ++bi) {
            s64 step = t.steps[bi];
            auto key_pin = stepKey(step);
            stats.record(EvalOpKind::HRotate, batch);
            t.T[bi] = permutedTail(head, *key_pin,
                                   ctx_.galoisForRotation(step), liftC0);
            t.Tp[bi] = ptrsOf({&t.T[bi]});
        }
    }

    // The plain b = 0 term: P * ct lifted onto the union basis.
    if (need_b0) {
        t.hasB0 = true;
        t.B = leaseRow(2 * batch, ctx_.unionLimbs(lc), rns::Domain::Eval,
                       "exec/bsgs-union");
        t.Bp = ptrsOf({&t.B});
        addPLifted(kctx_, t.Bp.data(), c0s.data(), plift.pmodq,
                   plift.pmodqShoup, batch);
        addPLifted(kctx_, t.Bp.data() + batch, c1s.data(), plift.pmodq,
                   plift.pmodqShoup, batch);
    }
    return t;
}

std::pair<rns::RnsPolynomial *const *, rns::RnsPolynomial *const *>
Dispatcher::BabyTables::pair(s64 baby) const
{
    if (baby == 0) {
        TFHE_ASSERT(hasB0, "BSGS tables missing the b = 0 term");
        return {Bp.data(), Bp.data() + batch};
    }
    auto it = std::lower_bound(steps.begin(), steps.end(), baby);
    TFHE_ASSERT(it != steps.end() && *it == baby,
                "BSGS tables missing a baby step");
    std::size_t bi = static_cast<std::size_t>(it - steps.begin());
    return {Tp[bi].data(), Tp[bi].data() + batch};
}

void
Dispatcher::accumulateGroups(const BsgsProgram &program,
                             const BabyTables &tables,
                             std::size_t batch,
                             rns::RnsPolynomial *const *G0p,
                             rns::RnsPolynomial *const *G1p,
                             bool &first_group) const
{
    TFHE_ASSERT(!program.groups.empty(), "empty BSGS program");
    std::size_t lc = tables.levelCount;
    auto v = ctx_.nttVariant();
    auto union_limbs = ctx_.unionLimbs(lc);
    auto &stats = EvalOpStats::instance();

    // Each group's diagonal products sum on QP, shifted groups pay
    // one c1-only ModDown + head-2 hoist + raw tail, and the group's
    // c0 half rides the tail's permutation into the shared global
    // accumulator pair (G0p, G1p).
    for (const auto &group : program.groups) {
        // acc = sum_b diag'_{k,b} (had) T_b on the extended basis, every
        // entry in one pass: the diagonal of entry j serves every slot
        // of row j.
        std::size_t entries = group.entries.size();
        std::vector<const rns::RnsPolynomial *> diag(entries * batch),
            t0(entries * batch), t1(entries * batch);
        for (std::size_t j = 0; j < entries; ++j) {
            const auto &entry = group.entries[j];
            stats.record(EvalOpKind::CMult, batch);
            if (j > 0)
                stats.record(EvalOpKind::HAdd, batch);
            TFHE_ASSERT(entry.pt->poly.numLimbs() >= union_limbs.size(),
                        "plaintext does not cover the accumulator basis");
            auto [s0, s1] = tables.pair(entry.baby);
            for (std::size_t s = 0; s < batch; ++s) {
                diag[j * batch + s] = &entry.pt->poly;
                t0[j * batch + s] = s0[s];
                t1[j * batch + s] = s1[s];
            }
        }
        auto acc0 = overwriteRow(batch, union_limbs, rns::Domain::Eval,
                                 "exec/bsgs-union");
        auto acc1 = overwriteRow(batch, union_limbs, rns::Domain::Eval,
                                 "exec/bsgs-union");
        auto acc0p = ptrsOf({&acc0});
        auto acc1p = ptrsOf({&acc1});
        dotRows(kctx_, acc0p.data(), acc1p.data(), diag.data(), t0.data(),
                t1.data(), entries, batch);

        if (!first_group)
            stats.record(EvalOpKind::HAdd, batch);

        if (group.shift == 0) {
            addPolysInPlace(kctx_, G0p, readOnly(acc0p.data(), batch).data(),
                            batch);
            addPolysInPlace(kctx_, G1p, readOnly(acc1p.data(), batch).data(),
                            batch);
            first_group = false;
            continue;
        }

        // Giant rotation of the group sum: ModDown the c1 half only,
        // hoist it (head-2 of this group) and run its raw tail against
        // the pre-permuted key; the c0 half joins that tail's c0 half
        // on QP before the pair's one permutation - its ModDown stays
        // deferred to the single final one.
        stats.record(EvalOpKind::HRotate, batch);
        auto giant_key = stepKey(group.shift);
        u64 galois = ctx_.galoisForRotation(group.shift);

        rns::toCoeffBatch(acc1p, v, kctx_.pool);
        const auto &mdplan = ctx_.modDownPlan(lc);
        auto md1 = overwriteRow(batch, ctx_.qLimbs(lc), rns::Domain::Coeff,
                                "exec/bsgs-moddown");
        TFHE_FAULT_POINT("exec/moddown");
        mdplan.applyBatchInto(readOnly(acc1p.data(), batch),
                              ptrsOf({&md1}).data(), kctx_.pool);
        stats.recordModDown(batch);

        auto head2 = hoist(std::move(md1));
        auto acc0_in = readOnly(acc0p.data(), batch);
        auto rotated = permutedTail(
            head2, *giant_key, galois,
            [&](rns::RnsPolynomial *const *g0) {
                addPolysInPlace(kctx_, g0, acc0_in.data(), batch);
            });
        auto rp = ptrsOf({&rotated});
        addPolysInPlace(kctx_, G0p, readOnly(rp.data(), batch).data(),
                        batch);
        addPolysInPlace(kctx_, G1p,
                        readOnly(rp.data() + batch, batch).data(), batch);
        first_group = false;
    }
}

std::vector<ckks::Ciphertext>
Dispatcher::finalizeBsgs(rns::RnsPolynomial *const *G0p,
                         rns::RnsPolynomial *const *G1p,
                         std::size_t batch, std::size_t level_count,
                         double out_scale,
                         const std::vector<s64> &folds) const
{
    std::vector<rns::RnsPolynomial *> g_all(G0p, G0p + batch);
    g_all.insert(g_all.end(), G1p, G1p + batch);
    auto [final0, final1] = modDownPair(g_all, level_count);

    std::vector<ckks::Ciphertext> out(batch);
    for (std::size_t s = 0; s < batch; ++s) {
        out[s].c0 = std::move(final0[s]);
        out[s].c1 = std::move(final1[s]);
        out[s].scale = out_scale;
    }
    // The folds run before the RESCALE: each one's key-switch noise
    // then lands at the squared scale, where it is negligible, rather
    // than at the output scale, where every later fold would add it
    // up again.
    for (s64 step : folds) {
        auto rotated = rotateMany(out.data(), batch, {step});
        addInPlace(out.data(), rotated[0].data(), batch);
    }
    rescaleInPlace(out.data(), batch);
    return out;
}

namespace
{

bool
programNeedsB0(const BsgsProgram &p)
{
    for (const auto &g : p.groups)
        for (const auto &e : g.entries)
            if (e.baby == 0)
                return true;
    return false;
}

} // namespace

std::vector<ckks::Ciphertext>
Dispatcher::applyBsgs(const BsgsProgram &program,
                      const ckks::Ciphertext *as, std::size_t batch) const
{
    trace::TraceSpan tsp_("exec", "applyBsgs");
    tsp_.arg("batch", static_cast<s64>(batch));
    std::vector<const ckks::Ciphertext *> ptrs(batch);
    for (std::size_t s = 0; s < batch; ++s)
        ptrs[s] = &as[s];
    const BsgsProgram *prog = &program;
    return applyBsgsSum(&prog, ptrs.data(), 1, batch);
}

std::vector<ckks::Ciphertext>
Dispatcher::applyBsgsSum(const BsgsProgram *const *programs,
                         const ckks::Ciphertext *const *inputs,
                         std::size_t terms, std::size_t batch) const
{
    TFHE_ASSERT(terms > 0, "empty BSGS sum");
    const auto &folds = programs[0]->foldSteps;
    std::size_t diagonals = 0;
    for (std::size_t t = 0; t < terms; ++t) {
        TFHE_ASSERT(programs[t]->foldSteps == folds,
                    "BSGS sum terms must share one fold list");
        for (const auto &g : programs[t]->groups)
            diagonals += g.entries.size();
    }
    trace::TraceSpan tsp_("exec", "applyBsgsSum");
    tsp_.arg("batch", static_cast<s64>(batch))
        .arg("terms", static_cast<s64>(terms))
        .arg("diagonals", static_cast<s64>(diagonals))
        .arg("folds", static_cast<s64>(folds.size()));
    std::vector<ckks::Ciphertext> out(batch);
    if (batch == 0)
        return out;
    std::size_t lc = inputs[0]->levelCount();
    double in_scale = inputs[0]->scale;
    requireArg(lc >= 2,
               "linear transform consumes one level: cannot apply at "
               "level 0");
    for (std::size_t t = 0; t < terms; ++t)
        for (std::size_t s = 0; s < batch; ++s)
            requireArg(inputs[t * batch + s]->levelCount() == lc
                           && std::abs(inputs[t * batch + s]->scale
                                       - in_scale)
                               <= 1e-6 * in_scale,
                       "BSGS sum terms require a uniform level and "
                       "scale");
    auto union_limbs = ctx_.unionLimbs(lc);
    double pt_scale = programs[0]->groups[0].entries[0].pt->scale;

    // Shared QP accumulator pair: every term's giant groups sum here,
    // so the whole block row pays ONE final ModDown.
    auto G0 = leaseRow(batch, union_limbs, rns::Domain::Eval,
                       "exec/bsgs-union");
    auto G1 = leaseRow(batch, union_limbs, rns::Domain::Eval,
                       "exec/bsgs-union");
    auto G0p = ptrsOf({&G0});
    auto G1p = ptrsOf({&G1});
    bool first_group = true;
    for (std::size_t t = 0; t < terms; ++t) {
        auto tables = buildBabyTables(programs[t]->babySteps,
                                      programNeedsB0(*programs[t]),
                                      inputs + t * batch, batch);
        accumulateGroups(*programs[t], tables, batch, G0p.data(),
                         G1p.data(), first_group);
    }
    return finalizeBsgs(G0p.data(), G1p.data(), batch, lc,
                        in_scale * pt_scale, folds);
}

} // namespace tensorfhe::exec
