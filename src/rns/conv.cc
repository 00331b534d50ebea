#include "rns/conv.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "simd/simd.hh"
#include "trace/trace.hh"

namespace tensorfhe::rns
{

namespace
{

ThreadPool &
poolOrGlobal(ThreadPool *pool)
{
    return pool ? *pool : ThreadPool::global();
}

/** 0, 1, ..., count-1: Conv target j written to output limb j. */
std::vector<std::size_t>
positions(std::size_t count)
{
    std::vector<std::size_t> out(count);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
}

/** Fresh Coeff-domain results over `limbs`, plus pointers to them. */
std::vector<RnsPolynomial>
makeOutputs(const RnsTower &tower, const std::vector<std::size_t> &limbs,
            std::size_t batch, std::vector<RnsPolynomial *> &ptrs)
{
    std::vector<RnsPolynomial> out;
    out.reserve(batch);
    ptrs.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        out.emplace_back(tower, limbs, Domain::Coeff);
        ptrs[b] = &out[b];
    }
    return out;
}

/**
 * Scale-phase rows of multi-limb sources. Owned by the calling
 * thread, which alone reads and writes it through one conversion
 * (pool workers only touch the rows of the call they serve), and
 * kept at the largest batch x s x n the thread ever converted: the
 * steady-state trade of ntt_tensor.cc's stage scratch.
 */
u64 *
scaleScratch(std::size_t need)
{
    thread_local std::vector<u64> buf;
    if (buf.size() < need)
        buf.resize(need);
    return buf.data();
}

} // namespace

// ------------------------------------------------------------------
// BaseConvPlan

BaseConvPlan::BaseConvPlan(const RnsTower &tower,
                           std::vector<std::size_t> src,
                           std::vector<std::size_t> dst)
    : tower_(&tower), src_(std::move(src)), dst_(std::move(dst))
{
    std::size_t s = src_.size();
    std::size_t t = dst_.size();
    hatInv_.resize(s);
    hatInvShoup_.resize(s);
    for (std::size_t i = 0; i < s; ++i) {
        const Modulus &mi = tower.modulus(src_[i]);
        u64 prod = 1;
        for (std::size_t i2 = 0; i2 < s; ++i2) {
            if (i2 != i)
                prod = mi.mul(prod, tower.prime(src_[i2]) % mi.value());
        }
        hatInv_[i] = mi.inv(prod);
        hatInvShoup_[i] = shoupPrecompute(hatInv_[i], mi.value());
    }
    hat_.resize(s * t);
    hatShoup_.resize(s * t);
    for (std::size_t j = 0; j < t; ++j) {
        const Modulus &mj = tower.modulus(dst_[j]);
        for (std::size_t i = 0; i < s; ++i) {
            u64 prod = 1;
            for (std::size_t i2 = 0; i2 < s; ++i2) {
                if (i2 != i)
                    prod = mj.mul(prod, tower.prime(src_[i2]) % mj.value());
            }
            hat_[i * t + j] = prod;
            hatShoup_[i * t + j] = shoupPrecompute(prod, mj.value());
        }
    }
}

RnsPolynomial
BaseConvPlan::apply(const RnsPolynomial &a) const
{
    return std::move(applyBatch({&a}).front());
}

std::vector<RnsPolynomial>
BaseConvPlan::applyBatch(const std::vector<const RnsPolynomial *> &as,
                         ThreadPool *pool) const
{
    for (const RnsPolynomial *a : as)
        TFHE_ASSERT(a->numLimbs() == src_.size(),
                    "polynomial does not match the plan's source basis");
    std::vector<RnsPolynomial *> ptrs;
    auto out = makeOutputs(*tower_, dst_, as.size(), ptrs);
    applyBatchInto(as, 0, ptrs.data(), positions(dst_.size()), pool);
    return out;
}

void
BaseConvPlan::applyBatchInto(const std::vector<const RnsPolynomial *> &as,
                             std::size_t srcOff,
                             RnsPolynomial *const *outs,
                             const std::vector<std::size_t> &dstPos,
                             ThreadPool *pool) const
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    std::size_t n = tower_->n();
    std::size_t s = src_.size();
    std::size_t t = dst_.size();
    TFHE_ASSERT(dstPos.size() == t, "one output slot per target limb");
    for (std::size_t b = 0; b < batch; ++b) {
        const RnsPolynomial &a = *as[b];
        const RnsPolynomial &o = *outs[b];
        TFHE_ASSERT(srcOff + s <= a.numLimbs()
                        && std::equal(src_.begin(), src_.end(),
                                      a.limbIndices().begin()
                                          + static_cast<std::ptrdiff_t>(
                                              srcOff)),
                    "polynomial does not match the plan's source basis");
        bool shaped = true;
        for (std::size_t j = 0; j < t && shaped; ++j)
            shaped = dstPos[j] < o.numLimbs()
                && o.limbIndex(dstPos[j]) == dst_[j];
        TFHE_ASSERT(shaped, "Conv output not preshaped to the plan's "
                            "target basis");
    }
    ScopedKernelTimer timer(KernelKind::Conv, batch * (s + t) * n);
    ThreadPool &tp = poolOrGlobal(pool);
    const simd::Ops &v = simd::ops();

    // Scale phase: y_i = a_i * hatInv_i mod s_i. A row whose factor is
    // 1 (every row of a one-limb source) is read in place instead.
    u64 *y = nullptr;
    if (std::any_of(hatInv_.begin(), hatInv_.end(),
                    [](u64 h) { return h != 1; })) {
        y = scaleScratch(batch * s * n);
        tp.parallelFor2D(batch, s, [&](std::size_t b, std::size_t i) {
            if (hatInv_[i] == 1)
                return;
            const u64 *src = as[b]->limb(srcOff + i);
            u64 *dst = y + (b * s + i) * n;
            std::copy(src, src + n, dst);
            v.mulShoup(dst, hatInv_[i], hatInvShoup_[i], n,
                       tower_->prime(src_[i]));
        });
    }
    auto row = [&](std::size_t b, std::size_t i) -> const u64 * {
        return hatInv_[i] == 1 ? as[b]->limb(srcOff + i)
                               : y + (b * s + i) * n;
    };

    // Accumulate phase: out_j = sum_i y_i * hat_ij mod t_j. The rows
    // are canonical mod s_i, not t_j, which the Shoup spans accept.
    tp.parallelFor2D(batch, t, [&](std::size_t b, std::size_t j) {
        u64 q = tower_->prime(dst_[j]);
        u64 *dst = outs[b]->limb(dstPos[j]);
        const u64 *y0 = row(b, 0);
        std::copy(y0, y0 + n, dst);
        v.mulShoup(dst, hat_[j], hatShoup_[j], n, q);
        for (std::size_t i = 1; i < s; ++i)
            v.mulShoupAccum(dst, row(b, i), hat_[i * t + j],
                            hatShoup_[i * t + j], n, q);
    });
}

RnsPolynomial
fastBaseConv(const RnsPolynomial &a,
             const std::vector<std::size_t> &target_limbs)
{
    return BaseConvPlan(a.tower(), a.limbIndices(), target_limbs)
        .apply(a);
}

std::vector<RnsPolynomial>
fastBaseConvBatch(const std::vector<const RnsPolynomial *> &as,
                  const std::vector<std::size_t> &target_limbs,
                  ThreadPool *pool)
{
    if (as.empty())
        return {};
    // One factor table for the whole batch (paper SIV-B data reuse).
    BaseConvPlan plan(as[0]->tower(), as[0]->limbIndices(), target_limbs);
    return plan.applyBatch(as, pool);
}

std::vector<RnsPolynomial>
decomposeDigits(const RnsPolynomial &a, std::size_t alpha)
{
    TFHE_ASSERT(alpha >= 1);
    std::size_t limbs = a.numLimbs();
    std::vector<RnsPolynomial> digits;
    for (std::size_t start = 0; start < limbs; start += alpha) {
        std::size_t stop = std::min(start + alpha, limbs);
        std::vector<std::size_t> idx(a.limbIndices().begin() + start,
                                     a.limbIndices().begin() + stop);
        RnsPolynomial d(a.tower(), idx, a.domain());
        for (std::size_t i = start; i < stop; ++i) {
            std::copy(a.limb(i), a.limb(i) + a.n(),
                      d.limb(i - start));
        }
        digits.push_back(std::move(d));
    }
    return digits;
}

// ------------------------------------------------------------------
// ModUpPlan

namespace
{

std::vector<std::size_t>
unionBasis(const RnsTower &tower, std::size_t level_count)
{
    std::vector<std::size_t> target;
    for (std::size_t i = 0; i < level_count; ++i)
        target.push_back(i);
    for (std::size_t k = 0; k < tower.numP(); ++k)
        target.push_back(tower.specialIndex(k));
    return target;
}

std::vector<std::size_t>
limbsOutside(const std::vector<std::size_t> &target,
             const std::vector<std::size_t> &digit_limbs)
{
    std::vector<std::size_t> others;
    for (std::size_t idx : target) {
        if (std::find(digit_limbs.begin(), digit_limbs.end(), idx)
                == digit_limbs.end()) {
            others.push_back(idx);
        }
    }
    return others;
}

} // namespace

ModUpPlan::ModUpPlan(const RnsTower &tower,
                     std::vector<std::size_t> digit_limbs,
                     std::size_t level_count)
    : tower_(&tower), digit_limbs_(std::move(digit_limbs)),
      target_(unionBasis(tower, level_count)),
      conv_(tower, digit_limbs_, limbsOutside(target_, digit_limbs_))
{
    auto slotOf = [&](std::size_t idx) {
        auto it = std::find(target_.begin(), target_.end(), idx);
        TFHE_ASSERT(it != target_.end(),
                    "digit limbs must lie in the union basis");
        return static_cast<std::size_t>(it - target_.begin());
    };
    for (std::size_t idx : digit_limbs_)
        copyPos_.push_back(slotOf(idx));
    for (std::size_t idx : conv_.targetLimbs())
        convPos_.push_back(slotOf(idx));
}

RnsPolynomial
ModUpPlan::apply(const RnsPolynomial &digit) const
{
    return std::move(applyBatch({&digit}).front());
}

std::vector<RnsPolynomial>
ModUpPlan::applyBatch(const std::vector<const RnsPolynomial *> &digits,
                      ThreadPool *pool) const
{
    std::vector<RnsPolynomial *> ptrs;
    auto out = makeOutputs(*tower_, target_, digits.size(), ptrs);
    applyBatchInto(digits, ptrs.data(), pool);
    return out;
}

void
ModUpPlan::applyBatchInto(const std::vector<const RnsPolynomial *> &digits,
                          RnsPolynomial *const *outs,
                          ThreadPool *pool) const
{
    for (std::size_t b = 0; b < digits.size(); ++b) {
        TFHE_ASSERT(digits[b]->limbIndices() == digit_limbs_,
                    "digit does not match the plan's limb set");
        TFHE_ASSERT(digits[b]->domain() == Domain::Coeff
                        && outs[b]->domain() == Domain::Coeff,
                    "ModUp operates in the coefficient domain");
    }
    convertInto(digits, 0, outs, pool);
    copyDigitInto(digits, 0, outs, pool);
}

void
ModUpPlan::copyDigitInto(const std::vector<const RnsPolynomial *> &as,
                         std::size_t srcOff, RnsPolynomial *const *outs,
                         ThreadPool *pool) const
{
    std::size_t batch = as.size();
    std::size_t n = tower_->n();
    for (std::size_t b = 0; b < batch; ++b) {
        const auto &limbs = as[b]->limbIndices();
        TFHE_ASSERT(srcOff + digit_limbs_.size() <= limbs.size()
                        && std::equal(digit_limbs_.begin(),
                                      digit_limbs_.end(),
                                      limbs.begin()
                                          + static_cast<std::ptrdiff_t>(
                                              srcOff)),
                    "digit does not match the plan's limb set");
        TFHE_ASSERT(outs[b]->limbIndices() == target_,
                    "ModUp output not preshaped to the union basis");
    }
    poolOrGlobal(pool).parallelFor2D(batch, digit_limbs_.size(),
                                     [&](std::size_t b, std::size_t i) {
        const u64 *src = as[b]->limb(srcOff + i);
        std::copy(src, src + n, outs[b]->limb(copyPos_[i]));
    });
}

void
ModUpPlan::convertInto(const std::vector<const RnsPolynomial *> &as,
                       std::size_t srcOff, RnsPolynomial *const *outs,
                       ThreadPool *pool) const
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    trace::TraceSpan tsp("rns", "modup");
    tsp.arg("batch", static_cast<s64>(batch))
        .arg("limbs", static_cast<s64>(target_.size()));
    for (std::size_t b = 0; b < batch; ++b)
        TFHE_ASSERT(outs[b]->limbIndices() == target_,
                    "ModUp output not preshaped to the union basis");
    conv_.applyBatchInto(as, srcOff, outs, convPos_, pool);
}

RnsPolynomial
modUp(const RnsPolynomial &digit, std::size_t level_count)
{
    return ModUpPlan(digit.tower(), digit.limbIndices(), level_count)
        .apply(digit);
}

std::vector<RnsPolynomial>
modUpBatch(const std::vector<const RnsPolynomial *> &digits,
           std::size_t level_count, ThreadPool *pool)
{
    if (digits.empty())
        return {};
    // Union basis and Conv factors are fixed by the digit's limb set,
    // so they are computed once for the batch.
    ModUpPlan plan(digits[0]->tower(), digits[0]->limbIndices(),
                   level_count);
    return plan.applyBatch(digits, pool);
}

// ------------------------------------------------------------------
// ModDownPlan

namespace
{

std::vector<std::size_t>
qPartOfUnion(const RnsTower &tower,
             const std::vector<std::size_t> &union_limbs)
{
    TFHE_ASSERT(union_limbs.size() > tower.numP(), "nothing to drop");
    return {union_limbs.begin(),
            union_limbs.end()
                - static_cast<std::ptrdiff_t>(tower.numP())};
}

std::vector<std::size_t>
pPartOfUnion(const RnsTower &tower,
             const std::vector<std::size_t> &union_limbs)
{
    TFHE_ASSERT(union_limbs.size() > tower.numP(), "nothing to drop");
    return {union_limbs.end()
                - static_cast<std::ptrdiff_t>(tower.numP()),
            union_limbs.end()};
}

} // namespace

ModDownPlan::ModDownPlan(const RnsTower &tower,
                         const std::vector<std::size_t> &union_limbs)
    : tower_(&tower), q_idx_(qPartOfUnion(tower, union_limbs)),
      p_idx_(pPartOfUnion(tower, union_limbs)),
      qPos_(positions(q_idx_.size())), conv_(tower, p_idx_, q_idx_)
{
    std::size_t k = tower.numP();
    for (std::size_t j = 0; j < k; ++j)
        TFHE_ASSERT(p_idx_[j] >= tower.numQ(), "limb order violated");
    // -P^-1 per q-limb is slot-independent: precompute once.
    std::size_t ql = q_idx_.size();
    negPInv_.resize(ql);
    negPInvShoup_.resize(ql);
    for (std::size_t j = 0; j < ql; ++j) {
        u64 q = tower.modulus(q_idx_[j]).value();
        negPInv_[j] = q - tower.pInvModQ(q_idx_[j]);
        negPInvShoup_[j] = shoupPrecompute(negPInv_[j], q);
    }
}

bool
ModDownPlan::matchesUnionBasis(const RnsPolynomial &a) const
{
    std::size_t ql = q_idx_.size();
    if (a.numLimbs() != ql + p_idx_.size())
        return false;
    return std::equal(q_idx_.begin(), q_idx_.end(),
                      a.limbIndices().begin())
        && std::equal(p_idx_.begin(), p_idx_.end(),
                      a.limbIndices().begin()
                          + static_cast<std::ptrdiff_t>(ql));
}

RnsPolynomial
ModDownPlan::apply(const RnsPolynomial &a) const
{
    return std::move(applyBatch({&a}).front());
}

std::vector<RnsPolynomial>
ModDownPlan::applyBatch(const std::vector<const RnsPolynomial *> &as,
                        ThreadPool *pool) const
{
    std::vector<RnsPolynomial *> ptrs;
    auto out = makeOutputs(*tower_, q_idx_, as.size(), ptrs);
    applyBatchInto(as, ptrs.data(), pool);
    return out;
}

void
ModDownPlan::applyBatchInto(const std::vector<const RnsPolynomial *> &as,
                            RnsPolynomial *const *outs,
                            ThreadPool *pool) const
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    trace::TraceSpan tsp("rns", "moddown");
    tsp.arg("batch", static_cast<s64>(batch))
        .arg("limbs", static_cast<s64>(q_idx_.size()));
    std::size_t ql = q_idx_.size();
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(as[b]->domain() == Domain::Coeff);
        TFHE_ASSERT(matchesUnionBasis(*as[b]),
                    "ModDown requires the plan's union basis");
        TFHE_ASSERT(outs[b]->limbIndices() == q_idx_
                        && outs[b]->domain() == Domain::Coeff,
                    "ModDown output not preshaped to the q-basis");
    }

    // Convert a mod P (the special limbs, read in place) onto the
    // q-limbs, then finish each limb in place.
    conv_.applyBatchInto(as, ql, outs, qPos_, pool);
    finish(as, outs, pool);
}

void
ModDownPlan::applyEvalBatchInto(const std::vector<RnsPolynomial *> &as,
                                RnsPolynomial *const *outs,
                                ntt::NttVariant v, ThreadPool *pool) const
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    trace::TraceSpan tsp("rns", "moddown");
    tsp.arg("batch", static_cast<s64>(batch))
        .arg("limbs", static_cast<s64>(q_idx_.size()));
    std::size_t ql = q_idx_.size();
    std::size_t k = p_idx_.size();
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(as[b]->domain() == Domain::Eval);
        TFHE_ASSERT(matchesUnionBasis(*as[b]),
                    "ModDown requires the plan's union basis");
        TFHE_ASSERT(outs[b]->limbIndices() == q_idx_,
                    "ModDown output not preshaped to the q-basis");
    }

    // Only the Conv source leaves Eval: the special limbs, in place.
    std::vector<ntt::NttJob> jobs;
    jobs.reserve(batch * k);
    for (RnsPolynomial *a : as)
        for (std::size_t i = 0; i < k; ++i)
            jobs.push_back({&tower_->nttContext(p_idx_[i]),
                            a->limb(ql + i)});
    ntt::inverseBatch(jobs, v, pool);

    std::vector<const RnsPolynomial *> in(as.begin(), as.end());
    conv_.applyBatchInto(in, ql, outs, qPos_, pool);

    // The converted limbs join the q-limbs in Eval for the finish.
    jobs.clear();
    jobs.reserve(batch * ql);
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t j = 0; j < ql; ++j)
            jobs.push_back({&tower_->nttContext(q_idx_[j]),
                            outs[b]->limb(j)});
        outs[b]->setDomain(Domain::Eval);
    }
    ntt::forwardBatch(jobs, v, pool);
    finish(in, outs, pool);
}

void
ModDownPlan::finish(const std::vector<const RnsPolynomial *> &as,
                    RnsPolynomial *const *outs, ThreadPool *pool) const
{
    // (conv_j - a_j) * -P^-1 = (a_j - conv_j) * P^-1 mod q_j.
    std::size_t n = tower_->n();
    const simd::Ops &v = simd::ops();
    poolOrGlobal(pool).parallelFor2D(as.size(), q_idx_.size(),
                                     [&](std::size_t b, std::size_t j) {
        u64 q = tower_->prime(q_idx_[j]);
        u64 *po = outs[b]->limb(j);
        v.subSpan(po, as[b]->limb(j), n, q);
        v.mulShoup(po, negPInv_[j], negPInvShoup_[j], n, q);
    });
}

RnsPolynomial
modDown(const RnsPolynomial &a)
{
    return ModDownPlan(a.tower(), a.limbIndices()).apply(a);
}

std::vector<RnsPolynomial>
modDownBatch(const std::vector<const RnsPolynomial *> &as,
             ThreadPool *pool)
{
    if (as.empty())
        return {};
    for (const RnsPolynomial *a : as)
        TFHE_ASSERT(a->limbIndices() == as[0]->limbIndices(),
                    "batched ModDown requires a uniform limb set");
    ModDownPlan plan(as[0]->tower(), as[0]->limbIndices());
    return plan.applyBatch(as, pool);
}

RnsPolynomial
rescaleByLastLimb(const RnsPolynomial &a)
{
    TFHE_ASSERT(a.domain() == Domain::Coeff);
    TFHE_ASSERT(a.numLimbs() >= 2, "cannot rescale a one-limb poly");
    const RnsTower &tower = a.tower();
    std::size_t last = a.numLimbs() - 1;
    std::size_t n = a.n();
    u64 q_last = tower.prime(a.limbIndex(last));
    const u64 *pl = a.limb(last);

    std::vector<std::size_t> q_idx(a.limbIndices().begin(),
                                   a.limbIndices().begin() + last);
    RnsPolynomial out(tower, q_idx, Domain::Coeff);
    ThreadPool::global().parallelFor(0, last, [&](std::size_t j) {
        const Modulus &mod = tower.modulus(q_idx[j]);
        u64 q = mod.value();
        u64 qlast_inv = mod.inv(q_last % q);
        u64 qi_shoup = shoupPrecompute(qlast_inv, q);
        const u64 *pa = a.limb(j);
        u64 *po = out.limb(j);
        for (std::size_t c = 0; c < n; ++c) {
            // Centered lift of the last-limb residue into [0, q).
            u64 v = pl[c];
            u64 lifted = v <= q_last / 2
                ? v % q
                : mod.sub(0, (q_last - v) % q);
            po[c] = mulModShoup(mod.sub(pa[c], lifted), qlast_inv,
                                qi_shoup, q);
        }
    });
    return out;
}

void
rescaleByLastLimbBatchInPlace(const std::vector<RnsPolynomial *> &as,
                              ThreadPool *pool)
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    const RnsPolynomial &front = *as[0];
    TFHE_ASSERT(front.numLimbs() >= 2, "cannot rescale a one-limb poly");
    const RnsTower &tower = front.tower();
    std::size_t last = front.numLimbs() - 1;
    std::size_t n = front.n();
    u64 q_last = tower.prime(front.limbIndex(last));

    std::vector<std::size_t> q_idx(front.limbIndices().begin(),
                                   front.limbIndices().begin() + last);
    // q_last^-1 per remaining limb is slot-independent.
    std::vector<u64> qinv(last), qinv_shoup(last);
    for (std::size_t j = 0; j < last; ++j) {
        const Modulus &mod = tower.modulus(q_idx[j]);
        qinv[j] = mod.inv(q_last % mod.value());
        qinv_shoup[j] = shoupPrecompute(qinv[j], mod.value());
    }

    for (const RnsPolynomial *a : as) {
        TFHE_ASSERT(a->domain() == Domain::Coeff);
        TFHE_ASSERT(a->limbIndices() == front.limbIndices(),
                    "batched RESCALE requires a uniform limb set");
    }
    // Output limb j reads only input limb j and the last limb, so it
    // overwrites limb j in place; the last limb is dropped afterwards.
    poolOrGlobal(pool).parallelFor2D(batch, last, [&](std::size_t b,
                                                      std::size_t j) {
        const Modulus &mod = tower.modulus(q_idx[j]);
        u64 q = mod.value();
        const u64 *pl = as[b]->limb(last);
        u64 *pa = as[b]->limb(j);
        for (std::size_t c = 0; c < n; ++c) {
            u64 v = pl[c];
            u64 lifted = v <= q_last / 2
                ? v % q
                : mod.sub(0, (q_last - v) % q);
            pa[c] = mulModShoup(mod.sub(pa[c], lifted), qinv[j],
                                qinv_shoup[j], q);
        }
    });
    for (RnsPolynomial *a : as)
        a->dropLastLimbs(1);
}

void
rescaleByLastLimbEvalBatchInPlace(const std::vector<RnsPolynomial *> &as,
                                  RnsPolynomial *const *lifts,
                                  ntt::NttVariant v, ThreadPool *pool)
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    const RnsPolynomial &front = *as[0];
    TFHE_ASSERT(front.numLimbs() >= 2, "cannot rescale a one-limb poly");
    const RnsTower &tower = front.tower();
    std::size_t last = front.numLimbs() - 1;
    std::size_t n = front.n();
    u64 q_last = tower.prime(front.limbIndex(last));
    u64 half = q_last / 2;

    std::vector<std::size_t> q_idx(front.limbIndices().begin(),
                                   front.limbIndices().begin() + last);
    // Per remaining limb, slot-independent: q_last^-1, the Shoup
    // companion of 1 (a reduction of any u64 mod q_j), and -half.
    std::vector<u64> qinv(last), qinv_shoup(last), one_shoup(last),
        neg_half(last);
    for (std::size_t j = 0; j < last; ++j) {
        const Modulus &mod = tower.modulus(q_idx[j]);
        u64 q = mod.value();
        qinv[j] = mod.inv(q_last % q);
        qinv_shoup[j] = shoupPrecompute(qinv[j], q);
        one_shoup[j] = shoupPrecompute(1, q);
        neg_half[j] = mod.sub(0, half % q);
    }

    std::vector<ntt::NttJob> jobs;
    jobs.reserve(batch * last);
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(as[b]->domain() == Domain::Eval);
        TFHE_ASSERT(as[b]->limbIndices() == front.limbIndices(),
                    "batched RESCALE requires a uniform limb set");
        TFHE_ASSERT(lifts[b]->limbIndices() == q_idx,
                    "rescale lift rows not preshaped to the kept limbs");
        jobs.push_back({&tower.nttContext(front.limbIndex(last)),
                        as[b]->limb(last)});
    }
    ntt::inverseBatch(jobs, v, pool);

    // Centred lift of the last limb into each q_j: v' = v + half mod
    // q_last is the centred value shifted into [0, q_last), and
    // (v' - half) mod q_j is the reference's lift. The shift back
    // rides as +(-half mod q_j) on the u64 sum (both terms are below
    // 2^63), which the Shoup product by 1 reduces canonically.
    const simd::Ops &ops = simd::ops();
    poolOrGlobal(pool).parallelFor2D(batch, last, [&](std::size_t b,
                                                      std::size_t j) {
        const u64 *pl = as[b]->limb(last);
        u64 *po = lifts[b]->limb(j);
        u64 shift = neg_half[j];
        for (std::size_t c = 0; c < n; ++c) {
            u64 t = pl[c] + half;
            po[c] = (t >= q_last ? t - q_last : t) + shift;
        }
        ops.mulShoup(po, 1, one_shoup[j], n, tower.prime(q_idx[j]));
    });

    jobs.clear();
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t j = 0; j < last; ++j)
            jobs.push_back({&tower.nttContext(q_idx[j]),
                            lifts[b]->limb(j)});
    ntt::forwardBatch(jobs, v, pool);

    // a_j = (a_j - lift_j) * q_last^-1, both in Eval.
    poolOrGlobal(pool).parallelFor2D(batch, last, [&](std::size_t b,
                                                      std::size_t j) {
        u64 q = tower.prime(q_idx[j]);
        u64 *pa = as[b]->limb(j);
        ops.subSpan(pa, lifts[b]->limb(j), n, q);
        ops.mulShoup(pa, qinv[j], qinv_shoup[j], n, q);
    });
    for (RnsPolynomial *a : as)
        a->dropLastLimbs(1);
}

} // namespace tensorfhe::rns
