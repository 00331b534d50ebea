#include "rns/conv.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
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
    for (std::size_t j = 0; j < t; ++j) {
        const Modulus &mj = tower.modulus(dst_[j]);
        for (std::size_t i = 0; i < s; ++i) {
            u64 prod = 1;
            for (std::size_t i2 = 0; i2 < s; ++i2) {
                if (i2 != i)
                    prod = mj.mul(prod, tower.prime(src_[i2]) % mj.value());
            }
            hat_[i * t + j] = prod;
        }
    }
}

/** y_i = a_i * hatInv_i mod s_i for every source limb of one slot. */
void
BaseConvPlan::scalePhase(const RnsPolynomial &a, u64 *y) const
{
    std::size_t n = a.n();
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const Modulus &mi = a.limbModulus(i);
        const u64 *src = a.limb(i);
        u64 *dst = y + i * n;
        for (std::size_t c = 0; c < n; ++c)
            dst[c] = mulModShoup(src[c], hatInv_[i], hatInvShoup_[i],
                                 mi.value());
    }
}

/** out_j = sum_i y_i * hat_ij for one (slot, target-limb) task. */
void
BaseConvPlan::accumulatePhase(const u64 *y, std::size_t j, u64 *dst) const
{
    std::size_t s = src_.size();
    std::size_t t = dst_.size();
    std::size_t n = tower_->n();
    const Modulus &mj = tower_->modulus(dst_[j]);
    for (std::size_t c = 0; c < n; ++c) {
        u128 acc = 0;
        for (std::size_t i = 0; i < s; ++i)
            acc += static_cast<u128>(y[i * n + c]) * hat_[i * t + j];
        dst[c] = mj.reduce(acc);
    }
}

RnsPolynomial
BaseConvPlan::apply(const RnsPolynomial &a) const
{
    TFHE_ASSERT(a.domain() == Domain::Coeff,
                "Conv operates in coefficient domain");
    TFHE_ASSERT(a.limbIndices() == src_,
                "polynomial does not match the plan's source basis");
    std::size_t n = a.n();
    std::size_t s = src_.size();
    std::size_t t = dst_.size();
    ScopedKernelTimer timer(KernelKind::Conv, (s + t) * n);

    std::vector<u64> y(s * n);
    scalePhase(a, y.data());

    RnsPolynomial out(*tower_, dst_, Domain::Coeff);
    ThreadPool::global().parallelFor(0, t, [&](std::size_t j) {
        accumulatePhase(y.data(), j, out.limb(j));
    });
    return out;
}

std::vector<RnsPolynomial>
BaseConvPlan::applyBatch(const std::vector<const RnsPolynomial *> &as,
                         ThreadPool *pool) const
{
    std::size_t batch = as.size();
    if (batch == 0)
        return {};
    std::size_t n = tower_->n();
    std::size_t s = src_.size();
    std::size_t t = dst_.size();
    for (const RnsPolynomial *a : as) {
        TFHE_ASSERT(a->domain() == Domain::Coeff,
                    "Conv operates in coefficient domain");
        TFHE_ASSERT(a->limbIndices() == src_,
                    "batched Conv requires the plan's source basis");
    }
    ScopedKernelTimer timer(KernelKind::Conv, batch * (s + t) * n);

    ThreadPool &tp = poolOrGlobal(pool);
    std::vector<u64> y(batch * s * n);
    tp.parallelFor2D(batch, s, [&](std::size_t b, std::size_t i) {
        const RnsPolynomial &a = *as[b];
        const Modulus &mi = a.limbModulus(i);
        const u64 *src = a.limb(i);
        u64 *dst = y.data() + (b * s + i) * n;
        for (std::size_t c = 0; c < n; ++c)
            dst[c] = mulModShoup(src[c], hatInv_[i], hatInvShoup_[i],
                                 mi.value());
    });

    std::vector<RnsPolynomial> out;
    out.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b)
        out.emplace_back(*tower_, dst_, Domain::Coeff);
    tp.parallelFor2D(batch, t, [&](std::size_t b, std::size_t j) {
        accumulatePhase(y.data() + b * s * n, j, out[b].limb(j));
    });
    return out;
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
    copySrc_.resize(target_.size());
    for (std::size_t j = 0; j < target_.size(); ++j) {
        auto it = std::find(digit_limbs_.begin(), digit_limbs_.end(),
                            target_[j]);
        copySrc_[j] = it == digit_limbs_.end()
            ? npos
            : static_cast<std::size_t>(it - digit_limbs_.begin());
    }
}

RnsPolynomial
ModUpPlan::apply(const RnsPolynomial &digit) const
{
    TFHE_ASSERT(digit.domain() == Domain::Coeff);
    TFHE_ASSERT(digit.limbIndices() == digit_limbs_,
                "digit does not match the plan's limb set");
    TFHE_TRACE_SPAN("rns", "modup");
    RnsPolynomial converted = conv_.apply(digit);

    RnsPolynomial out(*tower_, target_, Domain::Coeff);
    std::size_t n = digit.n();
    std::size_t oi = 0;
    for (std::size_t j = 0; j < target_.size(); ++j) {
        if (copySrc_[j] != npos) {
            std::copy(digit.limb(copySrc_[j]),
                      digit.limb(copySrc_[j]) + n, out.limb(j));
        } else {
            std::copy(converted.limb(oi), converted.limb(oi) + n,
                      out.limb(j));
            ++oi;
        }
    }
    return out;
}

std::vector<RnsPolynomial>
ModUpPlan::applyBatch(const std::vector<const RnsPolynomial *> &digits,
                      ThreadPool *pool) const
{
    std::size_t batch = digits.size();
    if (batch == 0)
        return {};
    std::vector<RnsPolynomial> out;
    out.reserve(batch);
    std::vector<RnsPolynomial *> out_ptrs(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        out.emplace_back(*tower_, target_, Domain::Coeff);
        out_ptrs[b] = &out[b];
    }
    applyBatchInto(digits, out_ptrs.data(), pool);
    return out;
}

void
ModUpPlan::applyBatchInto(const std::vector<const RnsPolynomial *> &digits,
                          RnsPolynomial *const *outs,
                          ThreadPool *pool) const
{
    std::size_t batch = digits.size();
    if (batch == 0)
        return;
    trace::TraceSpan tsp("rns", "modup");
    tsp.arg("batch", static_cast<s64>(batch))
        .arg("limbs", static_cast<s64>(target_.size()));
    std::size_t n = tower_->n();
    for (std::size_t b = 0; b < batch; ++b)
        TFHE_ASSERT(outs[b]->limbIndices() == target_
                        && outs[b]->domain() == Domain::Coeff,
                    "ModUp output not preshaped to the union basis");
    auto converted = conv_.applyBatch(digits, pool);

    poolOrGlobal(pool).parallelFor(0, batch, [&](std::size_t b) {
        const RnsPolynomial &digit = *digits[b];
        std::size_t oi = 0;
        for (std::size_t j = 0; j < target_.size(); ++j) {
            if (copySrc_[j] != npos) {
                std::copy(digit.limb(copySrc_[j]),
                          digit.limb(copySrc_[j]) + n, outs[b]->limb(j));
            } else {
                std::copy(converted[b].limb(oi),
                          converted[b].limb(oi) + n, outs[b]->limb(j));
                ++oi;
            }
        }
    });
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
      conv_(tower, p_idx_, q_idx_)
{
    std::size_t k = tower.numP();
    for (std::size_t j = 0; j < k; ++j)
        TFHE_ASSERT(p_idx_[j] >= tower.numQ(), "limb order violated");
    // P^-1 per q-limb is slot-independent: precompute once.
    std::size_t ql = q_idx_.size();
    pInv_.resize(ql);
    pInvShoup_.resize(ql);
    for (std::size_t j = 0; j < ql; ++j) {
        pInv_[j] = tower.pInvModQ(q_idx_[j]);
        pInvShoup_[j] =
            shoupPrecompute(pInv_[j], tower.modulus(q_idx_[j]).value());
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
    TFHE_ASSERT(a.domain() == Domain::Coeff);
    std::size_t k = p_idx_.size();
    std::size_t ql = q_idx_.size();
    TFHE_ASSERT(matchesUnionBasis(a),
                "polynomial does not match the plan's union basis");
    TFHE_TRACE_SPAN("rns", "moddown");
    std::size_t n = a.n();

    // The special-limb part of a.
    RnsPolynomial a_p(*tower_, p_idx_, Domain::Coeff);
    for (std::size_t j = 0; j < k; ++j)
        std::copy(a.limb(ql + j), a.limb(ql + j) + n, a_p.limb(j));

    // Convert a mod P onto the q-limbs, subtract, multiply by P^-1.
    RnsPolynomial conv = conv_.apply(a_p);

    RnsPolynomial out(*tower_, q_idx_, Domain::Coeff);
    ThreadPool::global().parallelFor(0, ql, [&](std::size_t j) {
        const Modulus &mod = tower_->modulus(q_idx_[j]);
        const u64 *pa = a.limb(j);
        const u64 *pc = conv.limb(j);
        u64 *po = out.limb(j);
        for (std::size_t c = 0; c < n; ++c) {
            po[c] = mulModShoup(mod.sub(pa[c], pc[c]), pInv_[j],
                                pInvShoup_[j], mod.value());
        }
    });
    return out;
}

std::vector<RnsPolynomial>
ModDownPlan::applyBatch(const std::vector<const RnsPolynomial *> &as,
                        ThreadPool *pool) const
{
    std::size_t batch = as.size();
    if (batch == 0)
        return {};
    std::vector<RnsPolynomial> out;
    out.reserve(batch);
    std::vector<RnsPolynomial *> out_ptrs(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        out.emplace_back(*tower_, q_idx_, Domain::Coeff);
        out_ptrs[b] = &out[b];
    }
    applyBatchInto(as, out_ptrs.data(), pool);
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
    std::size_t k = p_idx_.size();
    std::size_t ql = q_idx_.size();
    std::size_t n = tower_->n();

    ThreadPool &tp = poolOrGlobal(pool);
    std::vector<RnsPolynomial> a_ps;
    a_ps.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(as[b]->domain() == Domain::Coeff);
        TFHE_ASSERT(matchesUnionBasis(*as[b]),
                    "batched ModDown requires the plan's union basis");
        TFHE_ASSERT(outs[b]->limbIndices() == q_idx_
                        && outs[b]->domain() == Domain::Coeff,
                    "ModDown output not preshaped to the q-basis");
        a_ps.emplace_back(*tower_, p_idx_, Domain::Coeff);
    }
    tp.parallelFor2D(batch, k, [&](std::size_t b, std::size_t j) {
        std::copy(as[b]->limb(ql + j), as[b]->limb(ql + j) + n,
                  a_ps[b].limb(j));
    });

    std::vector<const RnsPolynomial *> a_p_ptrs(batch);
    for (std::size_t b = 0; b < batch; ++b)
        a_p_ptrs[b] = &a_ps[b];
    auto conv = conv_.applyBatch(a_p_ptrs, pool);

    tp.parallelFor2D(batch, ql, [&](std::size_t b, std::size_t j) {
        const Modulus &mod = tower_->modulus(q_idx_[j]);
        const u64 *pa = as[b]->limb(j);
        const u64 *pc = conv[b].limb(j);
        u64 *po = outs[b]->limb(j);
        for (std::size_t c = 0; c < n; ++c) {
            po[c] = mulModShoup(mod.sub(pa[c], pc[c]), pInv_[j],
                                pInvShoup_[j], mod.value());
        }
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

} // namespace tensorfhe::rns
