#include "rns/rns_poly.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace tensorfhe::rns
{

RnsPolynomial::RnsPolynomial(const RnsTower &tower,
                             std::vector<std::size_t> limbs, Domain domain)
    : tower_(&tower), limbIndices_(std::move(limbs)), domain_(domain)
{
    for (std::size_t idx : limbIndices_)
        TFHE_ASSERT(idx < tower.numTotal(), "limb index out of range");
    data_.assign(limbIndices_.size() * tower.n(), 0);
}

RnsPolynomial::RnsPolynomial(const RnsTower &tower,
                             std::vector<std::size_t> limbs, Domain domain,
                             std::vector<u64> storage)
    : tower_(&tower), limbIndices_(std::move(limbs)),
      data_(std::move(storage)), domain_(domain)
{
    for (std::size_t idx : limbIndices_)
        TFHE_ASSERT(idx < tower.numTotal(), "limb index out of range");
    data_.assign(limbIndices_.size() * tower.n(), 0);
}

RnsPolynomial
RnsPolynomial::forOverwrite(const RnsTower &tower,
                            std::vector<std::size_t> limbs, Domain domain,
                            std::vector<u64> storage)
{
    RnsPolynomial p;
    p.tower_ = &tower;
    p.limbIndices_ = std::move(limbs);
    p.domain_ = domain;
    for (std::size_t idx : p.limbIndices_)
        TFHE_ASSERT(idx < tower.numTotal(), "limb index out of range");
    storage.resize(p.limbIndices_.size() * tower.n());
    p.data_ = std::move(storage);
    return p;
}

std::vector<u64>
RnsPolynomial::takeStorage()
{
    std::vector<u64> out = std::move(data_);
    data_.clear();
    limbIndices_.clear();
    return out;
}

RnsPolynomial
RnsPolynomial::zeros(const RnsTower &tower, std::size_t count,
                     Domain domain)
{
    std::vector<std::size_t> limbs(count);
    std::iota(limbs.begin(), limbs.end(), 0);
    return RnsPolynomial(tower, std::move(limbs), domain);
}

std::size_t
RnsPolynomial::limbPosition(std::size_t t) const
{
    if (t < limbIndices_.size() && limbIndices_[t] == t)
        return t;
    auto it = std::find(limbIndices_.begin(), limbIndices_.end(), t);
    TFHE_ASSERT(it != limbIndices_.end(), "tower limb ", t,
                " not in the polynomial");
    return static_cast<std::size_t>(it - limbIndices_.begin());
}

void
RnsPolynomial::dropLastLimbs(std::size_t count)
{
    TFHE_ASSERT(count <= numLimbs());
    limbIndices_.resize(limbIndices_.size() - count);
    data_.resize(limbIndices_.size() * n());
}

void
RnsPolynomial::truncateLimbs(std::size_t count)
{
    TFHE_ASSERT(count <= numLimbs());
    dropLastLimbs(numLimbs() - count);
}

void
RnsPolynomial::toEval(ntt::NttVariant v)
{
    if (domain_ == Domain::Eval)
        return;
    ThreadPool::global().parallelFor(0, numLimbs(), [&](std::size_t i) {
        tower_->nttContext(limbIndices_[i]).forward(limb(i), v);
    });
    domain_ = Domain::Eval;
}

void
RnsPolynomial::toCoeff(ntt::NttVariant v)
{
    if (domain_ == Domain::Coeff)
        return;
    ThreadPool::global().parallelFor(0, numLimbs(), [&](std::size_t i) {
        tower_->nttContext(limbIndices_[i]).inverse(limb(i), v);
    });
    domain_ = Domain::Coeff;
}

bool
RnsPolynomial::sameShape(const RnsPolynomial &other) const
{
    return tower_ == other.tower_ && limbIndices_ == other.limbIndices_
        && domain_ == other.domain_;
}

namespace
{

template <typename Fn>
void
elementwise(RnsPolynomial &a, const RnsPolynomial &b, KernelKind kind,
            Fn &&fn)
{
    TFHE_ASSERT(a.sameShape(b), "operand shape mismatch");
    ScopedKernelTimer timer(kind, a.numLimbs() * a.n());
    std::size_t n = a.n();
    ThreadPool::global().parallelFor(0, a.numLimbs(), [&](std::size_t i) {
        const Modulus &mod = a.limbModulus(i);
        u64 *pa = a.limb(i);
        const u64 *pb = b.limb(i);
        for (std::size_t j = 0; j < n; ++j)
            pa[j] = fn(mod, pa[j], pb[j]);
    });
}

/** The FrobeniusMap gather of X -> X^galois in the evaluation domain:
    out[j] = in[pi[j]] with pi(j) = ((galois*(2j+1) mod 2N)-1)/2. */
std::vector<std::size_t>
frobeniusGather(std::size_t n, u64 galois)
{
    u64 m = 2 * n;
    TFHE_ASSERT(galois % 2 == 1 && galois < m, "bad Galois element");
    // galois*(2j+1) mod 2N advances by 2*galois mod 2N per slot, so
    // no slot pays a division.
    u64 step = (2 * galois) % m;
    u64 e = galois;
    std::vector<std::size_t> pi(n);
    for (std::size_t j = 0; j < n; ++j) {
        pi[j] = (e - 1) / 2;
        e += step;
        if (e >= m)
            e -= m;
    }
    return pi;
}

} // namespace

void
hadaMultInPlace(RnsPolynomial &a, const RnsPolynomial &b)
{
    elementwise(a, b, KernelKind::HadaMult,
                [](const Modulus &m, u64 x, u64 y) { return m.mul(x, y); });
}

void
eleAddInPlace(RnsPolynomial &a, const RnsPolynomial &b)
{
    elementwise(a, b, KernelKind::EleAdd,
                [](const Modulus &m, u64 x, u64 y) { return m.add(x, y); });
}

void
eleSubInPlace(RnsPolynomial &a, const RnsPolynomial &b)
{
    elementwise(a, b, KernelKind::EleSub,
                [](const Modulus &m, u64 x, u64 y) { return m.sub(x, y); });
}

void
negateInPlace(RnsPolynomial &a)
{
    std::size_t n = a.n();
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const Modulus &mod = a.limbModulus(i);
        u64 *p = a.limb(i);
        for (std::size_t j = 0; j < n; ++j)
            p[j] = mod.neg(p[j]);
    }
}

void
mulScalarInPlace(RnsPolynomial &a, const std::vector<u64> &scalars)
{
    TFHE_ASSERT(scalars.size() == a.numLimbs());
    std::size_t n = a.n();
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const Modulus &mod = a.limbModulus(i);
        u64 s = scalars[i];
        u64 s_shoup = shoupPrecompute(s, mod.value());
        u64 *p = a.limb(i);
        for (std::size_t j = 0; j < n; ++j)
            p[j] = mulModShoup(p[j], s, s_shoup, mod.value());
    }
}

RnsPolynomial
sampleUniform(const RnsTower &tower, const std::vector<std::size_t> &limbs,
              Domain domain, Rng &rng)
{
    RnsPolynomial out(tower, limbs, domain);
    for (std::size_t i = 0; i < out.numLimbs(); ++i) {
        u64 q = out.limbModulus(i).value();
        u64 *p = out.limb(i);
        for (std::size_t j = 0; j < out.n(); ++j)
            p[j] = rng.uniform(q);
    }
    return out;
}

RnsPolynomial
liftSigned(const RnsTower &tower, const std::vector<std::size_t> &limbs,
           const std::vector<s64> &coeffs)
{
    TFHE_ASSERT(coeffs.size() == tower.n());
    RnsPolynomial out(tower, limbs, Domain::Coeff);
    for (std::size_t i = 0; i < out.numLimbs(); ++i) {
        u64 q = out.limbModulus(i).value();
        u64 *p = out.limb(i);
        for (std::size_t j = 0; j < out.n(); ++j) {
            s64 c = coeffs[j];
            p[j] = c >= 0 ? static_cast<u64>(c) % q
                          : q - (static_cast<u64>(-c) % q);
            if (p[j] == q)
                p[j] = 0;
        }
    }
    return out;
}

RnsPolynomial
permuteEval(const RnsPolynomial &a, u64 galois)
{
    TFHE_ASSERT(a.domain() == Domain::Eval,
                "a slot permutation gathers Eval slots");
    RnsPolynomial out(a.tower(), a.limbIndices(), a.domain());
    auto pi = frobeniusGather(a.n(), galois);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const u64 *src = a.limb(i);
        u64 *dst = out.limb(i);
        for (std::size_t j = 0; j < a.n(); ++j)
            dst[j] = src[pi[j]];
    }
    return out;
}

void
toEvalBatch(const std::vector<RnsPolynomial *> &polys, ntt::NttVariant v,
            ThreadPool *pool)
{
    std::vector<ntt::NttJob> jobs;
    for (RnsPolynomial *p : polys) {
        if (p->domain() == Domain::Eval)
            continue;
        for (std::size_t i = 0; i < p->numLimbs(); ++i)
            jobs.push_back({&p->tower().nttContext(p->limbIndex(i)),
                            p->limb(i)});
    }
    ntt::forwardBatch(jobs, v, pool);
    for (RnsPolynomial *p : polys)
        p->setDomain(Domain::Eval);
}

void
toCoeffBatch(const std::vector<RnsPolynomial *> &polys, ntt::NttVariant v,
             ThreadPool *pool)
{
    std::vector<ntt::NttJob> jobs;
    for (RnsPolynomial *p : polys) {
        if (p->domain() == Domain::Coeff)
            continue;
        for (std::size_t i = 0; i < p->numLimbs(); ++i)
            jobs.push_back({&p->tower().nttContext(p->limbIndex(i)),
                            p->limb(i)});
    }
    ntt::inverseBatch(jobs, v, pool);
    for (RnsPolynomial *p : polys)
        p->setDomain(Domain::Coeff);
}

void
applyAutomorphismBatchInto(const std::vector<const RnsPolynomial *> &as,
                           u64 galois, RnsPolynomial *const *outs,
                           ThreadPool *pool)
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    const RnsPolynomial &front = *as[0];
    std::size_t n = front.n();
    u64 m = 2 * n;
    TFHE_ASSERT(galois % 2 == 1 && galois < m, "bad Galois element");

    std::vector<RnsPolynomial *> out_view(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(as[b]->domain() == front.domain()
                        && as[b]->n() == n
                        && as[b]->numLimbs() == front.numLimbs(),
                    "batched automorphism requires a uniform shape");
        TFHE_ASSERT(outs[b]->numLimbs() == as[b]->numLimbs()
                        && outs[b]->domain() == as[b]->domain(),
                    "automorphism output not preshaped to its input");
        out_view[b] = outs[b];
    }
    auto &out = out_view;

    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    if (front.domain() == Domain::Eval) {
        ScopedKernelTimer timer(KernelKind::FrobeniusMap,
                                batch * front.numLimbs() * n);
        // The FrobeniusMap permutation is shared by the whole batch.
        auto pi = frobeniusGather(n, galois);
        tp.parallelFor2D(batch, front.numLimbs(),
                         [&](std::size_t b, std::size_t i) {
            const u64 *src = as[b]->limb(i);
            u64 *dst = out[b]->limb(i);
            for (std::size_t j = 0; j < n; ++j)
                dst[j] = src[pi[j]];
        });
        return;
    }

    // Coefficient domain: the destination index and the sign flip are
    // also slot-independent.
    std::vector<std::size_t> dst_idx(n);
    std::vector<u8> flip(n);
    for (std::size_t j = 0; j < n; ++j) {
        u64 e = (static_cast<u64>(j) * galois) % m;
        dst_idx[j] = e < n ? e : e - n;
        flip[j] = e < n ? 0 : 1;
    }
    tp.parallelFor2D(batch, front.numLimbs(),
                     [&](std::size_t b, std::size_t i) {
        const Modulus &mod = as[b]->limbModulus(i);
        const u64 *src = as[b]->limb(i);
        u64 *dst = out[b]->limb(i);
        for (std::size_t j = 0; j < n; ++j)
            dst[dst_idx[j]] = flip[j] ? mod.neg(src[j]) : src[j];
    });
}

RnsPolynomial
applyAutomorphism(const RnsPolynomial &a, u64 galois)
{
    std::size_t n = a.n();
    u64 m = 2 * n;
    TFHE_ASSERT(galois % 2 == 1 && galois < m, "bad Galois element");
    if (a.domain() == Domain::Eval) {
        // FrobeniusMap kernel (paper SIV-A): pure slot permutation.
        ScopedKernelTimer timer(KernelKind::FrobeniusMap,
                                a.numLimbs() * n);
        return permuteEval(a, galois);
    }

    // Coefficient domain: X^j -> X^(j*galois mod 2N) with sign flips
    // for wraps past N.
    RnsPolynomial out(a.tower(), a.limbIndices(), a.domain());
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        const Modulus &mod = a.limbModulus(i);
        const u64 *src = a.limb(i);
        u64 *dst = out.limb(i);
        for (std::size_t j = 0; j < n; ++j) {
            u64 e = (static_cast<u64>(j) * galois) % m;
            if (e < n)
                dst[e] = src[j];
            else
                dst[e - n] = mod.neg(src[j]);
        }
    }
    return out;
}

} // namespace tensorfhe::rns
