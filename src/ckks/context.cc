#include "ckks/context.hh"

#include <atomic>

#include "common/logging.hh"

namespace tensorfhe::ckks
{

namespace
{

/** Process-unique SwitchKey ids; 0 is reserved for "uncached". */
u64
nextSwitchKeyId()
{
    static std::atomic<u64> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/**
 * Resident restricted-key cap. Each entry holds digits x union-basis
 * polynomials, so the cache is bounded FIFO rather than unbounded;
 * production deployments would size this from the key-VRAM budget.
 */
constexpr std::size_t kMaxKeyRestrictions = 128;

} // namespace

CkksContext::CkksContext(const CkksParams &params) : params_(params)
{
    params_.validate();
    tower_ = std::make_unique<rns::RnsTower>(params_.towerConfig());
    encoder_ = std::make_unique<CkksEncoder>(*tower_);

    // Digit partition of the full q-chain.
    std::size_t alpha = params_.alpha();
    std::size_t num_q = tower_->numQ();
    for (std::size_t first = 0; first < num_q; first += alpha)
        digits_.push_back({first, std::min(first + alpha, num_q)});

    // Dcomp scalars: (Q_L / Q_j)^-1 mod q_i for i in digit j, where
    // Q_L / Q_j is the product of every q-prime outside digit j.
    dcomp_.resize(digits_.size());
    keyFactor_.resize(digits_.size());
    for (std::size_t j = 0; j < digits_.size(); ++j) {
        const auto &d = digits_[j];
        dcomp_[j].resize(d.last - d.first);
        for (std::size_t i = d.first; i < d.last; ++i) {
            const Modulus &mod = tower_->modulus(i);
            u64 prod = 1;
            for (std::size_t i2 = 0; i2 < num_q; ++i2) {
                if (i2 < d.first || i2 >= d.last)
                    prod = mod.mul(prod, tower_->prime(i2) % mod.value());
            }
            dcomp_[j][i - d.first] = mod.inv(prod);
        }
        // Key factors P * (Q_L / Q_j) mod every tower limb.
        keyFactor_[j].resize(tower_->numTotal());
        for (std::size_t t = 0; t < tower_->numTotal(); ++t) {
            const Modulus &mod = tower_->modulus(t);
            u64 prod = tower_->pModQ(t); // P mod m_t
            for (std::size_t i2 = 0; i2 < num_q; ++i2) {
                if (i2 < d.first || i2 >= d.last)
                    prod = mod.mul(prod, tower_->prime(i2) % mod.value());
            }
            keyFactor_[j][t] = prod;
        }
    }
}

u64
CkksContext::galoisForRotation(s64 r) const
{
    u64 m = 2 * params_.n;
    std::size_t slots = params_.slots();
    // Normalize r into [0, slots).
    s64 rr = ((r % static_cast<s64>(slots)) + static_cast<s64>(slots))
        % static_cast<s64>(slots);
    u64 g = 1;
    for (s64 i = 0; i < rr; ++i)
        g = (g * 5) % m;
    return g;
}

u64
CkksContext::galoisInverse(u64 galois) const
{
    u64 m = 2 * params_.n;
    requireArg(galois % 2 == 1 && galois < m, "bad Galois element ",
               galois);
    u64 inverse = 1;
    for (std::size_t i = 1; i < params_.n; ++i)
        inverse = (inverse * galois) % m;
    return inverse;
}

std::vector<std::size_t>
CkksContext::qLimbs(std::size_t count) const
{
    TFHE_ASSERT(count <= tower_->numQ());
    std::vector<std::size_t> limbs(count);
    for (std::size_t i = 0; i < count; ++i)
        limbs[i] = i;
    return limbs;
}

std::vector<std::size_t>
CkksContext::unionLimbs(std::size_t count) const
{
    auto limbs = qLimbs(count);
    for (std::size_t k = 0; k < tower_->numP(); ++k)
        limbs.push_back(tower_->specialIndex(k));
    return limbs;
}

u64
CkksContext::dcompScalar(std::size_t j, std::size_t i) const
{
    const auto &d = digits_[j];
    TFHE_ASSERT(i >= d.first && i < d.last);
    return dcomp_[j][i - d.first];
}

const rns::ModUpPlan &
CkksContext::modUpPlan(std::size_t digit, std::size_t level_count) const
{
    requireArg(digit < digits_.size(), "digit index out of range");
    std::size_t first = digits_[digit].first;
    requireArg(first < level_count,
               "digit ", digit, " empty at level count ", level_count);
    std::lock_guard<std::mutex> lock(planMu_);
    auto key = std::make_pair(digit, level_count);
    auto it = modUpPlans_.find(key);
    if (it == modUpPlans_.end()) {
        std::vector<std::size_t> digit_limbs;
        for (std::size_t i = first;
             i < std::min(digits_[digit].last, level_count); ++i)
            digit_limbs.push_back(i);
        it = modUpPlans_
                 .emplace(key, std::make_unique<rns::ModUpPlan>(
                                   *tower_, std::move(digit_limbs),
                                   level_count))
                 .first;
    }
    return *it->second;
}

const rns::ModDownPlan &
CkksContext::modDownPlan(std::size_t level_count) const
{
    std::lock_guard<std::mutex> lock(planMu_);
    auto it = modDownPlans_.find(level_count);
    if (it == modDownPlans_.end())
        it = modDownPlans_
                 .emplace(level_count,
                          std::make_unique<rns::ModDownPlan>(
                              *tower_, unionLimbs(level_count)))
                 .first;
    return *it->second;
}

std::shared_ptr<const RestrictedSwitchKey>
CkksContext::restrictedKey(const SwitchKey &key, std::size_t level_count,
                           u64 galois) const
{
    auto build = [&] {
        auto union_limbs = unionLimbs(level_count);
        u64 inverse = galoisInverse(galois);
        auto out = std::make_shared<RestrictedSwitchKey>();
        out->b.reserve(key.digits());
        out->a.reserve(key.digits());
        for (std::size_t j = 0; j < key.digits(); ++j) {
            out->b.push_back(
                rns::restrictToLimbs(key.b[j], union_limbs, inverse));
            out->a.push_back(
                rns::restrictToLimbs(key.a[j], union_limbs, inverse));
        }
        return out;
    };
    if (key.id == 0)
        return build();

    RestrictionKey map_key{key.id, level_count, galois};
    {
        std::lock_guard<std::mutex> lock(planMu_);
        auto it = keyRestrictions_.find(map_key);
        if (it != keyRestrictions_.end())
            return it->second;
    }
    // Build outside the lock: restriction copies digits x union-basis
    // polynomials and must not serialize concurrent evaluators.
    auto restricted = build();
    std::lock_guard<std::mutex> lock(planMu_);
    auto [it, inserted] =
        keyRestrictions_.emplace(map_key, restricted);
    if (inserted) {
        keyRestrictionOrder_.push_back(map_key);
        while (keyRestrictionOrder_.size() > kMaxKeyRestrictions) {
            keyRestrictions_.erase(keyRestrictionOrder_.front());
            keyRestrictionOrder_.erase(keyRestrictionOrder_.begin());
        }
    }
    return it->second;
}

std::size_t
CkksContext::modUpPlanCacheSize() const
{
    std::lock_guard<std::mutex> lock(planMu_);
    return modUpPlans_.size();
}

std::size_t
CkksContext::modDownPlanCacheSize() const
{
    std::lock_guard<std::mutex> lock(planMu_);
    return modDownPlans_.size();
}

std::size_t
CkksContext::keyRestrictionCacheSize() const
{
    std::lock_guard<std::mutex> lock(planMu_);
    return keyRestrictions_.size();
}

u64
CkksContext::keyFactor(std::size_t j, std::size_t t) const
{
    return keyFactor_[j][t];
}

SecretKey
CkksContext::generateSecretKey(Rng &rng) const
{
    SecretKey sk;
    sk.coeffs.assign(params_.n, 0);
    if (params_.secretHamming == 0) {
        for (auto &c : sk.coeffs)
            c = rng.sampleTernary();
    } else {
        // Sparse ternary secret with exactly `secretHamming`
        // nonzeros (bootstrap-friendly).
        std::size_t placed = 0;
        while (placed < params_.secretHamming) {
            std::size_t pos = rng.uniform(params_.n);
            if (sk.coeffs[pos] != 0)
                continue;
            sk.coeffs[pos] = rng.uniform(2) == 0 ? 1 : -1;
            ++placed;
        }
    }
    std::vector<std::size_t> all(tower_->numTotal());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    sk.eval = rns::liftSigned(*tower_, all, sk.coeffs);
    sk.eval.toEval(params_.nttVariant);
    return sk;
}

namespace
{

/** Gaussian error over the given limbs, Eval domain. */
rns::RnsPolynomial
errorPoly(const rns::RnsTower &tower,
          const std::vector<std::size_t> &limbs, double sigma, Rng &rng,
          ntt::NttVariant v)
{
    std::vector<s64> e(tower.n());
    for (auto &c : e)
        c = rng.sampleGaussianInt(sigma);
    auto poly = rns::liftSigned(tower, limbs, e);
    poly.toEval(v);
    return poly;
}

/** Restrict a full-tower Eval polynomial to the given limb indices. */
rns::RnsPolynomial
restrictLimbs(const rns::RnsPolynomial &full,
              const std::vector<std::size_t> &limbs)
{
    rns::RnsPolynomial out(full.tower(), limbs, full.domain());
    for (std::size_t i = 0; i < limbs.size(); ++i) {
        // Full-tower polys use identity limb indexing.
        TFHE_ASSERT(full.limbIndex(limbs[i]) == limbs[i]);
        std::copy(full.limb(limbs[i]), full.limb(limbs[i]) + full.n(),
                  out.limb(i));
    }
    return out;
}

} // namespace

PublicKey
CkksContext::generatePublicKey(const SecretKey &sk, Rng &rng) const
{
    auto limbs = qLimbs(tower_->numQ());
    PublicKey pk;
    pk.a = rns::sampleUniform(*tower_, limbs, rns::Domain::Eval, rng);
    pk.b = errorPoly(*tower_, limbs, params_.sigma, rng,
                     params_.nttVariant);
    // b = e - a*s.
    auto s = restrictLimbs(sk.eval, limbs);
    auto as = pk.a;
    rns::hadaMultInPlace(as, s);
    rns::eleSubInPlace(pk.b, as);
    return pk;
}

SwitchKey
CkksContext::generateSwitchKey(const rns::RnsPolynomial &target_eval,
                               const SecretKey &sk, Rng &rng) const
{
    TFHE_ASSERT(target_eval.domain() == rns::Domain::Eval);
    TFHE_ASSERT(target_eval.numLimbs() == tower_->numTotal(),
                "switch-key target must live on the full tower");
    auto limbs = unionLimbs(tower_->numQ());
    SwitchKey key;
    for (std::size_t j = 0; j < digits_.size(); ++j) {
        auto a = rns::sampleUniform(*tower_, limbs, rns::Domain::Eval,
                                    rng);
        auto b = errorPoly(*tower_, limbs, params_.sigma, rng,
                           params_.nttVariant);
        // b = e - a*s + factor_j * target.
        auto s = restrictLimbs(sk.eval, limbs);
        auto as = a;
        rns::hadaMultInPlace(as, s);
        rns::eleSubInPlace(b, as);
        auto scaled = restrictLimbs(target_eval, limbs);
        std::vector<u64> factors(limbs.size());
        for (std::size_t t = 0; t < limbs.size(); ++t)
            factors[t] = keyFactor(j, limbs[t]);
        rns::mulScalarInPlace(scaled, factors);
        rns::eleAddInPlace(b, scaled);
        key.a.push_back(std::move(a));
        key.b.push_back(std::move(b));
    }
    key.id = nextSwitchKeyId();
    return key;
}

SwitchKey
CkksContext::generateRelinKey(const SecretKey &sk, Rng &rng) const
{
    auto s2 = sk.eval;
    rns::hadaMultInPlace(s2, sk.eval);
    return generateSwitchKey(s2, sk, rng);
}

SwitchKey
CkksContext::generateRotationKey(const SecretKey &sk, s64 step,
                                 Rng &rng) const
{
    u64 galois = galoisForRotation(step);
    auto rotated = rns::applyAutomorphism(sk.eval, galois);
    return generateSwitchKey(rotated, sk, rng);
}

SwitchKey
CkksContext::generateConjugationKey(const SecretKey &sk, Rng &rng) const
{
    auto conj = rns::applyAutomorphism(sk.eval, galoisForConjugation());
    return generateSwitchKey(conj, sk, rng);
}

u64
CkksContext::galoisForConjRotation(s64 step) const
{
    u64 m = 2 * params_.n;
    return (galoisForConjugation() * galoisForRotation(step)) % m;
}

SwitchKey
CkksContext::generateConjRotationKey(const SecretKey &sk, s64 step,
                                     Rng &rng) const
{
    auto target =
        rns::applyAutomorphism(sk.eval, galoisForConjRotation(step));
    return generateSwitchKey(target, sk, rng);
}

KeyBundle
CkksContext::generateKeys(const SecretKey &sk, Rng &rng,
                          const std::vector<s64> &rotations,
                          const std::vector<s64> &conj_rotations) const
{
    KeyBundle bundle;
    bundle.pk = generatePublicKey(sk, rng);
    bundle.relin = generateRelinKey(sk, rng);
    for (s64 r : rotations)
        bundle.rot.emplace(r, generateRotationKey(sk, r, rng));
    bundle.conj = generateConjugationKey(sk, rng);
    for (s64 r : conj_rotations)
        bundle.conjRot.emplace(r, generateConjRotationKey(sk, r, rng));
    return bundle;
}

} // namespace tensorfhe::ckks
