/**
 * @file
 * CkksContext: owns the RNS tower, encoder and parameter set; issues
 * keys. Corresponds to the paper's per-instance initialization that
 * precomputes and reuses twiddle matrices (SIV-B).
 */

#ifndef TENSORFHE_CKKS_CONTEXT_HH
#define TENSORFHE_CKKS_CONTEXT_HH

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "ckks/encoder.hh"
#include "ckks/params.hh"
#include "common/rng.hh"
#include "rns/conv.hh"

namespace tensorfhe::ckks
{

/** Ternary secret key, kept in Eval domain over the full tower. */
struct SecretKey
{
    rns::RnsPolynomial eval;     ///< over all q + p limbs, Eval domain
    std::vector<s64> coeffs;     ///< signed ternary coefficients
};

/** Encryption key (b, a) with b = -a*s + e over the full q-chain. */
struct PublicKey
{
    rns::RnsPolynomial b;
    rns::RnsPolynomial a;
};

/**
 * Generalized key-switching key (paper SII-B): one (b_j, a_j) pair
 * per decomposition digit, over the full q + p basis, Eval domain.
 * Digit j's pair encrypts P * Qhat_j * target under s.
 *
 * Storage format: the key of a Galois automorphism g (a rotation or
 * the conjugation) holds its digits already permuted by g^-1. The
 * inner product of an unpermuted hoisted head with them, permuted by
 * g, equals the inner product of the g-permuted head with the key as
 * generated, slot for slot, so a rotation permutes its key-switched
 * pair once instead of every digit. The relinearization key is
 * stored as generated. Tails read every digit in place at any level:
 * exec::dotRows picks each limb by its tower index.
 */
struct SwitchKey
{
    std::vector<rns::RnsPolynomial> b;
    std::vector<rns::RnsPolynomial> a;

    std::size_t digits() const { return b.size(); }
};

/** Everything the evaluator needs, in the SwitchKey storage format. */
struct KeyBundle
{
    PublicKey pk;
    SwitchKey relin;                 ///< target s^2, unpermuted
    std::map<s64, SwitchKey> rot;    ///< per rotation step, permuted
    SwitchKey conj;                  ///< target s(X^-1), permuted
    /**
     * Conjugate-composed rotation keys (permuted): step r targets
     * s(X^((2N-1)*5^r)), the automorphism "conjugate then rotate by
     * r". Generated only for the steps a caller passes as
     * generateKeys' conj_rotations; no evaluator path reads them (the
     * bootstrapper's CoeffToSlot split conjugates with `conj`).
     */
    std::map<s64, SwitchKey> conjRot;
};

class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);

    const CkksParams &params() const { return params_; }
    const rns::RnsTower &tower() const { return *tower_; }
    const CkksEncoder &encoder() const { return *encoder_; }
    std::size_t n() const { return params_.n; }
    std::size_t slots() const { return params_.slots(); }
    ntt::NttVariant nttVariant() const { return params_.nttVariant; }

    /** Galois element for rotation by r slots: 5^r mod 2N. */
    u64 galoisForRotation(s64 r) const;
    /** Galois element of complex conjugation: 2N - 1. */
    u64 galoisForConjugation() const { return 2 * params_.n - 1; }
    /** Inverse of a Galois element: g^(N-1) mod 2N, since the group
        of odd residues mod 2N has order N. */
    u64 galoisInverse(u64 galois) const;

    /** Limb indices {0..count-1} of the q-chain. */
    std::vector<std::size_t> qLimbs(std::size_t count) const;
    /** Limb indices {0..count-1} + all special limbs. */
    std::vector<std::size_t> unionLimbs(std::size_t count) const;

    /** Digit ranges [first, last) over the full q-chain. */
    struct DigitRange
    {
        std::size_t first;
        std::size_t last;
    };
    const std::vector<DigitRange> &digitRanges() const { return digits_; }

    /**
     * Dcomp scalar for digit j at q-limb i (i inside digit j):
     * (Q_L / Q_j)^-1 mod q_i.
     */
    u64 dcompScalar(std::size_t j, std::size_t i) const;

    /**
     * Key factor for digit j at flattened limb t:
     * (P * Q_L / Q_j) mod m_t.
     */
    u64 keyFactor(std::size_t j, std::size_t t) const;

    /*
     * Phase-split conversion plans, memoized per shape. Building a
     * ModUpPlan/ModDownPlan costs O(limbs^2) scalar CRT work; every
     * hoist and key-switch tail at the same level reuses the same
     * plan, so every relinearization, rotation and BSGS linear
     * transform shares these instead of rebuilding per call.
     * Thread-safe; entries live for the context's lifetime (bounded
     * by digits x levels).
     */

    /** ModUp plan of decomposition digit `digit` at `level_count`. */
    const rns::ModUpPlan &modUpPlan(std::size_t digit,
                                    std::size_t level_count) const;
    /** ModDown plan of the union basis at `level_count`. */
    const rns::ModDownPlan &modDownPlan(std::size_t level_count) const;

    /** Cache sizes, exposed for tests and capacity audits. */
    std::size_t modUpPlanCacheSize() const;
    std::size_t modDownPlanCacheSize() const;

    SecretKey generateSecretKey(Rng &rng) const;
    PublicKey generatePublicKey(const SecretKey &sk, Rng &rng) const;
    /** Key switching s' -> s for an arbitrary target polynomial. */
    SwitchKey generateSwitchKey(const rns::RnsPolynomial &target_eval,
                                const SecretKey &sk, Rng &rng) const;
    SwitchKey generateRelinKey(const SecretKey &sk, Rng &rng) const;
    /*
     * Galois keys, in the SwitchKey storage format: the
     * generateSwitchKey of s(X^g) with its digits permuted by g^-1,
     * one gather per digit (recorded as no kernel launch: it
     * prepares keys, it does not evaluate).
     */
    SwitchKey generateRotationKey(const SecretKey &sk, s64 step,
                                  Rng &rng) const;
    SwitchKey generateConjugationKey(const SecretKey &sk, Rng &rng) const;
    /** Key for the composed automorphism conjugate-then-rotate(step). */
    SwitchKey generateConjRotationKey(const SecretKey &sk, s64 step,
                                      Rng &rng) const;

    /** Galois element of conjugate-then-rotate(step). */
    u64 galoisForConjRotation(s64 step) const;

    /**
     * pk + relin + rotation keys for the given steps + conjugation
     * (+ conjugate-composed rotation keys for `conj_rotations`).
     */
    KeyBundle generateKeys(const SecretKey &sk, Rng &rng,
                           const std::vector<s64> &rotations = {},
                           const std::vector<s64> &conj_rotations = {})
        const;

  private:
    CkksParams params_;
    std::unique_ptr<rns::RnsTower> tower_;
    std::unique_ptr<CkksEncoder> encoder_;
    std::vector<DigitRange> digits_;
    // dcomp_[j][i - digits_[j].first] and keyFactor_[j][t].
    std::vector<std::vector<u64>> dcomp_;
    std::vector<std::vector<u64>> keyFactor_;

    mutable std::mutex planMu_;
    mutable std::map<std::pair<std::size_t, std::size_t>,
                     std::unique_ptr<rns::ModUpPlan>>
        modUpPlans_; ///< keyed by (digit, level_count)
    mutable std::map<std::size_t, std::unique_ptr<rns::ModDownPlan>>
        modDownPlans_; ///< keyed by level_count

    SwitchKey generateGaloisKey(const SecretKey &sk, u64 galois,
                                Rng &rng) const;
};

} // namespace tensorfhe::ckks

#endif // TENSORFHE_CKKS_CONTEXT_HH
