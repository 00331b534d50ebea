/**
 * @file
 * RNS polynomial: L' residue limbs of N coefficients each, living on
 * a subset of the tower's primes, in either coefficient or evaluation
 * (NTT) representation.
 *
 * The elementwise kernels on RnsPolynomial are exactly the reusable
 * kernels of the paper's hierarchical CKKS reconstruction (Table II):
 * Hada-Mult, Ele-Add, Ele-Sub, plus the NTT/INTT domain moves. They
 * are instrumented through KernelStats for the breakdown figures.
 */

#ifndef TENSORFHE_RNS_RNS_POLY_HH
#define TENSORFHE_RNS_RNS_POLY_HH

#include <vector>

#include "common/rng.hh"
#include "ntt/ntt.hh"
#include "rns/tower.hh"

namespace tensorfhe::rns
{

/** Representation domain of a polynomial. */
enum class Domain
{
    Coeff, ///< coefficient (power) basis
    Eval   ///< NTT point-value basis, natural order
};

class RnsPolynomial
{
  public:
    RnsPolynomial() = default;

    /** Zero polynomial over the given tower limbs. */
    RnsPolynomial(const RnsTower &tower, std::vector<std::size_t> limbs,
                  Domain domain);

    /**
     * Zero polynomial reusing `storage` as the coefficient buffer:
     * when its capacity already covers limbs*N the construction makes
     * no allocator call. This is the exec::Workspace recycling hook.
     */
    RnsPolynomial(const RnsTower &tower, std::vector<std::size_t> limbs,
                  Domain domain, std::vector<u64> storage);

    /**
     * Polynomial over `limbs` reusing `storage` WITHOUT clearing it:
     * each coefficient is whatever the buffer held there (zero past
     * its old size). For buffers the caller writes in full before
     * reading — the exec::Workspace non-zeroing checkout.
     */
    static RnsPolynomial forOverwrite(const RnsTower &tower,
                                      std::vector<std::size_t> limbs,
                                      Domain domain,
                                      std::vector<u64> storage);

    /**
     * Steal the coefficient buffer (for return to an arena), leaving
     * this polynomial empty.
     */
    std::vector<u64> takeStorage();

    /** Zero polynomial over limbs [0, count) of the q-chain. */
    static RnsPolynomial zeros(const RnsTower &tower, std::size_t count,
                               Domain domain);

    const RnsTower &tower() const { return *tower_; }
    std::size_t n() const { return tower_->n(); }
    std::size_t numLimbs() const { return limbIndices_.size(); }
    const std::vector<std::size_t> &limbIndices() const
    {
        return limbIndices_;
    }
    std::size_t limbIndex(std::size_t i) const { return limbIndices_[i]; }
    /** Position of tower limb `t`, which the polynomial must hold:
        `t` itself on a full-tower or q-prefix polynomial, else found
        by a search of the limb indices. */
    std::size_t limbPosition(std::size_t t) const;
    Domain domain() const { return domain_; }
    void setDomain(Domain d) { domain_ = d; } // caller moves the data

    u64 *limb(std::size_t i) { return data_.data() + i * n(); }
    const u64 *limb(std::size_t i) const { return data_.data() + i * n(); }

    const Modulus &limbModulus(std::size_t i) const
    {
        return tower_->modulus(limbIndices_[i]);
    }

    /** Drop the last `count` limbs (used by RESCALE and ModDown). */
    void dropLastLimbs(std::size_t count);

    /** Keep only the first `count` limbs. */
    void truncateLimbs(std::size_t count);

    /** Move every limb to Eval domain (no-op if already there). */
    void toEval(ntt::NttVariant v = ntt::NttVariant::Butterfly);

    /** Move every limb to Coeff domain (no-op if already there). */
    void toCoeff(ntt::NttVariant v = ntt::NttVariant::Butterfly);

    bool sameShape(const RnsPolynomial &other) const;

  private:
    const RnsTower *tower_ = nullptr;
    std::vector<std::size_t> limbIndices_;
    std::vector<u64> data_; // limb-major
    Domain domain_ = Domain::Coeff;
};

/** c[i] = a[i] * b[i] per limb (Hada-Mult kernel). Domains must match. */
void hadaMultInPlace(RnsPolynomial &a, const RnsPolynomial &b);

/** a += b per limb (Ele-Add kernel). */
void eleAddInPlace(RnsPolynomial &a, const RnsPolynomial &b);

/** a -= b per limb (Ele-Sub kernel). */
void eleSubInPlace(RnsPolynomial &a, const RnsPolynomial &b);

/** a = -a. */
void negateInPlace(RnsPolynomial &a);

/** a[limb i] *= scalar[i] (scalars already reduced per limb). */
void mulScalarInPlace(RnsPolynomial &a, const std::vector<u64> &scalars);

/** Uniform random polynomial over the given limbs. */
RnsPolynomial sampleUniform(const RnsTower &tower,
                            const std::vector<std::size_t> &limbs,
                            Domain domain, Rng &rng);

/**
 * Spread small signed coefficients (ternary secret / Gaussian error)
 * into every limb, in Coeff domain.
 */
RnsPolynomial liftSigned(const RnsTower &tower,
                         const std::vector<std::size_t> &limbs,
                         const std::vector<s64> &coeffs);

/**
 * Apply the Galois automorphism X -> X^galois to a polynomial.
 *
 * In Coeff domain this permutes coefficients with sign flips; in Eval
 * domain it is the pure permutation the paper calls the FrobeniusMap
 * kernel: out[j] = in[pi(j)] with pi(j) = ((galois*(2j+1) mod 2N)-1)/2.
 */
RnsPolynomial applyAutomorphism(const RnsPolynomial &a, u64 galois);

/** applyAutomorphism(a, galois) of an Eval-domain polynomial, the
    FrobeniusMap gather, without recording a kernel launch: key
    generation permutes its digits with it, which prepares keys rather
    than evaluating. */
RnsPolynomial permuteEval(const RnsPolynomial &a, u64 galois);

/*
 * Batched counterparts used by the parallel batched execution engine:
 * the (poly x limb) iteration space is flattened into one work-queue
 * dispatch instead of one pool round-trip per polynomial. Bit-identical
 * to per-polynomial calls.
 */

/** Move every polynomial to Eval domain in one batched NTT dispatch. */
void toEvalBatch(const std::vector<RnsPolynomial *> &polys,
                 ntt::NttVariant v = ntt::NttVariant::Butterfly,
                 ThreadPool *pool = nullptr);

/** Move every polynomial to Coeff domain in one batched dispatch. */
void toCoeffBatch(const std::vector<RnsPolynomial *> &polys,
                  ntt::NttVariant v = ntt::NttVariant::Butterfly,
                  ThreadPool *pool = nullptr);

/** Apply one Galois automorphism to every polynomial, writing into
    caller-provided outputs (preshaped to each input's limb set and
    domain) — the exec::Workspace hook for the per-rotation
    FrobeniusMap. The slot permutation is computed once and shared
    across the batch. Outputs must not alias the inputs. Bit-identical
    to per-polynomial applyAutomorphism. */
void applyAutomorphismBatchInto(
    const std::vector<const RnsPolynomial *> &as, u64 galois,
    RnsPolynomial *const *outs, ThreadPool *pool = nullptr);

} // namespace tensorfhe::rns

#endif // TENSORFHE_RNS_RNS_POLY_HH
