/**
 * @file
 * Fast basis conversion (the paper's Conv kernel) and the ModUp /
 * ModDown / Dcomp procedures of generalized key-switching built on it
 * (paper Alg. 1 and SIV-A).
 *
 * The conversion is the approximate RNS conversion of the full-RNS
 * CKKS line (Cheon et al., paper ref [15]): residues are recombined
 * through CRT factors without computing the exact overflow count, so
 * the result may differ from the true value by a small multiple of
 * the source modulus. CKKS absorbs this into ciphertext noise; the
 * tests bound it.
 *
 * The conversion procedures are phase-split: each has a *Plan class
 * holding the precomputation fixed by the (source, target) limb pair
 * — CRT factors with their Shoup companions, union-basis layout,
 * P^-1 constants — separate from the per-coefficient apply phase.
 * Hoisted key-switching builds one plan and applies it across every
 * rotation, digit, and batch slot.
 *
 * Every conversion runs through one body, BaseConvPlan::
 * applyBatchInto: it reads source limbs in place and writes every
 * converted limb straight into the caller's preshaped outputs, with
 * its arithmetic on the runtime-dispatched simd::Ops Shoup spans.
 * Steady-state calls allocate no limb-sized buffer. apply()/
 * applyBatch() and the plan-free functions below are thin wrappers
 * that allocate results and call it, so all are bit-identical to one
 * another.
 *
 * The coefficient-domain ModDown and RESCALE are the references for
 * the evaluation-domain forms the dispatcher runs
 * (ModDownPlan::applyEvalBatchInto,
 * rescaleByLastLimbEvalBatchInPlace), which transform only the limbs
 * whose domain the math needs and are bit-identical to the reference
 * bracketed by INTT/NTT.
 */

#ifndef TENSORFHE_RNS_CONV_HH
#define TENSORFHE_RNS_CONV_HH

#include <vector>

#include "rns/rns_poly.hh"

namespace tensorfhe
{
class ThreadPool;
}

namespace tensorfhe::rns
{

/**
 * Precomputed CRT factors of the approximate base conversion for one
 * fixed (source, target) limb pair: hatInv_i = (S/s_i)^-1 mod s_i and
 * hat_ij = (S/s_i) mod t_j, each with its beta = 2^64 Shoup
 * companion. The O(s^2 + s*t) scalar work happens once at
 * construction; the apply phase then performs only the O(s*t*n)
 * per-coefficient work:
 *
 *   y_i   = a_i * hatInv_i mod s_i   (skipped where hatInv_i == 1,
 *                                     e.g. every one-limb source)
 *   out_j = sum_i y_i * hat_ij mod t_j
 *
 * as one simd mulShoup plus one mulShoupAccum per further source row.
 * The Shoup product is canonical for any u64 input, so this equals
 * the u128 sum reduced by Modulus::reduce, bit for bit.
 */
class BaseConvPlan
{
  public:
    /** Source limbs must be distinct primes. */
    BaseConvPlan(const RnsTower &tower, std::vector<std::size_t> src,
                 std::vector<std::size_t> dst);

    /** Convert one Coeff-domain polynomial over the source limbs. */
    RnsPolynomial apply(const RnsPolynomial &a) const;

    /** Batched apply: one flattened (slot x limb) dispatch. */
    std::vector<RnsPolynomial>
    applyBatch(const std::vector<const RnsPolynomial *> &as,
               ThreadPool *pool = nullptr) const;

    /**
     * The conversion body. Source limb i of slot b is read in place
     * from as[b]->limb(srcOff + i) (those limbs must be the plan's
     * source limbs); target limb j is written to
     * outs[b]->limb(dstPos[j]) (which must carry target limb j).
     * Other output limbs are left untouched. The limbs read and
     * written hold coefficient-domain residues whatever the
     * polynomials' domain flags say: the evaluation-domain ModUp and
     * ModDown transform exactly the limbs they convert and keep the
     * rest in Eval. Multi-limb sources scale into a scratch buffer
     * owned by the calling thread and reused across calls; no call
     * allocates a limb-sized buffer once that scratch has grown.
     */
    void applyBatchInto(const std::vector<const RnsPolynomial *> &as,
                        std::size_t srcOff, RnsPolynomial *const *outs,
                        const std::vector<std::size_t> &dstPos,
                        ThreadPool *pool = nullptr) const;

    const std::vector<std::size_t> &sourceLimbs() const { return src_; }
    const std::vector<std::size_t> &targetLimbs() const { return dst_; }

  private:
    const RnsTower *tower_;
    std::vector<std::size_t> src_;
    std::vector<std::size_t> dst_;
    std::vector<u64> hatInv_;      ///< s entries
    std::vector<u64> hatInvShoup_; ///< s entries
    std::vector<u64> hat_;         ///< s x t, row i = source limb i
    std::vector<u64> hatShoup_;    ///< s x t, Shoup companions of hat_
};

/**
 * Phase-split ModUp: the union basis {q_0..q_{level}} + {p_0..p_{K-1}},
 * the copied-vs-converted limb layout, and the Conv factors for one
 * digit shape at one level, computed once and reused across every
 * hoisted rotation and batch slot. apply()/applyBatch() wrap
 * applyBatchInto and are bit-identical to modUp()/modUpBatch().
 */
class ModUpPlan
{
  public:
    ModUpPlan(const RnsTower &tower,
              std::vector<std::size_t> digit_limbs,
              std::size_t level_count);

    RnsPolynomial apply(const RnsPolynomial &digit) const;

    std::vector<RnsPolynomial>
    applyBatch(const std::vector<const RnsPolynomial *> &digits,
               ThreadPool *pool = nullptr) const;

    /**
     * ModUp into caller-provided outputs (preshaped to unionLimbs(),
     * Coeff domain): convertInto() and copyDigitInto() of whole
     * Coeff-domain digits. No intermediate polynomial.
     */
    void applyBatchInto(const std::vector<const RnsPolynomial *> &digits,
                        RnsPolynomial *const *outs,
                        ThreadPool *pool = nullptr) const;

    /*
     * The two halves of a ModUp, for inputs that carry the digit at
     * limbs [srcOff, srcOff + digit size) of a wider polynomial — the
     * exec::Dispatcher hoist reads every digit in place from one
     * Dcomp-scaled input. Outputs are preshaped to unionLimbs().
     */

    /** Copy the digit limbs verbatim, in whatever domain they are,
        to their union-basis slots. */
    void copyDigitInto(const std::vector<const RnsPolynomial *> &as,
                       std::size_t srcOff, RnsPolynomial *const *outs,
                       ThreadPool *pool = nullptr) const;

    /** Conv of the digit limbs, which must hold coefficient-domain
        residues, into every other union slot (convertedSlots()). */
    void convertInto(const std::vector<const RnsPolynomial *> &as,
                     std::size_t srcOff, RnsPolynomial *const *outs,
                     ThreadPool *pool = nullptr) const;

    const std::vector<std::size_t> &unionLimbs() const { return target_; }

    /** The union slots convertInto() writes, ascending. */
    const std::vector<std::size_t> &convertedSlots() const
    {
        return convPos_;
    }

  private:
    const RnsTower *tower_;
    std::vector<std::size_t> digit_limbs_;
    std::vector<std::size_t> target_;
    std::vector<std::size_t> copyPos_; ///< union slot of digit limb i
    std::vector<std::size_t> convPos_; ///< union slot of Conv target j
    BaseConvPlan conv_;
};

/**
 * Phase-split ModDown: the q/p limb split and the p->q Conv factors
 * plus -P^-1 (Shoup form) per remaining limb for one union basis.
 * Hoisted rotation tails share one plan across every step.
 * apply()/applyBatch() wrap applyBatchInto and are bit-identical to
 * modDown()/modDownBatch().
 */
class ModDownPlan
{
  public:
    /** `union_limbs` = active q-limbs followed by all special limbs. */
    ModDownPlan(const RnsTower &tower,
                const std::vector<std::size_t> &union_limbs);

    RnsPolynomial apply(const RnsPolynomial &a) const;

    std::vector<RnsPolynomial>
    applyBatch(const std::vector<const RnsPolynomial *> &as,
               ThreadPool *pool = nullptr) const;

    /**
     * ModDown into caller-provided outputs (preshaped to qLimbs(),
     * Coeff domain) — the exec::Workspace hook. The special limbs of
     * each input are converted in place straight into its output,
     * which is then finished in place:
     *   out_j = (conv_j - a_j) * (q_j - P^-1) = (a_j - conv_j) * P^-1.
     */
    void applyBatchInto(const std::vector<const RnsPolynomial *> &as,
                        RnsPolynomial *const *outs,
                        ThreadPool *pool = nullptr) const;

    /**
     * ModDown of Eval-domain inputs into caller-provided outputs
     * (preshaped to qLimbs(), returned in Eval). Only the K special
     * limbs need the coefficient domain, as the Conv source: they are
     * INTT'd in place, which consumes the inputs. The ql converted
     * limbs take one NTT, and the finish runs against the q-limbs
     * where they are, in Eval. The NTT is linear mod each q_j and
     * every value stays canonical, so this is bit-identical to
     * INTT -> applyBatchInto -> NTT, with ql fewer INTTs per input.
     */
    void applyEvalBatchInto(const std::vector<RnsPolynomial *> &as,
                            RnsPolynomial *const *outs,
                            ntt::NttVariant v, ThreadPool *pool) const;

    /** The surviving q-limbs (the outputs' limb set). */
    const std::vector<std::size_t> &qLimbs() const { return q_idx_; }

  private:
    bool matchesUnionBasis(const RnsPolynomial &a) const;

    /** out_j = (out_j - a_j) * -P^-1 = (a_j - conv_j) * P^-1 in
        place, both operands in one domain. */
    void finish(const std::vector<const RnsPolynomial *> &as,
                RnsPolynomial *const *outs, ThreadPool *pool) const;

    const RnsTower *tower_;
    std::vector<std::size_t> q_idx_;
    std::vector<std::size_t> p_idx_;
    std::vector<std::size_t> qPos_; ///< 0..ql-1: Conv target j -> out_j
    std::vector<u64> negPInv_;      ///< q_j - P^-1 mod q_j
    std::vector<u64> negPInvShoup_; ///< Shoup companions of negPInv_
    BaseConvPlan conv_; ///< p -> q
};

/**
 * Convert a Coeff-domain polynomial from its current basis to
 * `target_limbs`: out_j = sum_i [a_i * (S/s_i)^-1 mod s_i]
 * * (S/s_i mod t_j) (mod t_j). Source limbs must be distinct primes.
 */
RnsPolynomial fastBaseConv(const RnsPolynomial &a,
                           const std::vector<std::size_t> &target_limbs);

/**
 * Digit decomposition (Dcomp): split the first `active` limbs of `a`
 * into digits of at most `alpha` consecutive limbs.
 * Returns one Coeff-domain polynomial per digit, each carrying only
 * its digit's limbs.
 */
std::vector<RnsPolynomial> decomposeDigits(const RnsPolynomial &a,
                                           std::size_t alpha);

/**
 * ModUp: extend one digit to the union basis
 * {q_0..q_{level}} + {p_0..p_{K-1}}: digit limbs are copied, all
 * other limbs come from fastBaseConv.
 */
RnsPolynomial modUp(const RnsPolynomial &digit, std::size_t level_count);

/**
 * ModDown: given `a` over {q_0..q_l} + {p_*} (Coeff domain), return
 * round(a / P) over {q_0..q_l}:
 *   b_j = P^-1 * (a_j - Conv_{p->q}(a mod P)_j) mod q_j.
 */
RnsPolynomial modDown(const RnsPolynomial &a);

/**
 * Exact divide-and-round by the last limb's prime (the core of
 * RESCALE, paper Alg. 6): for j < last,
 *   out_j = q_last^-1 * (a_j - [a_last]_{q_j}) mod q_j
 * with a centered lift of the last limb. `a` must be Coeff domain.
 */
RnsPolynomial rescaleByLastLimb(const RnsPolynomial &a);

/*
 * Batched counterparts for operation-level batching (paper SIV-D/E).
 * Every input must carry the same limb set, so the O(s^2 + s*t) CRT
 * factors are computed once and shared by the whole batch, and the
 * per-coefficient work drains through the pool as one flattened
 * (slot x limb) dispatch. Each returns exactly what `batch` serial
 * calls would, bit for bit.
 */

/** Batched fastBaseConv. */
std::vector<RnsPolynomial>
fastBaseConvBatch(const std::vector<const RnsPolynomial *> &as,
                  const std::vector<std::size_t> &target_limbs,
                  ThreadPool *pool = nullptr);

/** Batched ModUp of one digit position across the batch. */
std::vector<RnsPolynomial>
modUpBatch(const std::vector<const RnsPolynomial *> &digits,
           std::size_t level_count, ThreadPool *pool = nullptr);

/** Batched ModDown. */
std::vector<RnsPolynomial>
modDownBatch(const std::vector<const RnsPolynomial *> &as,
             ThreadPool *pool = nullptr);

/**
 * Batched RESCALE core, in place: each polynomial becomes
 * rescaleByLastLimb of itself, written over its own first L-1 limbs
 * (so its buffer, and its capacity, are kept).
 */
void rescaleByLastLimbBatchInPlace(const std::vector<RnsPolynomial *> &as,
                                   ThreadPool *pool = nullptr);

/**
 * The batched RESCALE core in the evaluation domain, in place: each
 * Eval-domain polynomial becomes NTT(rescaleByLastLimb(INTT(a))), bit
 * for bit, with one INTT instead of L and L-1 NTTs. Only the last
 * limb is INTT'd (in place; it is dropped). Its centred lift into each
 * q_j is written to lifts[b]->limb(j) — caller scratch preshaped to
 * a's first L-1 limbs, any contents — and all lifts take one NTT
 * dispatch; then a_j = (a_j - lift_j) * q_last^-1 in Eval.
 */
void rescaleByLastLimbEvalBatchInPlace(
    const std::vector<RnsPolynomial *> &as, RnsPolynomial *const *lifts,
    ntt::NttVariant v, ThreadPool *pool = nullptr);

} // namespace tensorfhe::rns

#endif // TENSORFHE_RNS_CONV_HH
