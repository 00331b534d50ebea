/**
 * @file
 * The CKKS evaluator: every operation of the paper's hierarchical
 * reconstruction (Table II, Algs. 1-6) — HADD, HSUB, CMULT, HMULT,
 * RESCALE, HROTATE, Conjugate — composed from the reusable kernels
 * (NTT, Hada-Mult, Ele-Add, Ele-Sub, FrobeniusMap, Conv).
 *
 * Since the unified-dispatch refactor this class is a thin batch-1
 * façade over exec::Dispatcher: it validates arguments and delegates
 * to the same span-kernel path batch::BatchedEvaluator uses, so the
 * serial and batched engines cannot drift — they are one
 * implementation. Results are bit-identical to the pre-refactor
 * serial evaluator (the kernels reorder work, never arithmetic).
 */

#ifndef TENSORFHE_CKKS_EVALUATOR_HH
#define TENSORFHE_CKKS_EVALUATOR_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ckks/ciphertext.hh"
#include "ckks/context.hh"
#include "exec/dispatch.hh"

namespace tensorfhe::ckks
{

/**
 * The reusable product of the expensive key-switch head (Halevi-Shoup
 * hoisting): the decomposed, Dcomp-scaled, ModUp-extended, NTT-domain
 * digits of one input polynomial. Because the Galois automorphism is
 * a pure slot permutation in the Eval domain, one hoist serves every
 * rotation step of the same input: each step pays only the digit
 * permutation, the key inner product, and ModDown — the Dcomp, ModUp
 * and forward-NTT work (the bulk of HROTATE, paper Fig. 11) is paid
 * once instead of once per rotation.
 */
struct HoistedDigits
{
    std::vector<rns::RnsPolynomial> digits; ///< Eval domain, union basis
    std::size_t levelCount = 0; ///< active q-limbs of the hoisted input
};

class Evaluator
{
  public:
    /**
     * @param keys must outlive the evaluator; rotation keys are
     *             looked up per step on demand.
     */
    Evaluator(const CkksContext &ctx, const KeyBundle &keys);

    /** Evaluator over an explicit key store (e.g. an on-demand
        ckks::KeyStore generating rotation keys lazily). */
    Evaluator(const CkksContext &ctx,
              std::shared_ptr<const KeyStore> store);

    /**
     * Façade over an existing dispatcher (shares its pool, workspace
     * arena and key store): batch::BatchedEvaluator uses this so its
     * scalar() view runs on the same engine instead of a duplicate.
     */
    Evaluator(const CkksContext &ctx,
              std::shared_ptr<exec::Dispatcher> disp);

    /** HADD (paper Alg. 5). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    /** Element-wise subtraction. */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    /** Ciphertext-plaintext addition (scales must match). */
    Ciphertext addPlain(const Ciphertext &a, const Plaintext &p) const;
    Ciphertext subPlain(const Ciphertext &a, const Plaintext &p) const;

    /** CMULT (paper Alg. 3): ciphertext x plaintext. */
    Ciphertext multiplyPlain(const Ciphertext &a,
                             const Plaintext &p) const;

    /** HMULT (paper Alg. 2): ciphertext x ciphertext + relin. */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b) const;

    /** HMULT followed by RESCALE. */
    Ciphertext multiplyRescale(const Ciphertext &a,
                               const Ciphertext &b) const;

    /** RESCALE (paper Alg. 6): drop the last limb, divide the scale. */
    Ciphertext rescale(const Ciphertext &a) const;

    /** Drop limbs without scaling (level alignment). */
    Ciphertext dropToLevelCount(const Ciphertext &a,
                                std::size_t level_count) const;

    /** HROTATE (paper Alg. 4): rotate slots left by `step`. */
    Ciphertext rotate(const Ciphertext &a, s64 step) const;

    /**
     * HROTATE by every step in `steps` off a single hoist: the
     * Dcomp+ModUp+NTT head runs once on a.c1 and is shared by all
     * steps; each step finishes with only the digit automorphism, the
     * inner product with its rotation key, and ModDown. Returns one
     * ciphertext per requested step (step 0 returns a copy of `a`).
     * Bit-identical to calling rotate() per step — rotate() routes
     * through the same phases.
     */
    std::vector<Ciphertext> rotateHoisted(
        const Ciphertext &a, const std::vector<s64> &steps) const;

    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext &a) const;

    /** Negate all slots. */
    Ciphertext negate(const Ciphertext &a) const;

    /** Multiply by a real constant (scales by the context scale). */
    Ciphertext multiplyConst(const Ciphertext &a, double c) const;

    /**
     * Multiply by a real constant and rescale so the result lands at
     * exactly `target_scale` (the plaintext scale is chosen as
     * target * q_last / a.scale). The standard way to keep parallel
     * branches addable despite unequal prime chains.
     */
    Ciphertext multiplyConstToScale(const Ciphertext &a, double c,
                                    double target_scale) const;

    /** Add a real constant to every slot. */
    Ciphertext addConst(const Ciphertext &a, double c) const;

    /**
     * KeySwitch (paper Alg. 1): Dcomp -> ModUp -> Inner-product ->
     * ModDown. Returns (ks0, ks1) with ks0 + ks1*s ~ d * target.
     * Exposed publicly because HMULT, HROTATE and Bootstrap all
     * reuse it, as in the paper's kernel reconstruction.
     *
     * Phase split (Halevi-Shoup hoisting): the procedure is composed
     * of two reusable halves —
     *   1. hoist(): Dcomp -> scale -> ModUp -> forward NTT. This is
     *      the expensive, key-independent head (all the Conv work and
     *      the digit-count x union-basis NTTs).
     *   2. keySwitchTail(): per-key inner product -> ModDown -> NTT.
     * keySwitch(d, key) == keySwitchTail(hoist(d), key) bit for bit;
     * rotateHoisted() runs one hoist() and many tails.
     */
    std::pair<rns::RnsPolynomial, rns::RnsPolynomial>
    keySwitch(const rns::RnsPolynomial &d, const SwitchKey &key) const;

    /** Phase 1 of keySwitch: the key-independent hoisted head. */
    HoistedDigits hoist(const rns::RnsPolynomial &d) const;

    /**
     * Phase 2 of keySwitch: inner product with `key` + ModDown.
     * @param down optional precomputed ModDown plan for the hoisted
     *             union basis; rotateHoisted shares one across steps.
     */
    std::pair<rns::RnsPolynomial, rns::RnsPolynomial>
    keySwitchTail(const HoistedDigits &h, const SwitchKey &key,
                  const rns::ModDownPlan *down = nullptr) const;

    /**
     * The unified execution layer this evaluator dispatches through
     * (batch = 1). boot::LinearTransformPlan and the batched engine
     * run their work on the same layer.
     */
    const exec::Dispatcher &dispatcher() const { return *disp_; }

  private:
    void requireCompatible(const Ciphertext &a,
                           const Ciphertext &b) const;

    const CkksContext &ctx_;
    std::shared_ptr<exec::Dispatcher> disp_; ///< copies share the arena
};

} // namespace tensorfhe::ckks

#endif // TENSORFHE_CKKS_EVALUATOR_HH
