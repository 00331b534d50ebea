/**
 * @file
 * Slim CKKS bootstrapping (paper Fig. 6):
 *   SlotToCoeff -> ModRaising -> CoeffToSlot -> Sine Evaluation,
 * restoring the multiplicative level budget of an exhausted
 * ciphertext. The DFT stages use the homomorphic linear transforms
 * of boot/linear.hh; the modular-reduction stage uses the shifted
 * cosine + double-angle sine of boot/sine.hh.
 *
 * CoeffToSlot hands the sine stage its two real streams with the
 * split of Chen, Chillotti and Song (Eurocrypt 2019): one BSGS
 * transform w = kappa U^-1 z, one conjugation of w on the
 * always-present conjugation key, t_u = w + conj w = 2 Re w and
 * t_v = -i (w - conj w) = 2 Im w. The -i is the integer monomial
 * +-X^{N/2} at scale 1, so its CMULT is exact and spends no level:
 * the stage costs the transform's one level and nothing more (the
 * kappa pre-scale is pure scale metadata).
 *
 * The refresh lands at a chosen level count, its landing: ModRaise
 * lifts onto exactly landing + postRaiseLevelCost() limbs, so
 * CoeffToSlot and the sine run on no more limbs than the layers
 * after the refresh need. The default landing is the highest the
 * chain allows (the whole chain is raised); the global planner
 * picks a lower one where the network after the refresh needs fewer
 * levels.
 *
 * Everything is batched: bootstrapBatch() refreshes a whole stream
 * of ciphertexts (batch slots x tensor chunks) through one shared
 * pipeline on a BatchedEvaluator — the shape nn::Sequential uses for
 * bootstrap-in-the-loop inference. One ciphertext is a one-element
 * batch.
 */

#ifndef TENSORFHE_BOOT_BOOTSTRAP_HH
#define TENSORFHE_BOOT_BOOTSTRAP_HH

#include <utility>

#include "boot/linear.hh"
#include "boot/sine.hh"

namespace tensorfhe::boot
{

/**
 * The exact -i of the CoeffToSlot split over `level_count` limbs: the
 * constant -i encoded at scale 1, which is the integer monomial
 * +-X^{N/2} (X^{N/2} takes one unit imaginary value at every slot
 * root). A CMULT by it is a negacyclic shift of both ciphertext
 * components: no noise, no level and no change of scale.
 */
ckks::Plaintext minusIMonomial(const ckks::CkksContext &ctx,
                               std::size_t level_count);

/**
 * CoeffToSlot with the sine stage's Re/Im split: w = M z by `c2s`,
 * one conjugation of w, then t_u = w + conj w = 2 Re w and
 * t_v = -i (w - conj w) = 2 Im w. Consumes the transform's one level;
 * `minus_i` is minusIMonomial at the transform's output level.
 * Returns (t_u, t_v).
 */
std::pair<std::vector<ckks::Ciphertext>, std::vector<ckks::Ciphertext>>
coeffToSlotSplit(const batch::BatchedEvaluator &beval,
                 const LinearTransformPlan &c2s,
                 const ckks::Plaintext &minus_i,
                 const std::vector<ckks::Ciphertext> &cts);

class Bootstrapper
{
  public:
    /**
     * Compiles the S2C / C2S plans; holds no key material.
     * bootstrapBatch() runs on any caller-provided BatchedEvaluator
     * whose keys cover requiredRotations(ctx.slots()) and
     * conjugation. `landing` is the output level count in
     * [1, maxLanding()]; 0 lands at maxLanding().
     */
    explicit Bootstrapper(const ckks::CkksContext &ctx,
                          SineConfig sine = {}, std::size_t landing = 0);

    /** Rotation steps bootstrap needs keys for. */
    static std::vector<s64> requiredRotations(std::size_t slots);

    /**
     * Refresh every ciphertext (any level >= 2, slots holding values
     * with |z| <~ 1) to a fresh one at the landing level count,
     * approximately preserving the slot values. The
     * batch rides the shared S2C / C2S programs and one power ladder
     * through the evaluator's (slot x tower) work-queue, so each slot
     * is bit-identical to a one-element batch. All inputs must share
     * one level and scale.
     */
    std::vector<ckks::Ciphertext>
    bootstrapBatch(const batch::BatchedEvaluator &beval,
                   const std::vector<ckks::Ciphertext> &cts) const;

    /** Stage 2: re-lift a level-1 ciphertext onto the raised chain
        (raisedLevelCount() limbs). */
    ckks::Ciphertext modRaise(const ckks::Ciphertext &ct) const;

    /** Levels C2S + sine + recombine consume below the raised chain
        (exact): raised = landing + postRaiseLevelCost(sine). */
    static std::size_t postRaiseLevelCost(const SineConfig &sine);

    /** The highest landing: the whole chain raised. */
    static std::size_t maxLanding(const ckks::CkksContext &ctx,
                                  const SineConfig &sine);

    /** Output level count of every refresh. */
    std::size_t landing() const { return landing_; }
    /** Limbs ModRaise lifts onto: landing() + postRaiseLevelCost. */
    std::size_t raisedLevelCount() const;

    /** The refreshed budget coordinates a bootstrap output lands at. */
    struct Refresh
    {
        std::size_t levelCount = 0;
        double scale = 0.0;
    };

    /**
     * Exact prediction of the output level and scale of a refresh of
     * an `input_level_count` ciphertext landing at `landing` (in
     * [1, maxLanding]), so budget planners (nn::Sequential's ledger)
     * can validate refreshed metas bit for bit. Independent of the
     * input scale: the recombine steers to this scale exactly.
     */
    static Refresh predictRefresh(const ckks::CkksContext &ctx,
                                  const SineConfig &sine,
                                  std::size_t input_level_count,
                                  std::size_t landing);

    /**
     * Exact executed-op counts of one bootstrap per ciphertext,
     * mirroring what the dispatch layer records (plan-derived BSGS
     * counts + the C2S split + the sine ladder + the recombine).
     */
    EvalOpCounts modeledOps() const;

    const SineConfig &sine() const { return sine_; }
    /** The compiled plans (for benches / conversion accounting). */
    const LinearTransformPlan &s2cPlan() const { return u_; }
    const LinearTransformPlan &c2sPlan() const { return c2s_; }

  private:
    const ckks::CkksContext &ctx_;
    SineConfig sine_;
    std::size_t landing_;
    /// BSGS plans: the special FFT (S2C) and kappa U^-1 (C2S); their
    /// encoded diagonal plaintexts are memoized here (built once per
    /// bootstrapper, shared by every bootstrap call).
    LinearTransformPlan u_;
    LinearTransformPlan c2s_;
    /// The split's -i: minusIMonomial at the C2S output level.
    ckks::Plaintext minusI_;
};

} // namespace tensorfhe::boot

#endif // TENSORFHE_BOOT_BOOTSTRAP_HH
