/**
 * @file
 * Homomorphic sine evaluation (the Sine Evaluation stage of paper
 * Fig. 6): Taylor polynomials for sin and cos on a range-reduced
 * argument, then double-angle reconstruction, following the paper's
 * Taylor-approximation approach [8] with the standard double-angle
 * range reduction.
 *
 * The evaluation is batched: the whole stream of ciphertexts (batch
 * slots x tensor chunks inside a bootstrap-in-the-loop inference)
 * rides the BatchedEvaluator's (slot x tower) work-queue through one
 * shared power ladder. Serial callers pass a one-element batch.
 */

#ifndef TENSORFHE_BOOT_SINE_HH
#define TENSORFHE_BOOT_SINE_HH

#include "batch/executor.hh"
#include "ckks/crypto.hh"

namespace tensorfhe::boot
{

struct SineConfig
{
    /**
     * Taylor terms beyond the constant (6 = degree-11 sin, degree-10
     * cos, accurate to ~5e-6 on |arg| <= 2.2).
     */
    int taylorTerms = 6;
    /**
     * Double-angle steps. Each step multiplies accumulated noise by
     * ~4, so fewer doublings + a higher-degree Taylor is the better
     * precision trade (see tests/boot).
     */
    int doublings = 4;
};

/** Exact levels evalScaledSine consumes from its input level (pure
    function of the ladder shape; budget planners mirror this). */
std::size_t sineLevelsUsed(const SineConfig &cfg);

/**
 * Given cts whose slots hold real t (|t| <= ~1 after the caller's
 * pre-scaling by 1/2^doublings), return cts' with slots
 * sin(t * 2^doublings), each at exactly the context scale. All
 * inputs must share one level and scale.
 */
std::vector<ckks::Ciphertext>
evalScaledSine(const ckks::CkksContext &ctx,
               const batch::BatchedEvaluator &beval,
               const std::vector<ckks::Ciphertext> &ct_t,
               const SineConfig &cfg);

/** Exact executed-op counts of one evalScaledSine per batch slot. */
EvalOpCounts sineModeledOps(const SineConfig &cfg);

} // namespace tensorfhe::boot

#endif // TENSORFHE_BOOT_SINE_HH
