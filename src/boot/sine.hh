/**
 * @file
 * Homomorphic sine evaluation (the Sine Evaluation stage of paper
 * Fig. 6) as a shifted cosine, after Han and Ki (CT-RSA 2020):
 * sin(2^r t) = cos(2^r (t - pi/2^(r+1))), so the stage adds the
 * constant shift, evaluates C = 2 cos on an even Taylor polynomial
 * (the paper's Taylor approximation [8]) of the range-reduced
 * argument, and doubles it r times with 2 cos 2x = (2 cos x)^2 - 2:
 * one HMULT per doubling, where the sin/cos pair needs two.
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
     * Taylor terms of the cosine, counting the constant (7 = degree
     * 12 on a depth-4 power ladder, accurate to ~7e-7 on
     * |arg| <= 2.2).
     */
    int taylorTerms = 7;
    /**
     * Double-angle steps. Each step squares C, so an error e in C
     * leaves the step as ~2|C|e <= 4e: fewer doublings and a
     * higher-degree Taylor is the better precision trade (see
     * tests/boot).
     */
    int doublings = 4;
};

/** Exact levels evalScaledSine consumes from its input level (pure
    function of the ladder shape; budget planners mirror this). */
std::size_t sineLevelsUsed(const SineConfig &cfg);

/**
 * Given cts whose slots hold real t (|t| <= ~2 after the caller's
 * pre-scaling by 1/2^doublings), return cts' with slots
 * 2 sin(t * 2^doublings). All inputs must share one level and
 * scale; all outputs share the level sineLevelsUsed(cfg) below it
 * and one scale, which is the input-independent product of the
 * doublings' squarings and rescales from the context scale (the
 * caller's next constant product steers it where it must land).
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
