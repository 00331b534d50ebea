/**
 * @file
 * Homomorphic linear transforms over slot vectors — the machinery of
 * SlotToCoeff and CoeffToSlot (paper Fig. 6).
 *
 * Key observation used here: with this library's packing (coeff j =
 * Re slot_j, coeff j+N/2 = Im slot_j, connected by the special FFT),
 * the slot-to-coeff map *in slot space* is exactly the special FFT
 * matrix, and coeff-to-slot its inverse — both C-linear, applied by
 * the diagonal method with HROTATE + CMULT.
 *
 * Evaluation goes through LinearTransformPlan, which compiles the
 * matrix into an exec::BsgsProgram executed by the unified dispatch
 * layer with DOUBLE HOISTING:
 *   - head-1: one hoisted key-switch head serves every baby-step
 *     rotation, and the baby tails stay on the extended QP basis
 *     (their ModDown is deferred);
 *   - the diagonal products and giant-group sums accumulate on QP
 *     (diagonals are encoded over the union basis, cached per level);
 *   - head-2: each nonzero giant step pays one c1-only ModDown plus
 *     its own hoisted head, and ONE final ModDown pair + RESCALE
 *     closes the transform.
 * The giant stride g is chosen by perf::CostModel::chooseBsgsStride
 * over the plan's actual diagonal population, so the hoist/ModUp
 * count drops versus the classic sqrt-stride schedule (baby steps
 * became cheap).
 */

#ifndef TENSORFHE_BOOT_LINEAR_HH
#define TENSORFHE_BOOT_LINEAR_HH

#include <map>
#include <mutex>
#include <vector>

#include "ckks/crypto.hh"
#include "common/stats.hh"
#include "exec/dispatch.hh"

namespace tensorfhe::batch
{
class BatchedEvaluator;
}

namespace tensorfhe::boot
{

using ckks::Complex;

/** Dense slots x slots complex matrix. */
using SlotMatrix = std::vector<std::vector<Complex>>;

/** The special-FFT matrix U (slot -> coeff packing map). */
SlotMatrix specialFftMatrix(const ckks::CkksEncoder &encoder);

/** Its inverse (coeff -> slot). */
SlotMatrix specialFftInverseMatrix(const ckks::CkksEncoder &encoder);

/** Plain reference: y = M z. */
std::vector<Complex> applyPlain(const SlotMatrix &m,
                                const std::vector<Complex> &z);

/**
 * How LinearTransformPlan picks its BSGS giant stride (see
 * perf::CostModel::chooseBsgsStride, the single decision procedure
 * the plan, the cost model, and the execution planner share).
 */
struct StrideOptions
{
    /**
     * Level count the stride argmin prices candidates at; 0 means
     * the full tower (the historical behavior — correct for plans
     * applied near the top, pessimistic for plans the planner will
     * run deep in the ladder).
     */
    std::size_t costingLevel = 0;
    /**
     * Keep every rotation step inside the root-based key pattern
     * (babies < root, giants multiples of root) so analytic
     * pre-generated key bundles always cover the plan. Planner-built
     * nets generate keys for their own requiredRotations() and clear
     * this, freeing the argmin to pick e.g. the all-baby g = slots
     * schedule.
     */
    bool restrictToRootPattern = true;
};

/**
 * A precompiled homomorphic linear transform y = M z.
 *
 * Construction extracts the nonzero diagonals of M, picks the BSGS
 * giant stride g by the double-hoisted cost model, and regroups:
 * diagonal d = k*g + b is stored pre-rotated by -k*g so that
 *   y = sum_k rot_{k*g}( sum_b diag'_{k,b} (had) rot_b(z) ).
 * applyBatch() hands the compiled exec::BsgsProgram to the unified
 * dispatch layer, which runs it double-hoisted: about sqrt(slots)
 * raw key-switch tails off one head plus O(slots/g) giant heads, and
 * a single final ModDown, in place of the naive slots-1 full
 * keyswitches (and of the ~2*sqrt(slots) ModDowns of the
 * single-hoisted schedule).
 *
 * The encoded diagonal plaintexts (extended to the key-switch union
 * basis for the QP-domain products) are memoized per ciphertext
 * level inside the plan. The dense matrix itself is not kept: the
 * plan holds only its nonzero diagonals. applyBatch() consumes one
 * multiplicative level.
 */
class LinearTransformPlan
{
  public:
    LinearTransformPlan(const ckks::CkksContext &ctx, SlotMatrix m);

    /**
     * Plan with an explicit stride policy (the planner's entry) and
     * optional closing folds: each fold step f adds rot_f of the
     * transform's output onto itself after the final ModDown pair and
     * before the RESCALE (a wide nn matvec sums its row copies this
     * way). Folds are not BSGS steps: the stride policy ignores them.
     */
    LinearTransformPlan(const ckks::CkksContext &ctx, SlotMatrix m,
                        const StrideOptions &opt,
                        std::vector<s64> fold_steps = {});

    /** Plan for the special FFT matrix U (SlotToCoeff). */
    static LinearTransformPlan specialFft(const ckks::CkksContext &ctx);
    /**
     * Plan for factor * U^-1 (CoeffToSlot). The bootstrapper folds
     * the fixed part of the sine pre-scale kappa into `factor`.
     */
    static LinearTransformPlan
    specialFftInverse(const ckks::CkksContext &ctx, double factor = 1.0);

    /**
     * Homomorphic y = M z over a batch: every ciphertext rides the
     * same double-hoisted program through the unified dispatch layer,
     * flattened over (batch-slot x tower), so each slot is
     * bit-identical to a one-element batch. Consumes one level and
     * requires rotation keys for every step in requiredRotations().
     */
    std::vector<ckks::Ciphertext>
    applyBatch(const batch::BatchedEvaluator &beval,
               const std::vector<ckks::Ciphertext> &cts) const;

    /** Rotation steps applyBatch() needs plain keys for (baby, giant
        and fold steps). */
    std::vector<s64> requiredRotations() const;

    /** Giant stride g (cost-model-chosen); baby steps span [0, g). */
    std::size_t giantStride() const { return g_; }
    /** Nonzero diagonals the transform touches. */
    std::size_t diagonalCount() const { return diags_.size(); }
    /**
     * Sorted distinct diagonal indices d = k*g + b — the population
     * the stride argmin ran on. The planner re-runs chooseBsgsStride
     * on these to price the SAME transform at other levels without
     * recompiling the plan.
     */
    std::vector<std::size_t> diagonalIndices() const;
    /** Distinct nonzero baby steps the transform rotates by. */
    std::size_t babyStepCount() const { return babySteps_.size(); }
    /** Distinct nonzero giant steps the transform rotates by. */
    std::size_t giantStepCount() const { return giantSteps_.size(); }
    /** Giant groups, counting the unshifted (k = 0) one. */
    std::size_t groupCount() const { return groupCount_; }
    /** Closing rotate-and-add fold steps, in execution order. */
    const std::vector<s64> &foldSteps() const { return folds_; }
    /** Levels with a cached encoded-diagonal set (for tests). */
    std::size_t cachedLevelCount() const;

    /**
     * The exact executed-op counts of one transform per batch slot,
     * mirroring what exec::Dispatcher::applyBsgs records. modeled-
     * AccumOps() is the share one accumulation contributes inside an
     * applyBsgsSum (counting the inter-group HAdd for EVERY group);
     * a standalone apply is accum minus the first group's HAdd plus
     * the closing folds and the single final RESCALE.
     */
    EvalOpCounts modeledAccumOps() const;
    EvalOpCounts modeledApplyOps() const;
    /** The closing folds' share, paid once per output: one hoisted
        HROTATE (head + tail) and one HADD per fold step. */
    EvalOpCounts modeledFoldOps() const;

    /**
     * Compile the cached diagonals into the exec program for one
     * ciphertext level (pointers into the per-level cache; the plan
     * must outlive the program). Exposed so block matvecs can hand
     * several plans to exec::Dispatcher::applyBsgsSum.
     */
    exec::BsgsProgram program(std::size_t level_count) const;

  private:
    /** One nonzero diagonal d = k*g + b, pre-rotated by -k*g. */
    struct Diagonal
    {
        std::size_t k;
        std::size_t b;
        std::vector<Complex> values;
    };

    const std::vector<ckks::Plaintext> &
    encodedDiagonals(std::size_t level_count) const;

    const ckks::CkksContext &ctx_;
    std::size_t g_ = 0;
    std::size_t groupCount_ = 0;
    std::vector<Diagonal> diags_;       ///< sorted by (k, b)
    std::vector<s64> babySteps_;        ///< distinct nonzero b
    std::vector<s64> giantSteps_;       ///< distinct nonzero k*g
    std::vector<s64> folds_;            ///< closing fold steps
    mutable std::mutex mu_;
    /// Per-level encoded diagonals, union-basis, aligned with diags_.
    mutable std::map<std::size_t, std::vector<ckks::Plaintext>> cache_;
};

} // namespace tensorfhe::boot

#endif // TENSORFHE_BOOT_LINEAR_HH
