/**
 * @file
 * Roofline cost model for the reusable kernels and the CKKS
 * operations composed from them (paper Table II and Algs. 1-6).
 *
 * Costs mirror this repository's actual algorithms: the operation
 * compositions are the same code paths the evaluator executes, so a
 * change to the implementation is a change to the model.
 *
 * The five kernel rooflines are free functions of a polynomial shape.
 * Every operation is priced by one queryable, level-parameterized
 * object, CostModel, at an EXPLICIT level count, never at "the
 * context's current level": the global execution planner (src/plan)
 * asks "what would this layer cost if its input arrived at L limbs?"
 * for every candidate L, so the same entry must be evaluable anywhere
 * on the ladder. The model also owns the BSGS giant-stride decision
 * (chooseBsgsStride) so that the planner's predicted stride and
 * boot::LinearTransformPlan's compiled stride are one procedure — a
 * plan is costed with exactly the schedule execution will run.
 */

#ifndef TENSORFHE_PERF_COST_MODEL_HH
#define TENSORFHE_PERF_COST_MODEL_HH

#include <cstddef>
#include <vector>

#include "ckks/params.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tensorfhe::perf
{

/** Abstract work of one kernel invocation (batch = 1). */
struct KernelCost
{
    double bytes = 0;    ///< DRAM traffic
    double coreOps = 0;  ///< CUDA-core integer ops (modmul = 6 ops)
    double tcuMacs = 0;  ///< INT8 tensor-core MACs
    double launches = 0; ///< kernel launches (fixed overhead each)

    KernelCost &
    operator+=(const KernelCost &o)
    {
        bytes += o.bytes;
        coreOps += o.coreOps;
        tcuMacs += o.tcuMacs;
        launches += o.launches;
        return *this;
    }

    friend KernelCost
    operator*(double k, const KernelCost &c)
    {
        return {k * c.bytes, k * c.coreOps, k * c.tcuMacs,
                k * c.launches};
    }

    friend KernelCost
    operator+(KernelCost a, const KernelCost &b)
    {
        a += b;
        return a;
    }
};

/** Integer-op weights of the primitive modular operations. */
constexpr double kOpsPerModMul = 6.0; ///< Barrett/Shoup sequence
constexpr double kOpsPerModAdd = 1.5;
constexpr double kBytesPerResidue = 4.0; ///< 32-bit RNS residues

/** NTT of `limbs` polynomials of length n, by engine variant. */
KernelCost nttCost(std::size_t n, std::size_t limbs,
                   ntt::NttVariant variant);

KernelCost hadaMultCost(std::size_t n, std::size_t limbs);
KernelCost eleAddCost(std::size_t n, std::size_t limbs);
KernelCost frobeniusCost(std::size_t n, std::size_t limbs);

/** Fast basis conversion src -> dst limbs. */
KernelCost convCost(std::size_t n, std::size_t src_limbs,
                    std::size_t dst_limbs);

/** A chosen BSGS stride and the population it induces. */
struct StrideChoice
{
    std::size_t g = 0;     ///< giant stride
    std::size_t baby = 0;  ///< distinct nonzero baby steps
    std::size_t giant = 0; ///< distinct nonzero giant steps
    KernelCost cost;       ///< matvec cost at the queried level
};

class CostModel
{
  public:
    explicit CostModel(ckks::CkksParams p) : p_(std::move(p)) {}

    const ckks::CkksParams &
    params() const
    {
        return p_;
    }

    /**
     * Scalarize a KernelCost for comparisons: CUDA-core ops, TCU
     * MACs at 8 per core-op-equivalent, and DRAM bytes. The single
     * work() definition every argmin in this repository uses
     * (hoistedFoldWins, the stride chooser, the planner DP).
     */
    static double
    work(const KernelCost &c)
    {
        return c.coreOps + c.tcuMacs / 8.0 + c.bytes;
    }

    /**
     * One executed operation. KsHoist and KsTail are the phase split
     * of keySwitch (Halevi-Shoup hoisting, mirroring
     * exec::Dispatcher::hoist / keySwitchTail): the hoist is the
     * key-independent head (Dcomp INTT, per-digit Conv, the
     * digit-count x union-basis forward NTTs); the tail is the
     * per-key remainder (inner product + ModDown).
     */
    KernelCost op(EvalOpKind kind, std::size_t level_count) const;

    /** Share of an operation's core work spent inside NTT kernels;
        defined for the six Table II kinds. */
    double nttShare(EvalOpKind kind, std::size_t level_count) const;

    /** Generalized key switching: op(KsHoist) + op(KsTail). */
    KernelCost keySwitch(std::size_t level_count) const;

    /**
     * `rotations` HROTATEs of one input sharing a single hoisted head
     * (exec::Dispatcher::rotateMany): one hoist + per rotation the
     * digit FrobeniusMap, a key-switch tail, and the c0 permutation + add.
     */
    KernelCost rotateHoisted(std::size_t level_count,
                             std::size_t rotations) const;

    /**
     * BSGS slots x slots linear transform (boot::LinearTransformPlan,
     * DOUBLE-HOISTED): baby steps ride one hoisted head with raw
     * (ModDown-deferred) tails, diagonal products run on the extended
     * basis, each giant step pays a c1-only ModDown + its own head,
     * and one final ModDown pair + RESCALE closes the transform.
     * Assumes all `slots` diagonals populated at the classic root
     * stride.
     */
    KernelCost bsgsLinearTransform(std::size_t level_count,
                                   std::size_t slots) const;

    /**
     * Double-hoisted BSGS matvec with the plan's actual population
     * (nn::Dense / nn::Conv2d, and chooseBsgsStride): `baby` raw-tail
     * baby rotations off one head, `giant` giant steps (c1 ModDown +
     * head-2 + raw tail each), one extended-basis CMULT + HADD per
     * populated diagonal, one final ModDown pair + RESCALE.
     * bsgsLinearTransform is the fully-populated instance.
     */
    KernelCost matvec(std::size_t level_count, std::size_t diagonals,
                      std::size_t baby, std::size_t giant) const;

    /**
     * Block BSGS matvec for ONE output chunk of a multi-ciphertext
     * tensor (nn::MatvecLayer through exec::Dispatcher::applyBsgsSum):
     * `blocks` per-input-chunk accumulations — each paying its own
     * head-1 — with `diagonals` / `baby` / `giant` TOTALS across the
     * blocks, all sharing a single final ModDown pair + RESCALE. The
     * single-block instance equals matvec.
     */
    KernelCost blockMatvec(std::size_t level_count, std::size_t blocks,
                           std::size_t diagonals, std::size_t baby,
                           std::size_t giant) const;

    /**
     * One slim bootstrap of a single ciphertext: SlotToCoeff at the
     * root-stride BSGS population, CoeffToSlot (one transform of the
     * same shape, then the conjugation and exact -i Re/Im split), two
     * shifted-cosine sine evaluations of the given shape, and the
     * recombine. Each stage is billed at the level it actually
     * runs at — SlotToCoeff at `input_lc` (the stage whose cost
     * varies with bootstrap placement), CoeffToSlot at `raised_lc`
     * (the post-ModRaise tower, which follows the landing), the sine
     * ladder at its entry level `raised_lc - 1`, and the recombine
     * just above the refreshed output `output_lc`. This is the entry
     * nn::Bootstrap::costAt and the global planner query when
     * weighing bootstrap placement and landing against level drops.
     */
    KernelCost bootstrap(std::size_t input_lc, std::size_t raised_lc,
                         std::size_t output_lc, std::size_t slots,
                         std::size_t taylor_terms,
                         std::size_t doublings) const;

    /**
     * Whether summing m-1 rotations off one hoist beats the log2(m)
     * doubling fold (the schedule decision of the LR gradient folds
     * and nn::SumReduce). At deep chains the shared head wins; at
     * shallow chains the extra tails outweigh the saved heads.
     */
    bool hoistedFoldWins(std::size_t level_count, std::size_t m) const;

    /** m-element rotate-fold under the schedule the executor would
        pick at this level (hoistedFoldWins). */
    KernelCost
    rotateFold(std::size_t level_count, std::size_t m) const
    {
        return rotateFold(level_count, m,
                          hoistedFoldWins(level_count, m));
    }

    /** m-element rotate-fold under an explicit schedule. */
    KernelCost rotateFold(std::size_t level_count, std::size_t m,
                          bool hoisted) const;

    /**
     * Power-ladder polynomial activation (nn::PolyActivation):
     * `powers` HMULT+RESCALE pairs building the monomial ladder,
     * `terms` coefficient CMULT+RESCALE steerings, and the term-sum
     * HADDs.
     */
    KernelCost polyActivation(std::size_t level_count,
                              std::size_t powers,
                              std::size_t terms) const;

    /**
     * Pick the BSGS giant stride for a diagonal population at an
     * explicit level. Candidates are the classic root stride,
     * powers of two above it, and `slots` itself (the all-baby
     * schedule: every diagonal rides the single hoisted head, zero
     * giant ModDowns). With `restrict_to_root_pattern` set, a
     * non-root stride must keep every rotation step inside the
     * root-based key grant (babies < root, giants multiples of
     * root) — required when keys were pre-generated analytically;
     * keys generated for the plan's own steps lift the restriction
     * and let the truly cheapest stride win. Ties keep the smaller
     * stride.
     */
    StrideChoice chooseBsgsStride(std::size_t level_count,
                                  const std::vector<std::size_t> &diag_idx,
                                  std::size_t slots,
                                  bool restrict_to_root_pattern) const;

  private:
    /** The key-switching decomposition at one level count. */
    struct Decomp
    {
        std::size_t k;          ///< special limbs
        std::size_t alpha;      ///< limbs per digit
        std::size_t digits;     ///< ceil(level_count / alpha)
        std::size_t unionLimbs; ///< level_count + k
    };
    Decomp decomp(std::size_t level_count) const;

    /** The classic BSGS root stride, ceil(sqrt(slots)). */
    static std::size_t rootStride(std::size_t slots);

    /**
     * The inner-product-only ("raw") key-switch tail of the
     * double-hoisted path: the per-digit fused mul-accumulate on the
     * union basis, with NO ModDown and no domain moves — those are
     * deferred to the giant steps / the final ModDown.
     */
    KernelCost rawTail(std::size_t level_count) const;

    /** The hoist of a Coeff-domain input: the per-digit Conv +
        union-basis NTT work, added onto `c` (op(KsHoist) passes the
        Dcomp INTT it pays first). */
    KernelCost hoistFromCoeff(std::size_t level_count,
                              KernelCost c = {}) const;

    /** One ModDown of a single polynomial (c1-only giant-step
        variant): INTT of the union basis, the p->q Conv, and the
        P^-1 fixup. */
    KernelCost modDownOne(std::size_t level_count) const;

    /** One shifted-cosine sine evaluation priced at `lc` (mirrors
        boot::sineModeledOps): the even Taylor ladder, coefficient
        steerings and one square per double-angle step, each HMULT
        relinearizing once. */
    KernelCost sineEval(std::size_t lc, std::size_t taylor_terms,
                        std::size_t doublings) const;

    /** CoeffToSlot at `lc` with the sine-stage split: one
        root-stride transform, then at its output level `lc - 1` one
        conjugation, w + conj w, w - conj w and the exact -i CMULT. */
    KernelCost coeffToSlot(std::size_t lc, std::size_t slots) const;

    /** Recombine at `lc`: two CMULTs, one HADD, one RESCALE. */
    KernelCost recombine(std::size_t lc) const;

    ckks::CkksParams p_;
};

} // namespace tensorfhe::perf

#endif // TENSORFHE_PERF_COST_MODEL_HH
