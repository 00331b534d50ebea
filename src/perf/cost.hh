/**
 * @file
 * Roofline cost model for the reusable kernels and the CKKS
 * operations composed from them (paper Table II and Algs. 1-6).
 *
 * Costs mirror this repository's actual algorithms: the operation
 * compositions are the same code paths the evaluator executes, so a
 * change to the implementation is a change to the model.
 */

#ifndef TENSORFHE_PERF_COST_HH
#define TENSORFHE_PERF_COST_HH

#include <cstddef>

#include "ckks/params.hh"
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

/** Generalized key switching at the given active level count. */
KernelCost keySwitchCost(const ckks::CkksParams &p,
                         std::size_t level_count);

/**
 * Phase split of keySwitchCost (Halevi-Shoup hoisting, mirroring
 * Evaluator::hoist / keySwitchTail): the hoist is the key-independent
 * head (Dcomp INTT, per-digit Conv, the digit-count x union-basis
 * forward NTTs); the tail is the per-key remainder (inner product +
 * ModDown). keySwitchHoistCost + keySwitchTailCost == keySwitchCost.
 */
KernelCost keySwitchHoistCost(const ckks::CkksParams &p,
                              std::size_t level_count);
KernelCost keySwitchTailCost(const ckks::CkksParams &p,
                             std::size_t level_count);

/**
 * `rotations` HROTATEs of one input sharing a single hoisted head
 * (Evaluator::rotateHoisted): one hoist + per rotation the digit
 * FrobeniusMap, a key-switch tail, and the c0 permutation + add.
 */
KernelCost rotateHoistedCost(const ckks::CkksParams &p,
                             std::size_t level_count,
                             std::size_t rotations);

/**
 * BSGS slots x slots linear transform (boot::LinearTransformPlan,
 * DOUBLE-HOISTED): baby steps ride one hoisted head with raw
 * (ModDown-deferred) tails, diagonal products run on the extended
 * basis, each giant step pays a c1-only ModDown + its own head, and
 * one final ModDown pair + RESCALE closes the transform. Assumes all
 * `slots` diagonals populated at the classic root stride.
 */
KernelCost bsgsLinearTransformCost(const ckks::CkksParams &p,
                                   std::size_t level_count,
                                   std::size_t slots);

/**
 * Double-hoisted BSGS matvec with the plan's actual population
 * (nn::Dense / nn::Conv2d, and the stride chooser in
 * boot::LinearTransformPlan): `baby` raw-tail baby rotations off one
 * head, `giant` giant steps (c1 ModDown + head-2 + raw tail each),
 * one extended-basis CMULT + HADD per populated diagonal, one final
 * ModDown pair + RESCALE. bsgsLinearTransformCost is the
 * fully-populated instance.
 */
KernelCost matvecBsgsCost(const ckks::CkksParams &p,
                          std::size_t level_count,
                          std::size_t diagonals, std::size_t baby,
                          std::size_t giant);

/**
 * Block BSGS matvec for ONE output chunk of a multi-ciphertext
 * tensor (nn::MatvecLayer through exec::Dispatcher::applyBsgsSum):
 * `blocks` per-input-chunk accumulations — each paying its own
 * head-1 — with `diagonals` / `baby` / `giant` TOTALS across the
 * blocks, all sharing a single final ModDown pair + RESCALE. The
 * single-block instance equals matvecBsgsCost.
 */
KernelCost blockMatvecBsgsCost(const ckks::CkksParams &p,
                               std::size_t level_count,
                               std::size_t blocks,
                               std::size_t diagonals,
                               std::size_t baby, std::size_t giant);

/**
 * One slim bootstrap of a single ciphertext: SlotToCoeff at the
 * root-stride BSGS population, the two FUSED CoeffToSlot split
 * transforms (plain + conjugate branches off one head each), two
 * Taylor + double-angle sine evaluations of the given shape, and the
 * recombine. Each stage is billed at the level it actually runs at —
 * SlotToCoeff at `input_lc` (the only stage whose cost varies with
 * bootstrap placement), the fused CoeffToSlot pair at `raised_lc`
 * (the post-ModRaise tower), the sine ladder at its entry level
 * `raised_lc - 1`, and the recombine just above the refreshed output
 * `output_lc`. This is the entry nn::Bootstrap::costAt and the
 * global planner query when weighing bootstrap placement against
 * level drops.
 */
KernelCost bootstrapStagedCost(const ckks::CkksParams &p,
                               std::size_t input_lc,
                               std::size_t raised_lc,
                               std::size_t output_lc,
                               std::size_t slots,
                               std::size_t taylor_terms,
                               std::size_t doublings);

/**
 * Whether summing m-1 rotations off one hoist beats the log2(m)
 * doubling fold (the schedule decision of the LR gradient folds and
 * nn::SumReduce). At deep chains the shared head wins; at shallow
 * chains the extra tails outweigh the saved heads.
 */
bool hoistedFoldWins(const ckks::CkksParams &p, std::size_t level_count,
                     std::size_t m);

/** m-element rotate-fold under the chosen schedule. */
KernelCost rotateFoldCost(const ckks::CkksParams &p,
                          std::size_t level_count, std::size_t m,
                          bool hoisted);

/**
 * Power-ladder polynomial activation (nn::PolyActivation): `powers`
 * HMULT+RESCALE pairs building the monomial ladder, `terms`
 * coefficient CMULT+RESCALE steerings, and the term-sum HADDs.
 */
KernelCost polyActivationCost(const ckks::CkksParams &p,
                              std::size_t level_count,
                              std::size_t powers, std::size_t terms);

/** The five Table II operations (+ conjugate). */
enum class OpKind
{
    HMult,
    CMult,
    HAdd,
    HRotate,
    Rescale,
    Conjugate
};

const char *opKindName(OpKind k);

KernelCost opCost(OpKind op, const ckks::CkksParams &p,
                  std::size_t level_count);

/** Share of an operation's core work spent inside NTT kernels. */
double nttShare(OpKind op, const ckks::CkksParams &p,
                std::size_t level_count);

} // namespace tensorfhe::perf

#endif // TENSORFHE_PERF_COST_HH
