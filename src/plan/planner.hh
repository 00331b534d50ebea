/**
 * @file
 * The global execution planner (docs/PLANNER.md): given a layer
 * stack and an input meta, choose bootstrap placement, level drops
 * and per-layer input levels to minimize total modeled work, by
 * exact dynamic programming over (gap index, level count) states
 * against perf::CostModel.
 *
 * The search space per gap (the point just before each user layer):
 *   - run the layer at the current level L;
 *   - drop to any L' < L first (free — limb truncation), then run:
 *     key-switch work scales ~quadratically in limbs, so running the
 *     tail of a network far below the bootstrap refresh level is the
 *     planner's main win;
 *   - bootstrap (L >= 2), landing at the exact refresh level of
 *     boot::Bootstrapper::predictRefresh — the SAME mirror
 *     nn::Bootstrap::compile trusts — optionally followed by a drop.
 *     At most one bootstrap per gap (two in a row is never cheaper).
 * Bootstrap cost is priced per live chunk: a backward liveness walk
 * (Layer::liveInputChunks) finds chunks no downstream layer reads,
 * and the planner's Bootstrap layers skip refreshing them
 * (nn::Bootstrap::setLiveChunks).
 *
 * The planner first surveys the greedy baseline — an in-order walk
 * that refreshes just before any layer the running budget cannot
 * cover — to compile every layer once and price that schedule, then
 * searches, then REBUILDS the stack at the planned levels: layers
 * are rebound (Layer::rebind) at their planned input metas, with
 * matvec layers switched to planner strides (level-priced argmin, no
 * root-pattern key restriction — rotation keys are generated for the
 * rebuilt stack's requiredRotations()). The planner is the only code that
 * places Bootstrap and LevelDrop layers; hand-placed ones belong to
 * unplanned stacks.
 */

#ifndef TENSORFHE_PLAN_PLANNER_HH
#define TENSORFHE_PLAN_PLANNER_HH

#include <memory>
#include <vector>

#include "nn/layers.hh"
#include "plan/plan.hh"

namespace tensorfhe::plan
{

/**
 * The planner always re-chooses BSGS strides per planned level with
 * the root-pattern key restriction lifted (generate the bundle from
 * the compiled net's requiredRotations() — analytic bundles may not
 * cover the chosen steps), refreshes only chunks live downstream at
 * each bootstrap, and leaves >= 1 limb after the last layer.
 */
struct PlannerOptions
{
    /** Sine approximation of planner-placed bootstraps. */
    boot::SineConfig sine;
};

/** The planner's product: the rebuilt stack plus its schedule. */
struct PlanResult
{
    std::vector<std::unique_ptr<nn::Layer>> stack;
    ExecutionPlan plan;
    nn::TensorMeta output;
};

/**
 * Plan `layers` (the user stack, in order, not yet compiled) against
 * `input`. Consumes the layers: they are surveyed (greedy-compiled),
 * then rebound at their planned levels and returned inside the
 * result stack interleaved with planner-inserted Bootstrap /
 * LevelDrop layers. Throws std::invalid_argument naming the layer
 * when the stack already holds a Bootstrap or LevelDrop (the DP
 * prices every user layer as a plain level consumer), and
 * common::BudgetError with the best plan found and the first
 * infeasible layer when no placement fits the chain. Emits trace
 * spans per phase ("plan" category) and plan.* metrics counters
 * (candidates explored, plans pruned, chosen vs greedy cost).
 */
PlanResult planSequential(const ckks::CkksContext &ctx,
                          std::vector<std::unique_ptr<nn::Layer>> layers,
                          const nn::TensorMeta &input,
                          const PlannerOptions &opts);

} // namespace tensorfhe::plan

#endif // TENSORFHE_PLAN_PLANNER_HH
