/**
 * @file
 * ExecutionPlan: the immutable per-step schedule nn::Sequential::run
 * consumes. One step per layer of the compiled stack — user layers,
 * planner-inserted Bootstrap refreshes and LevelDrop alignments alike
 * — carrying the step's input/output metas, its modeled scalar work
 * (perf::CostModel::work of the layer's costAt at the step's input
 * level) and, for lazy bootstraps, the live-chunk mask. The plan is
 * built ONCE at compile time (by Sequential's unplanned in-order
 * walk or by the global planner) and never mutated: execution
 * replays it and checks every step's outcome against the recorded
 * meta.
 */

#ifndef TENSORFHE_PLAN_PLAN_HH
#define TENSORFHE_PLAN_PLAN_HH

#include <string>
#include <vector>

#include "nn/tensor.hh"

namespace tensorfhe::plan
{

/** One scheduled step (maps 1:1 onto the compiled layer stack). */
struct PlanStep
{
    enum class Kind
    {
        Layer,     ///< a user layer (matvec, pool, activation, ...)
        Bootstrap, ///< a refresh (planner-placed or hand-placed)
        LevelDrop  ///< planner-placed limb truncation (free)
    };

    Kind kind = Kind::Layer;
    std::string name;
    nn::TensorMeta in;
    nn::TensorMeta out;
    double work = 0.0; ///< modeled scalar work at the planned level
    /** Live chunks a lazy bootstrap refreshes (empty = all). */
    std::vector<bool> liveChunks;
};

/**
 * The immutable compiled schedule. `plannedWork` totals the steps'
 * modeled work; `greedyWork` is the same total for the planner's
 * greedy survey baseline of the same model (equal when the unplanned
 * in-order walk built the plan), so plannedWork <= greedyWork always
 * holds and greedyWork / plannedWork is the planner's modeled win.
 */
class ExecutionPlan
{
  public:
    ExecutionPlan() = default;
    ExecutionPlan(std::vector<PlanStep> steps, double greedy_work)
        : steps_(std::move(steps)), greedyWork_(greedy_work)
    {
        for (const auto &s : steps_)
            plannedWork_ += s.work;
    }

    const std::vector<PlanStep> &steps() const { return steps_; }
    double plannedWork() const { return plannedWork_; }
    double greedyWork() const { return greedyWork_; }

    std::size_t
    bootstrapCount() const
    {
        std::size_t n = 0;
        for (const auto &s : steps_)
            if (s.kind == PlanStep::Kind::Bootstrap)
                ++n;
        return n;
    }

    /** Human-readable per-step ledger (errors, logs, benches). */
    std::string summary() const;

  private:
    std::vector<PlanStep> steps_;
    double plannedWork_ = 0.0;
    double greedyWork_ = 0.0;
};

} // namespace tensorfhe::plan

#endif // TENSORFHE_PLAN_PLAN_HH
