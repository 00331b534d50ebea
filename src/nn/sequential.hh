/**
 * @file
 * Sequential: the nn model runner. Owns a layer stack, compiles it
 * against an input TensorMeta (propagating shape/layout/level/scale
 * and validating every layer's multiplicative budget at compile time,
 * before any key is generated or ciphertext touched), surfaces the
 * union rotation-key requirement of every layer, lowers the compiled
 * stack once into a kernel graph, and runs encrypted batches through
 * graph::GraphExecutor, which checks every node output against its
 * compiled level and scale.
 */

#ifndef TENSORFHE_NN_SEQUENTIAL_HH
#define TENSORFHE_NN_SEQUENTIAL_HH

#include <memory>

#include "graph/executor.hh"
#include "nn/layers.hh"
#include "plan/planner.hh"

namespace tensorfhe::nn
{

class Sequential
{
  public:
    Sequential() = default;

    /** Append a layer (before compile). */
    void add(std::unique_ptr<Layer> layer);

    /**
     * Let compile() run the global execution planner, the only code
     * that places bootstraps: plan::planSequential searches bootstrap
     * placement, level drops and per-layer levels against
     * perf::CostModel, rebuilds the stack at the planned levels
     * (matvec strides re-chosen per level, root-pattern key
     * restriction lifted — generate exactly requiredRotations()) and
     * records the resulting immutable ExecutionPlan. The stack must
     * hold no Bootstrap/LevelDrop layers of its own. Must be called
     * before compile().
     */
    void enablePlanner(plan::PlannerOptions opts = {});

    /** Construct-and-append convenience; returns the layer. */
    template <typename L, typename... Args>
    L &
    emplace(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L &ref = *layer;
        add(std::move(layer));
        return ref;
    }

    /**
     * Compile every layer against the propagated metas — through the
     * planner when enabled, else exactly the layers given, in order —
     * then lower the compiled stack once (graph::compileSequential)
     * into the unfused graph run() executes. Without the planner,
     * each layer must leave >= 1 level at its propagated input meta
     * (hand-placed Bootstrap layers restore the budget); otherwise
     * compile throws std::invalid_argument naming the first layer
     * that does not fit, with every layer's level cost.
     */
    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &input);

    /**
     * Union rotation-key set of every layer (deduplicated via the
     * shared step-set helper): generate exactly these keys and every
     * layer can run, with no Galois key duplicated across layers.
     */
    std::vector<s64> requiredRotations() const;

    /** Bootstrap layers in the compiled stack (planned or hand-placed). */
    std::size_t bootstrapCount() const;

    /**
     * Encrypted inference over a batch: one run of the compiled graph
     * (fusion off, so exactly the kernel sequence of the layers'
     * schedules in stack order). Each sample must match the compiled
     * input meta (std::invalid_argument); every node output is checked
     * against its compiled level and scale (IntegrityError on drift).
     * The executor emits one "nn" trace span per layer.
     */
    std::vector<CipherTensor>
    run(const NnEngine &engine,
        const std::vector<CipherTensor> &batch) const;

    /** Single-sample convenience. */
    CipherTensor run(const NnEngine &engine,
                     const CipherTensor &input) const;

    /** Plaintext reference with the same layer arithmetic. */
    std::vector<double> runPlain(std::vector<double> values) const;

    /** Predicted executed ops of one sample through every layer. */
    EvalOpCounts modeledOps() const;

    const std::vector<std::unique_ptr<Layer>> &layers() const
    {
        return layers_;
    }
    const TensorMeta &inputMeta() const;
    const TensorMeta &outputMeta() const;
    bool compiled() const { return compiled_; }

    /**
     * The immutable schedule compile() chose, one step per compiled
     * layer (valid after compile). Both compile paths build one: the
     * in-order path records its own walk (greedyWork ==
     * plannedWork), the planner path its searched schedule
     * (plannedWork <= greedyWork).
     */
    const plan::ExecutionPlan &executionPlan() const;

  private:
    /** The unplanned compile walk: compiles layers_ in order,
        records plan_, returns the output meta. */
    TensorMeta compileInOrder(const ckks::CkksContext &ctx,
                              const TensorMeta &input);

    std::vector<std::unique_ptr<Layer>> layers_;
    TensorMeta input_;
    TensorMeta output_;
    bool compiled_ = false;
    bool planner_ = false;
    plan::PlannerOptions plannerOpts_;
    plan::ExecutionPlan plan_;
    /// The lowered stack and its unfused executor. Heap-held so a
    /// moved Sequential stays valid: the executor points at the
    /// graph, whose nodes point into the layers layers_ owns.
    std::unique_ptr<graph::Graph> graph_;
    std::unique_ptr<graph::GraphExecutor> exec_;
};

} // namespace tensorfhe::nn

#endif // TENSORFHE_NN_SEQUENTIAL_HH
