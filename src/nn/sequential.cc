#include "nn/sequential.hh"

#include <iterator>
#include <sstream>

#include "ckks/rotations.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "graph/builder.hh"
#include "trace/trace.hh"

namespace tensorfhe::nn
{

void
Sequential::add(std::unique_ptr<Layer> layer)
{
    requireArg(!compiled_, "cannot add layers after compile()");
    requireArg(layer != nullptr, "null layer");
    layers_.push_back(std::move(layer));
}

void
Sequential::enablePlanner(plan::PlannerOptions opts)
{
    requireArg(!compiled_, "enablePlanner must precede compile()");
    planner_ = true;
    plannerOpts_ = std::move(opts);
}

TensorMeta
Sequential::compile(const ckks::CkksContext &ctx,
                    const TensorMeta &input)
{
    requireArg(!compiled_, "model compiled twice");
    requireArg(!layers_.empty(), "empty model");

    if (planner_) {
        auto res = plan::planSequential(ctx, std::move(layers_),
                                        input, plannerOpts_);
        layers_ = std::move(res.stack);
        plan_ = std::move(res.plan);
        output_ = res.output;
    } else {
        output_ = compileInOrder(ctx, input);
    }
    input_ = input;
    compiled_ = true;

    // Lower the final stack (after any planner rebind) once; with
    // fusion off the schedule is the program order, i.e. exactly the
    // kernel sequence of the layers' schedules in stack order.
    graph_ = std::make_unique<graph::Graph>(
        graph::compileSequential(ctx, *this));
    exec_ = std::make_unique<graph::GraphExecutor>(
        *graph_, graph::scheduleGraph(*graph_, {.fuse = false}));
    return output_;
}

TensorMeta
Sequential::compileInOrder(const ckks::CkksContext &ctx,
                           const TensorMeta &input)
{
    // Per-layer budget check at the propagated input meta, so a
    // hand-placed Bootstrap restores the budget for the layers after
    // it. The walk also records the in-order ExecutionPlan.
    std::ostringstream ledger; // every layer's cost, for the error
    for (const auto &l : layers_)
        ledger << "\n  " << l->name() << ": " << l->levelCost();
    const std::string costs = ledger.str();

    perf::CostModel model(ctx.params());
    std::vector<plan::PlanStep> steps;
    TensorMeta meta = input;
    for (const auto &l : layers_) {
        requireBudget(meta.levelCount >= l->levelCost() + 1,
                      "nn/sequential-compile",
                      "level budget exhausted: layer ", l->name(),
                      " consumes ", l->levelCost(),
                      " but its input has ", meta.levelCount,
                      " level counts and must leave >= 1; per-layer "
                      "costs:",
                      costs);
        plan::PlanStep st;
        st.kind = dynamic_cast<const Bootstrap *>(l.get())
            ? plan::PlanStep::Kind::Bootstrap
            : (dynamic_cast<const LevelDrop *>(l.get())
                   ? plan::PlanStep::Kind::LevelDrop
                   : plan::PlanStep::Kind::Layer);
        st.in = meta;
        meta = l->compile(ctx, meta);
        st.name = l->name();
        st.out = meta;
        st.work = perf::CostModel::work(
            l->costAt(model, st.in.levelCount));
        steps.push_back(std::move(st));
    }
    double total = 0;
    for (const auto &s : steps)
        total += s.work;
    plan_ = plan::ExecutionPlan(std::move(steps), total);
    return meta;
}

const plan::ExecutionPlan &
Sequential::executionPlan() const
{
    requireState(compiled_, "model used before compile()");
    return plan_;
}

std::vector<s64>
Sequential::requiredRotations() const
{
    requireState(compiled_, "model used before compile()");
    std::vector<std::vector<s64>> lists;
    lists.reserve(layers_.size());
    for (const auto &l : layers_)
        lists.push_back(l->requiredRotations());
    return ckks::unionRotationSteps(lists);
}

std::size_t
Sequential::bootstrapCount() const
{
    std::size_t count = 0;
    for (const auto &l : layers_)
        if (dynamic_cast<const Bootstrap *>(l.get()) != nullptr)
            ++count;
    return count;
}

std::vector<CipherTensor>
Sequential::run(const NnEngine &engine,
                const std::vector<CipherTensor> &batch) const
{
    requireState(compiled_, "model used before compile()");
    requireArg(!batch.empty(), "empty batch");
    // Packing here; level and scale are the executor's input check.
    for (const auto &t : batch) {
        auto m = t.meta();
        requireArg(m.shape == input_.shape && m.layout == input_.layout
                       && m.chunkCount == input_.chunkCount,
                   "input: tensor packing does not match the compiled "
                   "meta");
    }

    // Flatten to (sample x chunk): the graph's input batch.
    std::size_t chunks = input_.chunkCount;
    Cts flat;
    flat.reserve(batch.size() * chunks);
    for (const auto &t : batch)
        for (const auto &ct : t.chunks())
            flat.push_back(ct);

    trace::TraceSpan runSpan("nn", "sequential-run");
    runSpan.arg("batch", static_cast<s64>(batch.size()))
        .arg("layers", static_cast<s64>(layers_.size()));
    Cts out_flat =
        std::move(exec_->run(engine, {std::move(flat)}).outputs[0]);

    std::size_t out_chunks = output_.chunkCount;
    std::vector<CipherTensor> out;
    out.reserve(batch.size());
    for (std::size_t s = 0; s < batch.size(); ++s) {
        std::vector<ckks::Ciphertext> cts(
            std::make_move_iterator(out_flat.begin()
                                    + static_cast<std::ptrdiff_t>(
                                        s * out_chunks)),
            std::make_move_iterator(out_flat.begin()
                                    + static_cast<std::ptrdiff_t>(
                                        (s + 1) * out_chunks)));
        out.emplace_back(output_.shape, output_.layout,
                         std::move(cts));
    }
    return out;
}

CipherTensor
Sequential::run(const NnEngine &engine, const CipherTensor &input) const
{
    auto out = run(engine, std::vector<CipherTensor>{input});
    return std::move(out[0]);
}

std::vector<double>
Sequential::runPlain(std::vector<double> values) const
{
    requireState(compiled_, "model used before compile()");
    for (const auto &l : layers_)
        values = l->applyPlain(values);
    return values;
}

EvalOpCounts
Sequential::modeledOps() const
{
    requireState(compiled_, "model used before compile()");
    EvalOpCounts total;
    for (const auto &l : layers_)
        total += l->modeledOps();
    return total;
}

const TensorMeta &
Sequential::inputMeta() const
{
    requireState(compiled_, "model used before compile()");
    return input_;
}

const TensorMeta &
Sequential::outputMeta() const
{
    requireState(compiled_, "model used before compile()");
    return output_;
}

} // namespace tensorfhe::nn
