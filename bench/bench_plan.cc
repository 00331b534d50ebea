/**
 * @file
 * Modeled-cost win of the global execution planner (src/plan) over
 * its greedy survey baseline (ExecutionPlan::greedyWork: refresh just
 * before the first layer the budget cannot cover, everything at the
 * highest level it can run at), on the two reference workloads:
 *
 *   - deep_cnn: the bootstrap-in-the-loop CNN
 *     (EncryptedCnnClassifier::deepConfig, 4x8x8 over two chunks),
 *     planned vs its greedy baseline. The planner drops the
 *     post-refresh tail to its cheapest feasible level and re-chooses
 *     BSGS strides per level.
 *   - lstm_gates: an unrolled LSTM-style gate tower (Dense +
 *     sigmoid/tanh approximants) handed a full 21-limb tower — the
 *     scenario where greedy burns the head layers at the tower top
 *     while the planner drops straight to the entry level the chain
 *     actually needs.
 *
 * Costs are compile-time model evaluations (perf::CostModel), not
 * wall clock: the ratio is deterministic and machine-independent.
 * The bench exits nonzero when the headline ratio (the better of the
 * two workloads, as the acceptance gate allows either) falls below
 * the committed 1.10 floor.
 *
 * Usage: bench_plan [--json PATH]
 *   --json PATH appends one result object (BENCH_PR10.json in CI).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "nn/sequential.hh"
#include "workloads/cnn.hh"

namespace
{

using namespace tensorfhe;

constexpr double kRatioFloor = 1.10;

struct WorkloadResult
{
    std::string name;
    double planned = 0;
    double greedy = 0;
    std::size_t bootstraps = 0;
    std::size_t drops = 0;

    double
    ratio() const
    {
        return planned > 0 ? greedy / planned : 0;
    }
};

WorkloadResult
summarize(const std::string &name, const nn::Sequential &net)
{
    WorkloadResult r;
    r.name = name;
    const auto &plan = net.executionPlan();
    r.planned = plan.plannedWork();
    r.greedy = plan.greedyWork();
    r.bootstraps = plan.bootstrapCount();
    for (const auto &st : plan.steps())
        if (st.kind == plan::PlanStep::Kind::LevelDrop)
            ++r.drops;
    return r;
}

WorkloadResult
runDeepCnn()
{
    ckks::CkksContext ctx(
        workloads::EncryptedCnnClassifier::recommendedDeepParams());
    workloads::EncryptedCnnClassifier cnn(
        ctx, workloads::EncryptedCnnClassifier::deepConfig());
    return summarize("deep_cnn", cnn.net());
}

WorkloadResult
runLstmGates()
{
    // Four stacked gate blocks (Dense projection + degree-3
    // sigmoid/tanh approximant), the per-step arithmetic of an LSTM
    // cell unrolled into a chain, encrypted at the FULL tower.
    auto params = ckks::Presets::bootTest();
    params.levels = 20;
    params.secretHamming = 8;
    ckks::CkksContext ctx(params);

    nn::Sequential net;
    Rng rng(0x157e);
    auto gateMatrix = [&](std::size_t dim) {
        std::vector<std::vector<double>> w(dim,
                                           std::vector<double>(dim));
        for (auto &row : w)
            for (auto &v : row)
                v = 0.15 * (2 * rng.uniformReal() - 1);
        return w;
    };
    constexpr std::size_t kDim = 16;
    for (int gate = 0; gate < 4; ++gate) {
        net.emplace<nn::Dense>(gateMatrix(kDim));
        net.emplace<nn::PolyActivation>(
            gate % 2 == 0 ? nn::sigmoidApprox(3)
                          : nn::tanhApprox(3));
    }
    net.enablePlanner();

    nn::TensorMeta in;
    in.shape = {{kDim}};
    in.layout = nn::SlotLayout::contiguous(in.shape);
    in.levelCount = ctx.tower().numQ();
    in.scale = ctx.params().scale();
    net.compile(ctx, in);
    return summarize("lstm_gates", net);
}

void
printRow(const WorkloadResult &r)
{
    std::printf("  %-10s planned %.3e  greedy %.3e  ratio %.3f  "
                "(%zu bootstraps, %zu drops)\n",
                r.name.c_str(), r.planned, r.greedy, r.ratio(),
                r.bootstraps, r.drops);
}

} // namespace

int
main(int argc, char **argv)
{
    auto obs = tensorfhe::bench::ObsFlags::parse(argc, argv);
    std::string json_path;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];

    tensorfhe::bench::banner(
        "bench_plan — global planner vs greedy baseline, modeled cost");
    obs.armIfRequested();

    auto cnn = runDeepCnn();
    auto lstm = runLstmGates();
    printRow(cnn);
    printRow(lstm);

    // The acceptance gate allows either reference workload; the
    // headline is the better demonstrated win.
    const auto &headline =
        cnn.ratio() >= lstm.ratio() ? cnn : lstm;
    std::printf("  headline: %s ratio %.3f (floor %.2f)\n",
                headline.name.c_str(), headline.ratio(), kRatioFloor);

    if (!json_path.empty()) {
        tensorfhe::bench::JsonWriter json("plan");
        json.add("planned_vs_greedy_cost_ratio", headline.ratio())
            .add("headline_workload", headline.name)
            .add("deep_cnn_cost_ratio", cnn.ratio())
            .add("deep_cnn_planned_work", cnn.planned)
            .add("deep_cnn_greedy_work", cnn.greedy)
            .add("deep_cnn_bootstraps",
                 static_cast<double>(cnn.bootstraps))
            .add("lstm_gates_cost_ratio", lstm.ratio())
            .add("lstm_gates_planned_work", lstm.planned)
            .add("lstm_gates_greedy_work", lstm.greedy)
            .add("lstm_gates_level_drops",
                 static_cast<double>(lstm.drops));
        if (json.appendTo(json_path))
            std::printf("json:    %s\n", json_path.c_str());
    }
    obs.finish();

    if (headline.ratio() < kRatioFloor) {
        std::printf("FAIL: headline ratio %.3f below the %.2f "
                    "floor\n",
                    headline.ratio(), kRatioFloor);
        return 1;
    }
    return 0;
}
