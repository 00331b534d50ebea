/**
 * @file
 * Graph scheduling bench: the unfused program-order run
 * (EncryptedLstmCell::step / Sequential::run, reported as "eager")
 * vs the fused, stream-scheduled kernel DAG (src/graph) on the two
 * workloads with exploitable structure — the LSTM cell step (fusable
 * masked gate combine + two independent gate matvecs) and the deep
 * two-chunk CNN (independent per-(out,in)-chunk block-matvec
 * programs around an auto-spliced bootstrap). Reports, per workload:
 *
 *   - kernel launches: eager vs scheduled graph (fusion folds
 *     elementwise trees into single span passes);
 *   - GPU-model replay: serialized cycles vs the stream-overlapped
 *     makespan (gpu::replayScheduledQueue) and the simulated stall
 *     fraction;
 *   - workspace arena reuse on a COLD first run, with and without
 *     GraphExecutor::prestageWorkspace;
 *   - bit-identity of the scheduled outputs against the eager run.
 *
 * Usage: bench_graph_schedule [reps] [--json PATH]
 *                             [--trace PATH] [--metrics PATH]
 *   reps = wall-clock repetitions (default 3; CI smoke runs 1).
 *   --json PATH appends one machine-readable result object to PATH —
 *   the CI Release job collects BENCH_PR6.json this way.
 *   --trace PATH writes the whole run as Chrome trace-event JSON
 *   (nested workload -> graph node -> dispatcher op -> kernel spans,
 *   plus the GPU model's per-stream replay as its own process).
 *   --metrics PATH dumps the unified MetricsRegistry snapshot.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/stats.hh"
#include "graph/executor.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace
{

using namespace tensorfhe;
using tensorfhe::bench::fmtSeconds;

bool
bitIdentical(const graph::Cts &a, const graph::Cts &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s].scale != b[s].scale
            || a[s].levelCount() != b[s].levelCount())
            return false;
        for (std::size_t l = 0; l < a[s].c0.numLimbs(); ++l)
            for (std::size_t k = 0; k < a[s].c0.n(); ++k)
                if (a[s].c0.limb(l)[k] != b[s].c0.limb(l)[k]
                    || a[s].c1.limb(l)[k] != b[s].c1.limb(l)[k])
                    return false;
    }
    return true;
}

/** One workload's eager-vs-graph comparison. */
struct Comparison
{
    std::size_t eagerLaunches = 0;
    std::size_t graphLaunches = 0;
    std::size_t fusedGroups = 0;
    std::size_t fusedMembers = 0;
    int streamsUsed = 0;
    u64 serialCycles = 0;
    u64 makespanCycles = 0;
    double eagerStallFraction = 0;
    double graphStallFraction = 0;
    double eagerSeconds = 0;
    double graphSeconds = 0;
    double coldReuseRate = 0;
    double prestagedReuseRate = 0;
    bool identical = false;
    /** Per-stream GPU-model replay lanes for the trace export. */
    std::vector<trace::Tracer::ExternalSpan> gpuLanes;

    double
    launchReduction() const
    {
        return eagerLaunches == 0
            ? 0.0
            : 1.0
                - static_cast<double>(graphLaunches)
                    / static_cast<double>(eagerLaunches);
    }

    double
    overlapSpeedup() const
    {
        return makespanCycles == 0
            ? 0.0
            : static_cast<double>(serialCycles)
                / static_cast<double>(makespanCycles);
    }
};

void
printComparison(const char *name, const Comparison &c)
{
    bench::section(name);
    std::printf("  launches: eager %zu -> graph %zu  (-%.1f%%; "
                "%zu member ops in %zu fused groups)\n",
                c.eagerLaunches, c.graphLaunches,
                100.0 * c.launchReduction(), c.fusedMembers,
                c.fusedGroups);
    std::printf("  GPU replay: serial %llu cyc -> makespan %llu cyc "
                "(%.2fx overlap, %d streams)\n",
                static_cast<unsigned long long>(c.serialCycles),
                static_cast<unsigned long long>(c.makespanCycles),
                c.overlapSpeedup(), c.streamsUsed);
    std::printf("  stall fraction: eager %.1f%% -> graph %.1f%%\n",
                100.0 * c.eagerStallFraction,
                100.0 * c.graphStallFraction);
    std::printf("  wall: eager %s -> graph %s per run\n",
                fmtSeconds(c.eagerSeconds).c_str(),
                fmtSeconds(c.graphSeconds).c_str());
    std::printf("  cold workspace reuse: %.1f%% bare -> %.1f%% "
                "prestaged\n",
                100.0 * c.coldReuseRate,
                100.0 * c.prestagedReuseRate);
    std::printf("  bit-identical to eager: %s\n",
                c.identical ? "yes" : "NO (BUG)");
}

void
addJson(bench::JsonWriter &json, const std::string &prefix,
        const Comparison &c)
{
    json.add(prefix + "_eager_launches",
             static_cast<double>(c.eagerLaunches))
        .add(prefix + "_graph_launches",
             static_cast<double>(c.graphLaunches))
        .add(prefix + "_launch_reduction", c.launchReduction())
        .add(prefix + "_fused_groups",
             static_cast<double>(c.fusedGroups))
        .add(prefix + "_fused_members",
             static_cast<double>(c.fusedMembers))
        .add(prefix + "_streams", static_cast<double>(c.streamsUsed))
        .add(prefix + "_serial_cycles",
             static_cast<double>(c.serialCycles))
        .add(prefix + "_makespan_cycles",
             static_cast<double>(c.makespanCycles))
        .add(prefix + "_overlap_speedup", c.overlapSpeedup())
        .add(prefix + "_eager_stall_fraction", c.eagerStallFraction)
        .add(prefix + "_graph_stall_fraction", c.graphStallFraction)
        .add(prefix + "_eager_s", c.eagerSeconds)
        .add(prefix + "_graph_s", c.graphSeconds)
        .add(prefix + "_cold_reuse_rate", c.coldReuseRate)
        .add(prefix + "_prestaged_reuse_rate", c.prestagedReuseRate)
        .add(prefix + "_bit_identical", c.identical ? 1.0 : 0.0);
}

/**
 * Run the comparison given closures for the eager run (returns the
 * flat output batch) and the prepared graph executor + inputs.
 */
Comparison
compareWorkload(const nn::NnEngine &engine, std::size_t n, int reps,
                const std::function<graph::Cts()> &eager,
                const graph::GraphExecutor &ex,
                const std::vector<graph::Cts> &inputs,
                const std::function<graph::Cts(graph::ExecResult &)>
                    &flattenOutputs)
{
    Comparison c;
    auto &stats = KernelStats::instance();

    // Warm the plan/diagonal caches on both paths so the captures
    // compare schedules, not first-run plan builds.
    (void)eager();
    (void)ex.run(engine, inputs);

    // Eager capture.
    stats.startQueue();
    auto eager_out = eager();
    auto eager_queue = stats.stopQueue();
    c.eagerLaunches = eager_queue.size();
    c.eagerStallFraction =
        gpu::sumBreakdowns(gpu::simulateKernelQueue(eager_queue, n))
            .totalStallFraction();

    // Graph capture + overlapped replay.
    graph::ExecOptions cap;
    cap.captureSchedule = true;
    auto res = ex.run(engine, inputs, cap);
    c.graphLaunches = res.launchCount;
    c.fusedGroups = ex.schedule().fusedGroups;
    c.fusedMembers = ex.schedule().fusedMembers;
    auto replay = gpu::replayScheduledQueue(res.schedule, n);
    c.streamsUsed = replay.streamsUsed;
    c.serialCycles = replay.serialCycles;
    c.makespanCycles = replay.makespanCycles;
    c.graphStallFraction = replay.totalStallFraction();
    c.identical = bitIdentical(flattenOutputs(res), eager_out);
    // One trace lane per model stream (1 cycle rendered as 1 ns).
    c.gpuLanes.reserve(res.schedule.size());
    for (std::size_t i = 0; i < res.schedule.size(); ++i) {
        c.gpuLanes.push_back(
            {kernelKindName(res.schedule[i].launch.kind),
             res.schedule[i].stream, replay.startCycle[i],
             replay.finishCycle[i] - replay.startCycle[i]});
    }

    // Wall clock.
    c.eagerSeconds = bench::timeMean(reps, [&] { (void)eager(); });
    c.graphSeconds =
        bench::timeMean(reps, [&] { (void)ex.run(engine, inputs); });

    // Cold-run workspace reuse, bare vs prestaged.
    auto &ws = engine.batched().dispatcher().workspace();
    ws.trim();
    ws.resetStats();
    (void)ex.run(engine, inputs);
    c.coldReuseRate = ws.stats().reuseRate();
    ws.trim();
    ex.prestageWorkspace(engine, inputs[0].size());
    ws.resetStats();
    (void)ex.run(engine, inputs);
    c.prestagedReuseRate = ws.stats().reuseRate();
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    auto obs = bench::ObsFlags::parse(argc, argv);
    int reps = 3;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else
            reps = std::atoi(argv[i]);
    }
    if (reps < 1)
        reps = 1;

    bench::banner("bench_graph_schedule — AOT kernel DAG vs eager "
                  "dispatch (reps=" + std::to_string(reps) + ")");

    obs.armIfRequested();

    // ---------------------------------------------------------------
    // LSTM cell step: fusable masked combine, two independent gate
    // matvec branches.
    Comparison lstm;
    {
        TFHE_TRACE_SPAN("workload", "lstm-cell");
        ckks::CkksContext ctx(
            workloads::EncryptedLstmCell::recommendedParams());
        workloads::EncryptedLstmCell cell(ctx);
        Rng rng(0x6a);
        auto sk = ctx.generateSecretKey(rng);
        auto keys =
            ctx.generateKeys(sk, rng, cell.requiredRotations());
        ckks::Encryptor enc(ctx, keys.pk);
        nn::NnEngine engine(ctx, keys);

        auto enc_state = [&](u64 seed) {
            Rng r(seed);
            std::vector<double> v(cell.config().dim);
            for (auto &x : v)
                x = 2 * r.uniformReal() - 1;
            return nn::encryptTensor(ctx, enc, rng, v,
                                     cell.inputMeta().shape,
                                     cell.inputMeta().levelCount);
        };
        auto x = enc_state(1);
        workloads::EncryptedLstmCell::State prev{enc_state(2),
                                                 enc_state(3)};

        auto g = cell.buildStepGraph(ctx);
        auto sched = graph::scheduleGraph(g);
        graph::GraphExecutor ex(g, sched);
        std::vector<graph::Cts> inputs{x.chunks(), prev.h.chunks(),
                                       prev.c.chunks()};

        lstm = compareWorkload(
            engine, ctx.params().n, reps,
            [&] {
                auto out = cell.step(engine, x, prev);
                graph::Cts flat = out.h.chunks();
                for (const auto &ct : out.c.chunks())
                    flat.push_back(ct);
                return flat;
            },
            ex, inputs,
            [](graph::ExecResult &r) {
                graph::Cts flat = std::move(r.outputs[0]);
                for (auto &ct : r.outputs[1])
                    flat.push_back(std::move(ct));
                return flat;
            });
        printComparison("LSTM cell step (dim=8, degree-3 gates)",
                        lstm);
    }

    // ---------------------------------------------------------------
    // Deep CNN: two-chunk block matvecs (independent per-chunk BSGS
    // programs) around an auto-spliced bootstrap.
    Comparison cnn;
    {
        TFHE_TRACE_SPAN("workload", "deep-cnn");
        ckks::CkksContext ctx(
            workloads::EncryptedCnnClassifier::recommendedDeepParams());
        workloads::EncryptedCnnClassifier net(
            ctx, workloads::EncryptedCnnClassifier::deepConfig());
        Rng rng(0x6b);
        auto sk = ctx.generateSecretKey(rng);
        auto keys = ctx.generateKeys(sk, rng, net.requiredRotations(),
                                     net.requiredConjRotations());
        ckks::Encryptor enc(ctx, keys.pk);
        nn::NnEngine engine(ctx, keys);

        Rng ir(4);
        const auto &meta = net.inputMeta();
        std::vector<double> img(net.config().inChannels
                                * net.config().height
                                * net.config().width);
        for (auto &v : img)
            v = ir.uniformReal();
        auto t = nn::encryptTensor(ctx, enc, rng, img, meta.shape,
                                   meta.levelCount);

        auto g = graph::compileSequential(ctx, net.net());
        auto sched = graph::scheduleGraph(g);
        graph::GraphExecutor ex(g, sched);
        std::vector<graph::Cts> inputs{t.chunks()};

        cnn = compareWorkload(
            engine, ctx.params().n, reps,
            [&] {
                auto out = net.net().run(engine, t);
                return out.chunks();
            },
            ex, inputs,
            [](graph::ExecResult &r) {
                return std::move(r.outputs[0]);
            });
        printComparison(
            "deep CNN (2-chunk block matvecs + bootstrap)", cnn);
    }

    if (!json_path.empty()) {
        bench::JsonWriter json("graph_schedule");
        json.add("reps", static_cast<double>(reps));
        addJson(json, "lstm", lstm);
        addJson(json, "cnn_deep", cnn);
        if (!json.appendTo(json_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("  wrote %s\n", json_path.c_str());
    }

    // Export the deep-CNN replay lanes (the showcase timeline); the
    // LSTM's are a strict subset of the same structure.
    obs.finish(cnn.gpuLanes.empty() ? lstm.gpuLanes : cnn.gpuLanes);
    return lstm.identical && cnn.identical ? 0 : 1;
}
