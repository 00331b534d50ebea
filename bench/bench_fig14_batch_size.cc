/**
 * @file
 * Regenerates paper Fig. 14: impact of the batch size on kernel
 * execution time — model at the paper's batch range {32..1024} plus
 * measured batched kernels on this machine at a scaled range, with a
 * serial-vs-parallel comparison of the batched execution engine.
 *
 * Usage: bench_fig14_batch_size [threads]
 *   threads  lanes of the engine's worker pool (default: all cores)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "batch/executor.hh"
#include "bench_util.hh"
#include "ckks/crypto.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "perf/device_time.hh"

using namespace tensorfhe;
using namespace tensorfhe::perf;

int
main(int argc, char **argv)
{
    bench::banner("Fig. 14 - batch size sensitivity");

    DeviceTimeModel a100(gpu::DeviceModel::a100());
    auto p = ckks::Presets::paperDefault();
    p.nttVariant = ntt::NttVariant::Tensor;

    bench::section("model: normalized per-op kernel time vs batch "
                   "(paper range)");
    struct K
    {
        const char *name;
        KernelCost cost;
    };
    K kernels[] = {
        {"Hada-Mult", hadaMultCost(p.n, 45)},
        {"NTT", nttCost(p.n, 45, p.nttVariant)},
        {"Ele-Add", eleAddCost(p.n, 45)},
        {"Conv", convCost(p.n, 45, 1)},
        {"FrobeniusMap", frobeniusCost(p.n, 45)},
    };
    std::vector<std::size_t> batches = {32, 64, 128, 256, 512, 1024};
    std::printf("%-14s", "kernel");
    for (auto b : batches)
        std::printf(" %8zu", b);
    std::printf("\n");
    for (const auto &k : kernels) {
        double base =
            a100.seconds(k.cost, 128) / 128.0; // normalize to default
        std::printf("%-14s", k.name);
        for (auto b : batches) {
            double t = a100.seconds(k.cost, b) / double(b);
            std::printf(" %8.3f", t / base);
        }
        std::printf("\n");
    }

    unsigned hw = std::thread::hardware_concurrency();
    long threads = hw > 0 ? long(hw) : 1;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else
            threads = std::atol(argv[i]);
    }
    if (threads < 1)
        threads = 1;
    // lanes = workers + caller, so [threads] lanes = threads-1 workers
    // (threads=1 gives a genuinely serial 1-lane pool).
    ThreadPool engine_pool(static_cast<std::size_t>(threads) - 1);

    bench::section("measured: serial (1-lane) vs parallel batched "
                   "engine, per-op time vs batch (N=2^12, L=6)");
    std::printf("engine pool: %zu lanes (pass [threads] to override); "
                "serial columns run the same engine on a 1-lane pool\n",
                engine_pool.lanes());
    ckks::CkksContext ctx(ckks::Presets::small());
    Rng rng(9);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, {});
    ckks::Encryptor enc(ctx, keys.pk);
    // The serial baseline is the identical code path pinned to one
    // lane (an evaluator on the default pool would not do: its
    // kernels dispatch on the process-global pool, so it is not
    // serial).
    ThreadPool serial_pool(0);
    batch::BatchedEvaluator evals(ctx, keys, &serial_pool);
    batch::BatchedEvaluator evalb(ctx, keys, &engine_pool);
    std::size_t lc = ctx.tower().numQ();
    auto pt = ctx.encoder().encodeConstant(ckks::Complex(0.3, 0),
                                           ctx.params().scale(), lc);
    auto one = enc.encrypt(pt, rng);

    std::printf("%-6s %9s %9s %9s %9s %9s %9s %8s\n", "batch",
                "HADD-ser", "HADD-par", "CMULT-ser", "CMULT-par",
                "HMULT-ser", "HMULT-par", "speedup");
    for (std::size_t b : {1, 2, 4, 8, 12, 16}) {
        std::vector<ckks::Ciphertext> cts(b, one);
        double s_add = bench::timeMean(3, [&] {
            auto r = evals.add(cts, cts);
        }) / double(b);
        double s_cmult = bench::timeMean(3, [&] {
            auto r = evals.multiplyPlain(cts, pt);
        }) / double(b);
        double s_hmult = bench::timeMean(1, [&] {
            auto r = evals.multiply(cts, cts);
        }) / double(b);
        // Parallel batched engine: one (slot x tower) work-queue.
        double p_add = bench::timeMean(3, [&] {
            auto r = evalb.add(cts, cts);
        }) / double(b);
        double p_cmult = bench::timeMean(3, [&] {
            auto r = evalb.multiplyPlain(cts, pt);
        }) / double(b);
        double p_hmult = bench::timeMean(1, [&] {
            auto r = evalb.multiply(cts, cts);
        }) / double(b);
        std::printf("%-6zu %9s %9s %9s %9s %9s %9s %7.2fx\n", b,
                    bench::fmtSeconds(s_add).c_str(),
                    bench::fmtSeconds(p_add).c_str(),
                    bench::fmtSeconds(s_cmult).c_str(),
                    bench::fmtSeconds(p_cmult).c_str(),
                    bench::fmtSeconds(s_hmult).c_str(),
                    bench::fmtSeconds(p_hmult).c_str(),
                    s_hmult / p_hmult);
        if (!json_path.empty()) {
            // One executed-op-count + timing object per batch size.
            EvalOpStats::instance().reset();
            auto r = evalb.multiply(cts, cts);
            auto snap = EvalOpStats::instance().snapshot();
            bench::JsonWriter json("fig14_batch_size");
            json.add("batch", static_cast<double>(b))
                .add("threads", static_cast<double>(threads))
                .add("hadd_serial_s", s_add)
                .add("hadd_parallel_s", p_add)
                .add("cmult_serial_s", s_cmult)
                .add("cmult_parallel_s", p_cmult)
                .add("hmult_serial_s", s_hmult)
                .add("hmult_parallel_s", p_hmult)
                .add("hmult_speedup", s_hmult / p_hmult)
                .add("hmult_ops", snap.hmult)
                .add("ks_hoist_ops", snap.ksHoist)
                .add("ks_tail_ops", snap.ksTail)
                .add("mod_ups",
                     static_cast<double>(
                         EvalOpStats::instance().modUps()))
                .add("mod_downs",
                     static_cast<double>(
                         EvalOpStats::instance().modDowns()));
            if (!json.appendTo(json_path))
                std::fprintf(stderr, "cannot write %s\n",
                             json_path.c_str());
        }
    }
    std::printf("\npaper: larger batches amortize twiddle reuse and "
                "launches until VRAM binds;\n"
                "BS = 128 balances all kernels (FrobeniusMap gains "
                "31.4%% at BS = 1024).\n"
                "speedup column: serial HMULT / parallel batched HMULT "
                "at the same batch.\n");
    return 0;
}
