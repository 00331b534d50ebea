/**
 * @file
 * MetricsRegistry equivalence: the unified snapshot must read exactly
 * what the legacy per-island snapshot calls report — same kernel
 * invocation counts as KernelStats, same executed-op counts and
 * conversion counters as EvalOpStats, same arena alloc/reuse/return
 * totals as Workspace::stats(), same resilience counters — after real
 * workload runs (the LSTM cell step and the small CNN classifier),
 * not just after synthetic bumps. Plus the registry's own custom
 * counters/gauges/histograms and the nested-JSON dump.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/stats.hh"
#include "exec/dispatch.hh"
#include "graph/executor.hh"
#include "resilience/counters.hh"
#include "trace/metrics.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace tensorfhe::trace
{
namespace
{

void
resetAllIslands()
{
    KernelStats::instance().reset();
    EvalOpStats::instance().reset();
    resilience::Counters::instance().reset();
    MetricsRegistry::instance().resetCustom();
}

/** Unified snapshot vs the legacy island reads, key by key. */
void
expectSnapshotMatchesIslands(const nn::NnEngine &engine)
{
    auto snap = MetricsRegistry::instance().snapshot();

    const auto &ks = KernelStats::instance();
    for (std::size_t i = 0; i < kNumKernelKinds; ++i) {
        auto kind = static_cast<KernelKind>(i);
        std::string base =
            std::string("kernel.") + kernelKindName(kind) + ".";
        const auto &c = ks.counter(kind);
        EXPECT_EQ(snap.at(base + "invocations"),
                  static_cast<double>(c.invocations.load()))
            << base;
        EXPECT_EQ(snap.at(base + "nanos"),
                  static_cast<double>(c.nanos.load()))
            << base;
        EXPECT_EQ(snap.at(base + "elements"),
                  static_cast<double>(c.elements.load()))
            << base;
    }

    auto ops = EvalOpStats::instance().snapshot();
    for (std::size_t i = 0; i < kNumEvalOpKinds; ++i) {
        auto kind = static_cast<EvalOpKind>(i);
        std::string key = std::string("evalop.")
            + evalOpKindName(kind) + ".count";
        EXPECT_EQ(snap.at(key), ops.get(kind)) << key;
    }
    EXPECT_EQ(snap.at("evalop.modups"),
              static_cast<double>(EvalOpStats::instance().modUps()));
    EXPECT_EQ(snap.at("evalop.moddowns"),
              static_cast<double>(EvalOpStats::instance().modDowns()));

    auto ws = engine.dispatcher().workspace().stats();
    EXPECT_EQ(snap.at("workspace.allocs"),
              static_cast<double>(ws.allocs));
    EXPECT_EQ(snap.at("workspace.reuses"),
              static_cast<double>(ws.reuses));
    EXPECT_EQ(snap.at("workspace.returns"),
              static_cast<double>(ws.returns));
    EXPECT_GE(snap.at("workspace.arenas"), 1.0);

    const auto &rc = resilience::Counters::instance();
    EXPECT_EQ(snap.at("resilience.retries"),
              static_cast<double>(rc.retries.load()));
    EXPECT_EQ(snap.at("resilience.transient_faults"),
              static_cast<double>(rc.transientFaults.load()));
    EXPECT_EQ(snap.at("resilience.checkpoints_taken"),
              static_cast<double>(rc.checkpointsTaken.load()));
}

TEST(MetricsRegistry, SnapshotMatchesLegacyIslandsOnLstm)
{
    resetAllIslands();
    ckks::CkksContext ctx(
        workloads::EncryptedLstmCell::recommendedParams());
    workloads::EncryptedLstmCell cell(ctx);
    Rng rng(0x91);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cell.requiredRotations());
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
    (void)cell.step(engine, x, prev);

    // Something actually ran through every island the run exercises.
    EXPECT_GT(KernelStats::instance()
                  .counter(KernelKind::Ntt)
                  .invocations.load(),
              0u);
    EXPECT_GT(EvalOpStats::instance().modUps(), 0u);
    expectSnapshotMatchesIslands(engine);
}

TEST(MetricsRegistry, SnapshotMatchesLegacyIslandsOnCnn)
{
    resetAllIslands();
    ckks::CkksContext ctx(
        workloads::EncryptedCnnClassifier::recommendedParams());
    workloads::EncryptedCnnClassifier net(ctx);
    Rng rng(0x92);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);

    Rng ir(5);
    const auto &meta = net.inputMeta();
    std::vector<double> img(net.config().inChannels
                            * net.config().height
                            * net.config().width);
    for (auto &v : img)
        v = ir.uniformReal();
    auto t = nn::encryptTensor(ctx, enc, rng, img, meta.shape,
                               meta.levelCount);
    (void)net.net().run(engine, t);

    EXPECT_GT(EvalOpStats::instance().snapshot().hrotate, 0.0);
    expectSnapshotMatchesIslands(engine);
}

TEST(MetricsRegistry, GraphRunFeedsResilienceCounters)
{
    resetAllIslands();
    ckks::CkksContext ctx(
        workloads::EncryptedLstmCell::recommendedParams());
    workloads::EncryptedLstmCell cell(ctx);
    Rng rng(0x93);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cell.requiredRotations());
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
    graph::GraphExecutor ex(g, graph::scheduleGraph(g));
    std::vector<graph::Cts> inputs{x.chunks(), prev.h.chunks(),
                                   prev.c.chunks()};

    std::vector<resilience::Checkpoint> log;
    graph::ExecOptions opt;
    opt.checkpointEvery = 4;
    opt.checkpointLog = &log;
    (void)ex.run(engine, inputs, opt);

    auto snap = MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.at("resilience.checkpoints_taken"),
              static_cast<double>(log.size()));
    EXPECT_GT(log.size(), 0u);
    expectSnapshotMatchesIslands(engine);
}

TEST(MetricsRegistry, CustomCountersGaugesHistograms)
{
    auto &reg = MetricsRegistry::instance();
    reg.resetCustom();
    reg.counter("bootstraps").add(3);
    reg.setGauge("chain_depth", 21.0);
    auto &h = reg.histogram("batch_size");
    h.observe(1);
    h.observe(2);
    h.observe(1000);

    auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("custom.bootstraps"), 3.0);
    EXPECT_EQ(snap.at("custom.chain_depth"), 21.0);
    EXPECT_EQ(snap.at("custom.batch_size.count"), 3.0);
    EXPECT_EQ(snap.at("custom.batch_size.sum"), 1003.0);
    EXPECT_EQ(snap.at("custom.batch_size.bucket_p0"), 1.0);
    EXPECT_EQ(snap.at("custom.batch_size.bucket_p1"), 1.0);
    EXPECT_EQ(snap.at("custom.batch_size.bucket_p9"), 1.0);

    reg.resetCustom();
    auto snap2 = reg.snapshot();
    EXPECT_EQ(snap2.count("custom.bootstraps"), 0u);
}

TEST(MetricsRegistry, SnapshotJsonNestsDottedNames)
{
    auto &reg = MetricsRegistry::instance();
    reg.resetCustom();
    reg.counter("nested.deep.count").add(7);
    std::string json = reg.snapshotJson();
    // Spot checks on the nesting (the trace suite's JSON parser test
    // validates the full syntax of the chrome export; here the shape
    // of the metrics object).
    EXPECT_NE(json.find("\"kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"evalop\""), std::string::npos);
    EXPECT_NE(json.find("\"workspace\""), std::string::npos);
    EXPECT_NE(json.find("\"resilience\""), std::string::npos);
    EXPECT_NE(json.find("\"nested\""), std::string::npos);
    EXPECT_NE(json.find("\"deep\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    // Write-to-file round trip.
    std::string path = ::testing::TempDir() + "metrics_test.json";
    ASSERT_TRUE(reg.writeSnapshotJson(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(path.c_str());
    reg.resetCustom();
}

TEST(MetricsRegistry, WriteToFullDiskReportsFailure)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full is absent";
    auto &reg = MetricsRegistry::instance();
    reg.resetCustom();
    // Under one stdio buffer, fwrite only buffers the payload: the
    // full disk surfaces when fclose flushes it.
    ASSERT_LT(reg.snapshotJson().size(), 4096u);
    EXPECT_FALSE(reg.writeSnapshotJson("/dev/full"));
}

} // namespace
} // namespace tensorfhe::trace
