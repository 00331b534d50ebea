/**
 * @file
 * Pipeline-simulator tests: accounting invariants, stall attribution
 * on hand-built traces, and the qualitative properties behind the
 * paper's Figs. 4 and 10.
 */

#include <gtest/gtest.h>

#include "gpu/pipeline.hh"

namespace tensorfhe::gpu
{
namespace
{

TEST(Pipeline, AccountingInvariant)
{
    // issued + stalled cycles == total cycles, for several traces.
    for (int warps : {1, 4, 16}) {
        auto trace = butterflyNttTrace(1 << 10, 128);
        auto bd = simulateSm(trace, warps);
        EXPECT_EQ(bd.issuedCycles + bd.stallCycles(), bd.totalCycles);
        EXPECT_GT(bd.totalCycles, 0u);
    }
}

TEST(Pipeline, Deterministic)
{
    auto trace = gemmNttTrace(1 << 10, 128);
    auto a = simulateSm(trace, 8);
    auto b = simulateSm(trace, 8);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.stalls, b.stalls);
}

TEST(Pipeline, DependentChainProducesRawStalls)
{
    // One warp, a long dependent IMul chain: nothing can hide the
    // latency, so RAW stalls must dominate.
    WarpTrace t;
    t.name = "raw-chain";
    t.footprintInstrs = 0; // no L1I misses
    int reg = 0;
    t.emit(Op::IAdd, reg);
    for (int i = 0; i < 200; ++i) {
        t.emit(Op::IMul, reg + 1, reg, reg);
        ++reg;
    }
    auto bd = simulateSm(t, 1);
    EXPECT_GT(bd.stallFraction(Stall::Raw), 0.5);
    EXPECT_EQ(bd.stalls[std::size_t(Stall::Barrier)], 0u);
}

TEST(Pipeline, IndependentOpsIssueWithoutRawStalls)
{
    WarpTrace t;
    t.name = "independent";
    t.footprintInstrs = 0;
    for (int i = 0; i < 200; ++i)
        t.emit(Op::IAdd, i + 1);
    auto bd = simulateSm(t, 1);
    EXPECT_EQ(bd.stalls[std::size_t(Stall::Raw)], 0u);
    EXPECT_GE(double(bd.issuedCycles) / double(bd.totalCycles), 0.9);
}

TEST(Pipeline, GlobalLoadsProduceLongLatencyStalls)
{
    WarpTrace t;
    t.name = "load-use";
    t.footprintInstrs = 0;
    for (int i = 0; i < 50; ++i) {
        int x = 2 * i;
        t.emit(Op::Ldg, x);
        t.emit(Op::IAdd, x + 1, x, x); // immediate use
    }
    auto bd = simulateSm(t, 1);
    EXPECT_GT(bd.stallFraction(Stall::LongLatency), 0.8);
}

TEST(Pipeline, MoreWarpsHideLoadLatency)
{
    WarpTrace t;
    t.name = "load-use";
    t.footprintInstrs = 0;
    for (int i = 0; i < 50; ++i) {
        int x = 2 * i;
        t.emit(Op::Ldg, x);
        t.emit(Op::IAdd, x + 1, x, x);
    }
    auto one = simulateSm(t, 1);
    auto many = simulateSm(t, 32);
    // Total work grows 32x but cycles grow far less: latency hidden.
    EXPECT_LT(double(many.totalCycles), 8.0 * double(one.totalCycles));
    EXPECT_LT(many.totalStallFraction(), one.totalStallFraction());
}

TEST(Pipeline, BarrierStallsAttributed)
{
    // Warps with unbalanced pre-barrier work (simulated by a longer
    // dependent chain) park at the Bar; with a single warp there is
    // no imbalance, with many the barrier costs show up.
    WarpTrace t;
    t.name = "barrier";
    t.footprintInstrs = 0;
    int reg = 0;
    for (int round = 0; round < 10; ++round) {
        t.emit(Op::Ldg, ++reg);
        t.emit(Op::IMul, reg + 1, reg, reg);
        ++reg;
        t.emit(Op::Bar);
    }
    auto bd = simulateSm(t, 16);
    EXPECT_GT(bd.stalls[std::size_t(Stall::Barrier)], 0u);
}

TEST(Pipeline, Fig4Shape_NttStallsWorstAndRawLed)
{
    // Paper Fig. 4: NTT suffers the largest stall share (~43%), with
    // RAW the largest single contributor (~21%, about half of all
    // stalls); FFT and DWT stall less.
    int warps = 8;
    auto ntt = simulateSm(butterflyNttTrace(1 << 12, 128), warps);
    auto fft = simulateSm(fftTrace(1 << 12, 192), warps);
    auto dwt = simulateSm(dwtTrace(1 << 12, 256), warps);

    EXPECT_GT(ntt.totalStallFraction(), fft.totalStallFraction());
    EXPECT_GT(ntt.totalStallFraction(), dwt.totalStallFraction());
    // RAW leads the NTT stall breakdown.
    for (int s = 1; s < int(Stall::NumKinds); ++s) {
        EXPECT_GE(ntt.stalls[std::size_t(Stall::Raw)],
                  ntt.stalls[std::size_t(s)])
            << stallName(Stall(s));
    }
    EXPECT_GT(ntt.stallFraction(Stall::Raw), 0.10);
}

TEST(Pipeline, Fig10Shape_GemmNttCutsRawAndOverallCycles)
{
    // Paper Fig. 10 / SVI-A: the GEMM form cuts RAW stalls and total
    // NTT time (-32.3%) despite slightly more computation.
    int warps = 8;
    auto butterfly = simulateSm(butterflyNttTrace(1 << 12, 128), warps);
    auto gemm = simulateSm(gemmNttTrace(1 << 12, 128), warps);

    EXPECT_LT(gemm.stallFraction(Stall::Raw),
              butterfly.stallFraction(Stall::Raw));
    EXPECT_LT(gemm.totalStallFraction(),
              butterfly.totalStallFraction());
}

// ------------------------------------------------------------------
// Scheduled-queue replay: replayScheduledQueue honors the graph
// scheduler's stream assignment and dependencies.

ScheduledLaunch
launchOn(int stream, std::vector<std::size_t> deps = {})
{
    ScheduledLaunch sl;
    sl.launch = {KernelKind::EleAdd, u64(1) << 16};
    sl.stream = stream;
    sl.deps = std::move(deps);
    return sl;
}

TEST(ScheduledReplay, IndependentStreamsOverlap)
{
    std::vector<ScheduledLaunch> q{launchOn(0), launchOn(1)};
    auto r = replayScheduledQueue(q, 1 << 10);
    ASSERT_EQ(r.perLaunch.size(), 2u);
    EXPECT_EQ(r.streamsUsed, 2);
    // Both start at cycle 0; the makespan is ONE launch, the serial
    // baseline is two.
    EXPECT_EQ(r.startCycle[0], 0u);
    EXPECT_EQ(r.startCycle[1], 0u);
    EXPECT_LT(r.makespanCycles, r.serialCycles);
    EXPECT_EQ(r.serialCycles,
              r.finishCycle[0] - r.startCycle[0]
                  + r.finishCycle[1] - r.startCycle[1]);
}

TEST(ScheduledReplay, DependencySerializesAcrossStreams)
{
    // Same two launches, but the second waits on the first: distinct
    // streams no longer help and the makespan equals the serial sum.
    std::vector<ScheduledLaunch> q{launchOn(0), launchOn(1, {0})};
    auto r = replayScheduledQueue(q, 1 << 10);
    EXPECT_EQ(r.startCycle[1], r.finishCycle[0]);
    EXPECT_EQ(r.makespanCycles, r.serialCycles);
}

TEST(ScheduledReplay, SameStreamSerializesWithoutDeps)
{
    std::vector<ScheduledLaunch> q{launchOn(3), launchOn(3)};
    auto r = replayScheduledQueue(q, 1 << 10);
    EXPECT_EQ(r.streamsUsed, 4); // streams 0..3 exist
    EXPECT_EQ(r.startCycle[1], r.finishCycle[0]);
    EXPECT_EQ(r.makespanCycles, r.serialCycles);
}

TEST(ScheduledReplay, ChargesLaunchOverheadPerLaunch)
{
    PipelineConfig cfg;
    std::vector<ScheduledLaunch> q{launchOn(0)};
    auto r = replayScheduledQueue(q, 1 << 10, cfg);
    EXPECT_EQ(r.makespanCycles,
              r.perLaunch[0].totalCycles + cfg.launchOverheadCycles);

    // Fusing N launches into one saves (N-1) fixed overheads: the
    // same work split into two launches costs one more overhead.
    std::vector<ScheduledLaunch> two{launchOn(0), launchOn(0)};
    auto r2 = replayScheduledQueue(two, 1 << 10, cfg);
    EXPECT_EQ(r2.makespanCycles, r2.perLaunch[0].totalCycles
                                     + r2.perLaunch[1].totalCycles
                                     + 2 * cfg.launchOverheadCycles);
}

TEST(ScheduledReplay, PerLaunchBreakdownIgnoresStreamsAndDeps)
{
    // A launch's simulated cost depends only on its kind and volume:
    // the same launches on one stream, on two streams, or chained by
    // a dependency get identical per-launch breakdowns; only the
    // timeline differs.
    auto place = [](int second_stream, std::vector<std::size_t> deps) {
        std::vector<ScheduledLaunch> q{launchOn(0),
                                       launchOn(second_stream,
                                                std::move(deps))};
        q[0].launch = {KernelKind::Ntt, u64(1) << 18};
        return replayScheduledQueue(q, 1 << 10);
    };
    auto serial = place(0, {});
    auto overlapped = place(1, {});
    auto chained = place(1, {0});

    for (const auto *r : {&overlapped, &chained}) {
        ASSERT_EQ(r->perLaunch.size(), serial.perLaunch.size());
        for (std::size_t i = 0; i < serial.perLaunch.size(); ++i) {
            EXPECT_EQ(r->perLaunch[i].totalCycles,
                      serial.perLaunch[i].totalCycles);
            EXPECT_EQ(r->perLaunch[i].issuedCycles,
                      serial.perLaunch[i].issuedCycles);
            EXPECT_EQ(r->perLaunch[i].stalls, serial.perLaunch[i].stalls);
        }
    }
    EXPECT_EQ(serial.makespanCycles, serial.serialCycles);
    EXPECT_LT(overlapped.makespanCycles, serial.makespanCycles);
    EXPECT_EQ(chained.makespanCycles, serial.makespanCycles);
}

} // namespace
} // namespace tensorfhe::gpu
