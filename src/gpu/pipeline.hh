/**
 * @file
 * Scoreboarded SM pipeline simulator with stall attribution.
 *
 * Models one SM running W warps of a common trace under a
 * greedy-then-oldest scheduler. Each cycle either issues one
 * instruction or records a stall, classified into the six categories
 * of the paper's Fig. 4:
 *   RAW          operand pending from a short-latency ALU producer
 *   LongLatency  operand pending from a global-memory load
 *   L1I          instruction fetch miss (footprint model)
 *   Control      post-branch fetch bubble
 *   FuBusy       all ports of the needed function unit busy
 *   Barrier      warp parked at a block barrier
 *
 * Following the paper ("we consider only the stall cycles that cannot
 * be hidden"), a stall is charged only when *no* warp can issue, and
 * it is attributed to the blocking reason of the oldest warp.
 */

#ifndef TENSORFHE_GPU_PIPELINE_HH
#define TENSORFHE_GPU_PIPELINE_HH

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "gpu/device.hh"
#include "gpu/trace.hh"

namespace tensorfhe
{
class ThreadPool;
}

namespace tensorfhe::gpu
{

/** Stall categories (paper Fig. 4 legend). */
enum class Stall : int
{
    Raw = 0,
    LongLatency,
    L1I,
    Control,
    FuBusy,
    Barrier,
    NumKinds
};

const char *stallName(Stall s);

struct StallBreakdown
{
    u64 totalCycles = 0;
    u64 issuedCycles = 0;
    std::array<u64, static_cast<std::size_t>(Stall::NumKinds)> stalls{};

    u64
    stallCycles() const
    {
        u64 sum = 0;
        for (u64 s : stalls)
            sum += s;
        return sum;
    }

    double
    stallFraction(Stall s) const
    {
        return totalCycles == 0
            ? 0.0
            : static_cast<double>(
                  stalls[static_cast<std::size_t>(s)])
                / static_cast<double>(totalCycles);
    }

    double
    totalStallFraction() const
    {
        return totalCycles == 0
            ? 0.0
            : static_cast<double>(stallCycles())
                / static_cast<double>(totalCycles);
    }
};

/** Latency/port configuration; defaults approximate a Pascal SM. */
struct PipelineConfig
{
    int aluLatency = 4;
    int mulLatency = 6;
    int madLatency = 6;
    int modLatency = 36;     ///< division-based modulo sequence
    int faddLatency = 4;
    int fmulLatency = 4;
    int ldgLatency = 400;    ///< global memory
    int ldsLatency = 24;     ///< shared memory
    int stLatency = 1;
    int mmaLatency = 16;
    int branchBubble = 2;
    int aluPorts = 4;        ///< issue slots per cycle for ALU class
    int memPorts = 1;
    int mmaPorts = 1;
    /** Fixed launch/teardown cost charged per kernel in the scheduled
        queue replay (replayScheduledQueue) — the host-side latency a
        fused launch amortizes. Does not affect simulateSm itself. */
    u64 launchOverheadCycles = 200;
    double l1iMissRate(std::size_t footprint) const
    {
        // Instruction cache pressure grows with static footprint;
        // saturates at 4%.
        double r = static_cast<double>(footprint) / 4096.0;
        return r > 0.04 ? 0.04 : r;
    }
};

/**
 * Simulate `warps` copies of `trace` on one SM.
 * Deterministic: no randomness; the L1I model charges a miss every
 * 1/missRate fetches.
 */
StallBreakdown simulateSm(const WarpTrace &trace, int warps,
                          const PipelineConfig &cfg = {});

/** One (trace, warp-count) simulation request. */
using SmJob = std::pair<const WarpTrace *, int>;

/**
 * Simulate every job, dispatched across `pool` (null = process-global)
 * — the benches' kernel x configuration sweeps are embarrassingly
 * parallel, and each simulation is deterministic, so results are
 * identical to serial simulateSm calls in job order.
 */
std::vector<StallBreakdown> simulateSmBatch(const std::vector<SmJob> &jobs,
                                            const PipelineConfig &cfg = {},
                                            ThreadPool *pool = nullptr);

/** Aggregate a queue replay into one breakdown (cycle-weighted sum). */
StallBreakdown sumBreakdowns(const std::vector<StallBreakdown> &parts);

/**
 * One launch of a SCHEDULED kernel queue: the recorded launch plus
 * the graph scheduler's placement — which stream it runs on and
 * which earlier launches (by queue index) must finish first.
 */
struct ScheduledLaunch
{
    KernelLaunch launch;
    int stream = 0;
    /** Queue indices of producer launches (always < own index). */
    std::vector<std::size_t> deps;
};

/**
 * Replay of a scheduled queue: per-launch breakdowns plus the
 * timeline. A launch starts when its stream is free AND every
 * dependency has finished, so independent streams overlap and the
 * makespan is the critical path, not the serial sum. Each launch
 * is additionally charged cfg.launchOverheadCycles, so fusing N
 * elementwise launches into one shows up as N-1 saved overheads.
 */
struct QueueReplay
{
    std::vector<StallBreakdown> perLaunch;
    std::vector<u64> startCycle;  ///< per launch, scheduled start
    std::vector<u64> finishCycle; ///< per launch, scheduled finish
    u64 makespanCycles = 0;       ///< critical-path finish
    u64 serialCycles = 0;         ///< back-to-back finish (1 stream)
    int streamsUsed = 0;

    /** Cycle-weighted stall fraction over every launch's pipeline
        breakdown (stream overlap does not change per-launch stalls;
        it changes the makespan). */
    double
    totalStallFraction() const
    {
        return sumBreakdowns(perLaunch).totalStallFraction();
    }
};

/**
 * Replay a recorded kernel queue (the dispatch schedule the unified
 * exec layer emits through KernelStats::startQueue/stopQueue) on the
 * SM model: every launch is mapped to a representative warp trace —
 * NTT/INTT to the butterfly trace, TCU-GEMM to the GEMM trace,
 * everything elementwise (Hada-Mult, Ele-Add/Sub, FrobeniusMap,
 * Conv, Segment, Fusion) to the streaming trace — with the warp
 * count scaled by the launch's element volume. The timeline obeys
 * the scheduler's stream assignment and dependencies; a queue with
 * every launch on stream 0 and no deps replays back-to-back in
 * recorded order. Deterministic.
 *
 * @param n poly length used to shape the representative traces
 */
QueueReplay
replayScheduledQueue(const std::vector<ScheduledLaunch> &queue,
                     std::size_t n, const PipelineConfig &cfg = {},
                     ThreadPool *pool = nullptr);

} // namespace tensorfhe::gpu

#endif // TENSORFHE_GPU_PIPELINE_HH
