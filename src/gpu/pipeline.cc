#include "gpu/pipeline.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "fault/fault.hh"

namespace tensorfhe::gpu
{

const char *
stallName(Stall s)
{
    switch (s) {
      case Stall::Raw: return "RAW Stall";
      case Stall::LongLatency: return "Long Latency Stall";
      case Stall::L1I: return "L1I Miss Stall";
      case Stall::Control: return "Control Hazard Stall";
      case Stall::FuBusy: return "Function Unit Busy Stall";
      case Stall::Barrier: return "Barrier Stall";
      default: TFHE_ASSERT(false); return "?";
    }
}

namespace
{

/** Function-unit classes sharing issue ports. */
enum class FuClass
{
    Alu,
    Mem,
    Mma
};

FuClass
fuClassOf(Op op)
{
    switch (op) {
      case Op::Ldg:
      case Op::Stg:
      case Op::Lds:
      case Op::Sts:
        return FuClass::Mem;
      case Op::Mma:
        return FuClass::Mma;
      default:
        return FuClass::Alu;
    }
}

struct WarpState
{
    std::size_t pc = 0;
    bool done = false;
    bool waiting = false;       ///< parked at barrier
    u64 fetchReady = 0;
    Stall fetchReason = Stall::Control;
    u64 fetches = 0;
    u64 drainUntil = 0;         ///< latest outstanding write-back
    std::vector<u64> regReady;
    std::vector<bool> regFromLoad;
};

} // namespace

StallBreakdown
simulateSm(const WarpTrace &trace, int warps, const PipelineConfig &cfg)
{
    TFHE_ASSERT(warps >= 1);
    int max_reg = 0;
    for (const auto &in : trace.instrs)
        max_reg = std::max({max_reg, in.dst, in.src0, in.src1});

    std::vector<WarpState> w(warps);
    for (auto &ws : w) {
        ws.regReady.assign(static_cast<std::size_t>(max_reg) + 1, 0);
        ws.regFromLoad.assign(static_cast<std::size_t>(max_reg) + 1,
                              false);
    }

    double miss_rate = cfg.l1iMissRate(trace.footprintInstrs);
    u64 miss_every = miss_rate > 0
        ? static_cast<u64>(1.0 / miss_rate)
        : ~u64(0);

    auto latency = [&](Op op) -> int {
        switch (op) {
          case Op::IAdd: return cfg.aluLatency;
          case Op::IMul: return cfg.mulLatency;
          case Op::IMad: return cfg.madLatency;
          case Op::Mod: return cfg.modLatency;
          case Op::FAdd: return cfg.faddLatency;
          case Op::FMul: return cfg.fmulLatency;
          case Op::Ldg: return cfg.ldgLatency;
          case Op::Lds: return cfg.ldsLatency;
          case Op::Stg:
          case Op::Sts: return cfg.stLatency;
          case Op::Mma: return cfg.mmaLatency;
          case Op::Bra:
          case Op::Bar: return 1;
        }
        return 1;
    };

    StallBreakdown bd;
    u64 cycle = 0;
    std::size_t last_issued = 0;
    const u64 cycle_cap = 500'000'000ull;

    auto all_done = [&] {
        for (const auto &ws : w)
            if (!ws.done)
                return false;
        return true;
    };

    // Barrier protocol: a warp issuing Bar parks *at* the Bar pc;
    // release requires every live warp parked (necessarily at the
    // same barrier, since releases are atomic) *and* fully drained —
    // in-flight writes must land so the next stage's shared-memory
    // reads observe them. The drain is what charges barrier stalls
    // to the straggler's outstanding latency.
    auto try_release_barrier = [&](u64 now) {
        for (const auto &ws : w)
            if (!ws.done && (!ws.waiting || ws.drainUntil > now))
                return;
        for (auto &ws : w) {
            if (ws.done)
                continue;
            ws.waiting = false;
            ++ws.pc;
            if (ws.pc == trace.instrs.size())
                ws.done = true;
        }
    };

    while (!all_done()) {
        TFHE_ASSERT(cycle < cycle_cap, "pipeline sim runaway");
        int alu_ports = cfg.aluPorts;
        int mem_ports = cfg.memPorts;
        int mma_ports = cfg.mmaPorts;
        int issued_this_cycle = 0;
        const int issue_width = 2;
        // Votes per blocking reason across all blocked warps; a fully
        // stalled cycle is attributed to the majority reason.
        std::array<int, static_cast<std::size_t>(Stall::NumKinds)>
            votes{};

        for (int k = 0; k < warps && issued_this_cycle < issue_width;
             ++k) {
            // Greedy-then-oldest: resume from the last issuing warp.
            std::size_t wi = (last_issued + static_cast<std::size_t>(k))
                % static_cast<std::size_t>(warps);
            WarpState &ws = w[wi];
            if (ws.done)
                continue;

            auto blocked = [&](Stall why) {
                ++votes[static_cast<std::size_t>(why)];
            };

            if (ws.waiting) {
                blocked(Stall::Barrier);
                continue;
            }
            if (ws.fetchReady > cycle) {
                blocked(ws.fetchReason);
                continue;
            }
            const Instr &in = trace.instrs[ws.pc];
            // Operand scoreboard.
            bool pending = false;
            bool from_load = false;
            for (int src : {in.src0, in.src1}) {
                if (src >= 0 && ws.regReady[src] > cycle) {
                    pending = true;
                    from_load = from_load || ws.regFromLoad[src];
                }
            }
            if (pending) {
                blocked(from_load ? Stall::LongLatency : Stall::Raw);
                continue;
            }
            // Port availability.
            FuClass fc = fuClassOf(in.op);
            int &ports = fc == FuClass::Mem
                ? mem_ports
                : fc == FuClass::Mma ? mma_ports : alu_ports;
            if (ports == 0) {
                blocked(Stall::FuBusy);
                continue;
            }
            --ports;

            // Issue.
            if (in.dst >= 0) {
                ws.regReady[in.dst] = cycle + latency(in.op);
                ws.regFromLoad[in.dst] = in.op == Op::Ldg;
                ws.drainUntil = std::max(ws.drainUntil,
                                         ws.regReady[in.dst]);
            }
            ++ws.fetches;
            if (miss_every != ~u64(0) && ws.fetches % miss_every == 0) {
                ws.fetchReady = cycle + 1 + 20;
                ws.fetchReason = Stall::L1I;
            }
            if (in.op == Op::Bra) {
                ws.fetchReady = cycle + 1 + cfg.branchBubble;
                ws.fetchReason = Stall::Control;
            }
            if (in.op == Op::Bar) {
                ws.waiting = true; // parks at the Bar pc
                try_release_barrier(cycle);
            } else {
                ++ws.pc;
                if (ws.pc == trace.instrs.size())
                    ws.done = true;
            }
            ++issued_this_cycle;
            last_issued = wi;
        }

        if (issued_this_cycle > 0) {
            ++bd.issuedCycles;
        } else {
            std::size_t best = 0;
            for (std::size_t s = 1; s < votes.size(); ++s)
                if (votes[s] > votes[best])
                    best = s;
            ++bd.stalls[best];
        }
        // Barriers can release even in stall cycles (all parked).
        try_release_barrier(cycle);
        ++bd.totalCycles;
        ++cycle;
    }
    return bd;
}

std::vector<StallBreakdown>
simulateSmBatch(const std::vector<SmJob> &jobs, const PipelineConfig &cfg,
                ThreadPool *pool)
{
    std::vector<StallBreakdown> out(jobs.size());
    if (!pool)
        pool = &ThreadPool::global();
    pool->parallelFor(0, jobs.size(), [&](std::size_t i) {
        out[i] = simulateSm(*jobs[i].first, jobs[i].second, cfg);
    });
    return out;
}

namespace
{

/** The three representative traces covering the kernel taxonomy. */
struct ReplayTraces
{
    WarpTrace ntt;
    WarpTrace gemm;
    WarpTrace ele;

    explicit ReplayTraces(std::size_t n)
        : ntt(butterflyNttTrace(n, 128)), gemm(gemmNttTrace(n, 128)),
          ele(elementwiseTrace(n, 256))
    {}

    SmJob
    jobFor(const KernelLaunch &launch) const
    {
        const WarpTrace *t = &ele;
        switch (launch.kind) {
          case KernelKind::Ntt:
          case KernelKind::Intt:
            t = &ntt;
            break;
          case KernelKind::TcuGemm:
            t = &gemm;
            break;
          default:
            break;
        }
        // Warp occupancy scales with the launch's element volume —
        // a whole-batch dispatch fills the SM, a single-limb fixup
        // does not (paper SIV-D's motivation for batching).
        int warps = static_cast<int>(launch.elements / 4096);
        if (warps < 1)
            warps = 1;
        if (warps > 32)
            warps = 32;
        return {t, warps};
    }
};

} // namespace

QueueReplay
replayScheduledQueue(const std::vector<ScheduledLaunch> &queue,
                     std::size_t n, const PipelineConfig &cfg,
                     ThreadPool *pool)
{
    QueueReplay out;
    if (queue.empty())
        return out;
    ReplayTraces traces(n);
    std::vector<SmJob> jobs;
    jobs.reserve(queue.size());
    for (const auto &sl : queue)
        jobs.push_back(traces.jobFor(sl.launch));
    out.perLaunch = simulateSmBatch(jobs, cfg, pool);

    // Timeline: a launch starts when its stream frees up AND every
    // dependency has finished; streams serialize in queue order.
    out.startCycle.resize(queue.size());
    out.finishCycle.resize(queue.size());
    std::vector<u64> streamFree;
    u64 serial = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const auto &sl = queue[i];
        TFHE_FAULT_POINT("gpu/replay-dispatch");
        TFHE_ASSERT(sl.stream >= 0, "negative stream id");
        auto s = static_cast<std::size_t>(sl.stream);
        if (s >= streamFree.size())
            streamFree.resize(s + 1, 0);
        u64 start = streamFree[s];
        for (std::size_t d : sl.deps) {
            TFHE_ASSERT(d < i, "dependency on a later launch");
            start = std::max(start, out.finishCycle[d]);
        }
        u64 dur =
            out.perLaunch[i].totalCycles + cfg.launchOverheadCycles;
        out.startCycle[i] = start;
        out.finishCycle[i] = start + dur;
        streamFree[s] = out.finishCycle[i];
        out.makespanCycles =
            std::max(out.makespanCycles, out.finishCycle[i]);
        serial += dur;
    }
    out.serialCycles = serial;
    out.streamsUsed = static_cast<int>(streamFree.size());
    return out;
}

StallBreakdown
sumBreakdowns(const std::vector<StallBreakdown> &parts)
{
    StallBreakdown total;
    for (const auto &p : parts) {
        total.totalCycles += p.totalCycles;
        total.issuedCycles += p.issuedCycles;
        for (std::size_t s = 0; s < total.stalls.size(); ++s)
            total.stalls[s] += p.stalls[s];
    }
    return total;
}

} // namespace tensorfhe::gpu
