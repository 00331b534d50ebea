/**
 * @file
 * Process-wide instrumentation for the seven reusable kernels of the
 * paper's hierarchical CKKS reconstruction (Table II). Every kernel
 * entry point records wall time and invocation counts here; the
 * breakdown benches (Figs. 11-13) read them back.
 */

#ifndef TENSORFHE_COMMON_STATS_HH
#define TENSORFHE_COMMON_STATS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace tensorfhe
{

/** The reusable arithmetic kernels of Table II. */
enum class KernelKind : int
{
    Ntt = 0,
    Intt,
    HadaMult,
    EleAdd,
    EleSub,
    FrobeniusMap,
    Conjugate,
    Conv,
    Segment,   ///< TCU path: u32 -> 4 x u8 (paper Fig. 7)
    Fusion,    ///< TCU path: Booth-style partial-product fusion
    TcuGemm,   ///< TCU path: INT8 GEMM
    FusedEle,  ///< graph-fused elementwise chain (one span pass)
    NumKinds
};

constexpr std::size_t kNumKernelKinds =
    static_cast<std::size_t>(KernelKind::NumKinds);

/** Human-readable kernel name (matches the paper's figure legends). */
const char *kernelKindName(KernelKind k);

/** Accumulated counters for one kernel kind. */
struct KernelCounter
{
    std::atomic<u64> invocations{0};
    std::atomic<u64> nanos{0};
    std::atomic<u64> elements{0}; ///< coefficients processed
};

/**
 * One recorded kernel dispatch — the unit of the kernel-queue
 * description the exec layer emits. A queue of these is what the
 * GPU pipeline simulator consumes to replay an operation's kernel
 * schedule (gpu::replayScheduledQueue).
 */
struct KernelLaunch
{
    KernelKind kind;
    u64 elements = 0; ///< coefficients the dispatch touched
};

/** Global registry of kernel counters. */
class KernelStats
{
  public:
    static KernelStats &instance();

    void
    record(KernelKind k, u64 nanos, u64 elements)
    {
        auto &c = counters_[static_cast<std::size_t>(k)];
        c.invocations.fetch_add(1, std::memory_order_relaxed);
        c.nanos.fetch_add(nanos, std::memory_order_relaxed);
        c.elements.fetch_add(elements, std::memory_order_relaxed);
        if (queueEnabled_.load(std::memory_order_relaxed))
            enqueue(k, elements);
    }

    /**
     * Start capturing the kernel-launch sequence alongside the
     * aggregate counters. The queue is the machine-readable dispatch
     * schedule of everything executed until stopQueue(); benches feed
     * it to gpu::replayScheduledQueue. Thread-safe; launches from
     * concurrent dispatches interleave in completion order.
     */
    void startQueue();
    /** Stop capturing and return the recorded launch sequence. */
    std::vector<KernelLaunch> stopQueue();

    const KernelCounter &
    counter(KernelKind k) const
    {
        return counters_[static_cast<std::size_t>(k)];
    }

    /** Zero every counter (benches call this between sections). */
    void reset();

    /** Total recorded nanoseconds across all kernels. */
    u64 totalNanos() const;

    /**
     * RAII queue capture: startQueue() on construction, and — unless
     * take() already harvested the launches — stopQueue() on
     * destruction, so a throwing dispatch can never leak an open
     * capture into the next run (the resilient graph executor holds
     * one of these per node attempt; a failed attempt's launches are
     * discarded with the guard).
     */
    class QueueCapture
    {
      public:
        explicit QueueCapture(bool enable = true) : armed_(enable)
        {
            if (armed_)
                KernelStats::instance().startQueue();
        }

        ~QueueCapture()
        {
            if (armed_)
                KernelStats::instance().stopQueue();
        }

        QueueCapture(const QueueCapture &) = delete;
        QueueCapture &operator=(const QueueCapture &) = delete;

        /** Stop capturing and return the recorded launches. */
        std::vector<KernelLaunch>
        take()
        {
            if (!armed_)
                return {};
            armed_ = false;
            return KernelStats::instance().stopQueue();
        }

      private:
        bool armed_;
    };

  private:
    KernelStats() = default;
    void enqueue(KernelKind k, u64 elements);

    std::array<KernelCounter, kNumKernelKinds> counters_;
    std::atomic<bool> queueEnabled_{false};
    std::mutex queueMu_;
    std::vector<KernelLaunch> queue_;
};

/** RAII timer recording into KernelStats on destruction. */
class ScopedKernelTimer
{
  public:
    ScopedKernelTimer(KernelKind kind, u64 elements)
        : kind_(kind), elements_(elements),
          start_(std::chrono::steady_clock::now())
    {}

    ~ScopedKernelTimer()
    {
        auto stop = std::chrono::steady_clock::now();
        u64 ns = static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                stop - start_).count());
        KernelStats::instance().record(kind_, ns, elements_);
        // Kernel-level trace span, reusing the timestamps this timer
        // already took (disarmed: one relaxed load).
        if (trace::Tracer::armed()) {
            trace::SpanArg arg{"elements",
                               static_cast<s64>(elements_)};
            trace::Tracer::span(
                "kernel", kernelKindName(kind_),
                static_cast<u64>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        start_.time_since_epoch()).count()),
                ns, &arg, 1);
        }
    }

    ScopedKernelTimer(const ScopedKernelTimer &) = delete;
    ScopedKernelTimer &operator=(const ScopedKernelTimer &) = delete;

  private:
    KernelKind kind_;
    u64 elements_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * The homomorphic operations of paper Table II plus the two phases of
 * generalized key-switching (Halevi-Shoup hoisting). The evaluators
 * record every executed operation here so workload runs can be
 * cross-checked against the analytic op-count models (models.cc) and
 * layer plans (nn) — the functional counterpart of the Fig. 13
 * operation breakdown.
 */
enum class EvalOpKind : int
{
    HMult = 0,
    CMult,
    HAdd,
    HRotate,
    Conjugate,
    Rescale,
    KsHoist, ///< key-switch heads (Dcomp+ModUp+NTT)
    KsTail,  ///< key-switch tails (inner product + ModDown)
    NumOps
};

constexpr std::size_t kNumEvalOpKinds =
    static_cast<std::size_t>(EvalOpKind::NumOps);

const char *evalOpKindName(EvalOpKind k);

/**
 * A snapshot (or analytic prediction) of executed-operation counts.
 * Doubles so models can scale fractionally; executed snapshots hold
 * exact integers.
 */
struct EvalOpCounts
{
    double hmult = 0;
    double cmult = 0;
    double hadd = 0;
    double hrotate = 0;
    double conjugate = 0;
    double rescale = 0;
    double ksHoist = 0;
    double ksTail = 0;

    double get(EvalOpKind k) const;
    void set(EvalOpKind k, double v);

    EvalOpCounts &
    operator+=(const EvalOpCounts &o)
    {
        hmult += o.hmult;
        cmult += o.cmult;
        hadd += o.hadd;
        hrotate += o.hrotate;
        conjugate += o.conjugate;
        rescale += o.rescale;
        ksHoist += o.ksHoist;
        ksTail += o.ksTail;
        return *this;
    }

    friend EvalOpCounts
    operator*(double k, const EvalOpCounts &c)
    {
        EvalOpCounts out;
        out.hmult = k * c.hmult;
        out.cmult = k * c.cmult;
        out.hadd = k * c.hadd;
        out.hrotate = k * c.hrotate;
        out.conjugate = k * c.conjugate;
        out.rescale = k * c.rescale;
        out.ksHoist = k * c.ksHoist;
        out.ksTail = k * c.ksTail;
        return out;
    }

    friend EvalOpCounts
    operator-(EvalOpCounts a, const EvalOpCounts &b)
    {
        a.hmult -= b.hmult;
        a.cmult -= b.cmult;
        a.hadd -= b.hadd;
        a.hrotate -= b.hrotate;
        a.conjugate -= b.conjugate;
        a.rescale -= b.rescale;
        a.ksHoist -= b.ksHoist;
        a.ksTail -= b.ksTail;
        return a;
    }
};

/**
 * Process-wide executed-operation counters (the operation-level
 * sibling of KernelStats). Scalar and batched evaluators record the
 * same counts per logical ciphertext, so a batched run over B slots
 * reads exactly B times the scalar counts.
 *
 * All counters are lock-free relaxed atomics, so record() is safe
 * from inside parallel dispatches (worker lanes of the unified exec
 * path record concurrently); snapshot() reads each counter once and
 * never tears. tests/common/test_stats_race.cc hammers this from a
 * full pool.
 */
class EvalOpStats
{
  public:
    static EvalOpStats &instance();

    void
    record(EvalOpKind k, u64 count = 1)
    {
        counts_[static_cast<std::size_t>(k)].fetch_add(
            count, std::memory_order_relaxed);
    }

    /**
     * Basis-conversion procedure counters (one count per ModUp of one
     * digit / per ModDown of one accumulator). Not part of
     * EvalOpCounts — the op-count models predict Table II operations;
     * these track the conversion work inside them, which the
     * double-hoisted BSGS path reduces (bench_keyswitch_hoist prints
     * the drop, BENCH_PR4.json records it).
     */
    void
    recordModUp(u64 count = 1)
    {
        modUps_.fetch_add(count, std::memory_order_relaxed);
    }
    void
    recordModDown(u64 count = 1)
    {
        modDowns_.fetch_add(count, std::memory_order_relaxed);
    }
    u64
    modUps() const
    {
        return modUps_.load(std::memory_order_relaxed);
    }
    u64
    modDowns() const
    {
        return modDowns_.load(std::memory_order_relaxed);
    }

    /** Zero every counter (benches call this between sections). */
    void reset();

    EvalOpCounts snapshot() const;

    /**
     * Exact raw counter image, restorable. The resilient graph
     * executor snapshots before every node attempt and restores on
     * failure, so a retried run's executed-op accounting is
     * IDENTICAL to an uninterrupted run (the modeled-vs-executed
     * cross-check stays exact under faults). Restore is only
     * coherent while no other thread records — the executor retries
     * between dispatches, never inside one.
     */
    struct RawCounts
    {
        std::array<u64, kNumEvalOpKinds> ops{};
        u64 modUps = 0;
        u64 modDowns = 0;
    };

    RawCounts rawSnapshot() const;
    void restore(const RawCounts &raw);

  private:
    EvalOpStats() = default;
    std::array<std::atomic<u64>, kNumEvalOpKinds> counts_{};
    std::atomic<u64> modUps_{0};
    std::atomic<u64> modDowns_{0};
};

} // namespace tensorfhe

#endif // TENSORFHE_COMMON_STATS_HH
