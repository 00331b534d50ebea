/**
 * @file
 * GraphExecutor: the runtime. Every encrypted schedule runs here —
 * nn::Sequential::run and the LSTM step execute their unfused graphs
 * (exactly the kernel sequence of a call-by-call evaluation), and
 * scheduled graphs reach the same evaluator entry points, so fused
 * and unfused runs are bit-identical by construction, not by
 * tolerance (the tests compare raw residue limbs). Every run:
 *
 *   - rejects input batches off their Input meta (level count, or
 *     scale beyond 1e-6 relative) with std::invalid_argument before
 *     any node runs;
 *   - checks every node output against its compiled level and scale
 *     (O(1) per chunk) and raises IntegrityError, with the node
 *     attached, on drift;
 *   - opens one "nn" trace span around each run of nodes lowered
 *     from the same layer (named layer->name(), chunks/level args),
 *     around the per-node "graph" spans;
 *   - frees each value after its last consumer, so memory follows
 *     the live set as in call-by-call evaluation.
 *
 * What scheduling adds:
 *
 *   - FusedEle nodes run one exec::Dispatcher::fusedElementwise span
 *     pass instead of N member launches (fewer kernel launches, same
 *     bits, same EvalOpStats);
 *   - every node's kernel launches are captured (KernelStats queue)
 *     and tagged with the scheduler's stream plus explicit
 *     dependencies, producing the gpu::ScheduledLaunch queue that
 *     gpu::replayScheduledQueue overlaps on the GPU model;
 *   - prestageWorkspace() walks the graph's scratch demand once and
 *     seeds the exec::Workspace arena, so even the first run of a
 *     compiled graph checks out no newly allocated buffer.
 *
 * Resilience (this layer is where the fault story composes):
 *
 *   - a node that raises TransientFault — or IntegrityError on its
 *     own freshly produced output — is retried at once, up to
 *     RetryPolicy::maxAttempts. The graph is SSA and the node kinds
 *     are pure (inputs are read, never mutated), so a
 *     successful retry is bit-identical to an uninterrupted run; the
 *     failed attempt's EvalOpStats are rolled back and its captured
 *     launches discarded, so the accounting is identical too.
 *   - paranoid mode adds a structural scan of every value crossing
 *     a node boundary (residues < q_i, component shapes) and keeps
 *     per-chunk checksums, re-verified when a value is consumed:
 *     at-rest corruption raises IntegrityError with the node
 *     attached instead of decrypting to a silently wrong logit.
 *   - checkpointEvery > 0 snapshots the live value set at
 *     scheduler-chosen minimum-footprint cuts; resumeFrom() verifies
 *     the snapshot's checksums and re-executes only the nodes
 *     downstream of the cut.
 *   - strong exception safety: a failed run leaves the engine
 *     reusable — pooled leases return via RAII unwinding, the
 *     kernel-queue capture is closed by its guard, and the failed
 *     node's EvalOpStats contribution is rolled back.
 */

#ifndef TENSORFHE_GRAPH_EXECUTOR_HH
#define TENSORFHE_GRAPH_EXECUTOR_HH

#include "gpu/pipeline.hh"
#include "graph/schedule.hh"
#include "resilience/checkpoint.hh"
#include "resilience/retry.hh"

namespace tensorfhe::graph
{

struct ExecOptions
{
    /** Capture the per-node kernel launches into a scheduled queue
        (KernelStats queue capture; modest overhead). */
    bool captureSchedule = false;

    /** Validate + checksum every value at node boundaries; consumed
        values are re-verified against their stored digest (the
        level/scale meta check runs in every mode). */
    bool paranoid = false;

    /** Per-node retry of transient faults (maxAttempts = 1 disables). */
    resilience::RetryPolicy retry;

    /** Snapshot the live value set roughly every N executed nodes at
        the cheapest cut in each window (0 disables). */
    std::size_t checkpointEvery = 0;

    /** Where checkpoints are appended (required when
        checkpointEvery > 0). */
    std::vector<resilience::Checkpoint> *checkpointLog = nullptr;
};

struct ExecResult
{
    /** One batch per graph output, in Graph::outputs order. */
    std::vector<Cts> outputs;
    /** Stream- and dependency-tagged launch queue (when captured). */
    std::vector<gpu::ScheduledLaunch> schedule;
    std::size_t launchCount = 0;
    /** Node re-executions that recovered a transient failure. */
    std::size_t retriesUsed = 0;
    std::size_t checkpointsTaken = 0;
};

class GraphExecutor
{
  public:
    GraphExecutor(const Graph &g, Schedule sched)
        : g_(&g), sched_(std::move(sched))
    {}

    /**
     * Execute over one batch per graph input (Graph::inputs order);
     * every input must hold meta.chunkCount * B ciphertexts for one
     * common batch size B, laid out sample-major, at the Input's
     * level count and scale (std::invalid_argument otherwise).
     */
    ExecResult run(const nn::NnEngine &engine,
                   std::vector<Cts> inputs,
                   const ExecOptions &opt = {}) const;

    /**
     * Resume a failed run from a checkpoint this executor's graph
     * wrote: verifies the snapshot's per-chunk checksums (a corrupted
     * checkpoint raises IntegrityError, never resumes into garbage),
     * restores the live values, and executes only the schedule suffix
     * from the cut. Bit-identical to a straight-through run. The
     * checkpoint is read, not consumed — a second resume works.
     */
    ExecResult resumeFrom(const nn::NnEngine &engine,
                          const resilience::Checkpoint &cp,
                          const ExecOptions &opt = {}) const;

    /**
     * Seed the engine's workspace arena with the largest scratch
     * shape the tower admits (the key-switch union basis), enough
     * buffers for the most leases any node holds at once (its batch
     * times its key-switch digits, working rows and, for a BsgsSum,
     * baby table): the arena's best fit (one ordered-map lookup)
     * then serves every checkout of a cold run from the pool.
     */
    void prestageWorkspace(const nn::NnEngine &engine,
                           std::size_t batch) const;

    const Schedule &schedule() const { return sched_; }
    const Graph &graph() const { return *g_; }

  private:
    ExecResult runSchedule(const nn::NnEngine &engine,
                           std::vector<Cts> &vals,
                           std::vector<std::vector<u64>> &sums,
                           std::vector<Cts> inputs,
                           std::size_t startPos,
                           const ExecOptions &opt) const;

    const Graph *g_;
    Schedule sched_;
};

} // namespace tensorfhe::graph

#endif // TENSORFHE_GRAPH_EXECUTOR_HH
