/**
 * @file
 * Graph scheduler: elementwise fusion and stream assignment.
 *
 * Fusion rewrites maximal single-consumer trees of elementwise nodes
 * (Add / Sub / AddPlain / MulPlain — the kinds whose kernels are one
 * span pass over identical (batch x tower x coeff) iteration spaces)
 * into one FusedEle node carrying an exec::FusedSpec register
 * program. Legality (docs/GRAPH_IR.md "Fusion legality"):
 *   - every member edge is single-consumer and not a graph output
 *     (the intermediate must be dead after the group);
 *   - all members share the output's level count and chunk count
 *     (one span shape);
 *   - a ct-ct Add/Sub member requires operand scales equal within
 *     the evaluator's 1e-6 relative tolerance — the same check
 *     requireCompatiblePair enforces at runtime, applied here at
 *     schedule time so an illegal chain simply stays unfused;
 *   - the register program must fit FusedSpec::kMaxRegs.
 * Fusion is bit-exact: member kernels are independent per
 * (slot, tower, coeff) cell in exact modular arithmetic, so one pass
 * computing the composed expression yields the same residues, and
 * the dispatcher replays the same scale doubles and records the same
 * EvalOpStats the members would have.
 *
 * Stream assignment models async overlap for the queue replay: each
 * node inherits the stream of the first producer it is the first
 * consumer of (pipelining), otherwise opens a fresh stream
 * (round-robin over 4) — independent branches like the
 * per-out-chunk BsgsSum programs of a block matvec land on distinct
 * streams, which gpu::replayScheduledQueue turns into overlapped
 * timelines. Stream tags never affect execution order or results.
 */

#ifndef TENSORFHE_GRAPH_SCHEDULE_HH
#define TENSORFHE_GRAPH_SCHEDULE_HH

#include "graph/ir.hh"

namespace tensorfhe::graph
{

struct ScheduleOptions
{
    bool fuse = true;
};

struct Schedule
{
    /** Live nodes in execution (topological) order. */
    std::vector<NodeId> order;
    /** Stream tag per NodeId (indexed by node id, dead nodes 0). */
    std::vector<int> stream;
    std::size_t fusedGroups = 0;  ///< FusedEle nodes emitted
    std::size_t fusedMembers = 0; ///< member ops folded into them
    int streamsUsed = 0;

    /** Elementwise launches eliminated: each group of m members
        launches once instead of m times. */
    std::size_t
    launchesSaved() const
    {
        return fusedMembers - fusedGroups;
    }
};

/**
 * Fuse (mutating `g`: appends FusedEle nodes, marks members dead)
 * and assign streams. Deterministic; safe to call with fuse=false to
 * get a pure topological order + streams over the unfused graph.
 */
Schedule scheduleGraph(Graph &g, const ScheduleOptions &opt = {});

} // namespace tensorfhe::graph

#endif // TENSORFHE_GRAPH_SCHEDULE_HH
