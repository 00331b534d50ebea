/**
 * @file
 * Kernel dataflow graph IR — the AOT-compiled form of an encrypted
 * op stream (see docs/GRAPH_IR.md for the full vocabulary and the
 * legality rules).
 *
 * A Graph is an SSA-style dataflow program over *values*: each value
 * is one uniform batch of ciphertexts (`chunkCount` ciphertexts per
 * sample, laid out sample-major `[s * chunkCount + c]`, exactly the
 * flattening nn::Sequential::run uses). Nodes are the primitives of
 * the unified exec/batch layer — every node kind maps 1:1 onto a
 * batch::BatchedEvaluator / exec::Dispatcher entry point. The graph
 * is the only runtime form of an encrypted schedule: nn layers
 * lower into it (nn::Layer::lower), nn::Sequential::run and the LSTM
 * step execute their unfused graphs, and fused schedules of the same
 * graph stay BIT-IDENTICAL to the unfused one: same kernels, same
 * operand order, same scale arithmetic, same EvalOpStats accounting.
 *
 * Scheduling does what call-by-call execution cannot:
 *   - FUSE adjacent elementwise launches (Add/Sub/AddPlain/MulPlain
 *     chains) into one FusedEle span pass (exec::FusedSpec);
 *   - OVERLAP independent branches (the per-out-chunk BsgsSum
 *     programs of a block matvec, the two gate matvecs of an LSTM
 *     step) by assigning them to different streams for the GPU
 *     queue replay (gpu::replayScheduledQueue);
 *   - PRE-STAGE the workspace arena with the scratch shapes the
 *     graph will demand, so even a cold run hits steady-state reuse.
 *
 * Build with graph::GraphBuilder (builder.hh), schedule with
 * graph::scheduleGraph (schedule.hh), run with graph::GraphExecutor
 * (executor.hh).
 *
 * Lifetime: nodes hold non-owning pointers into the compiled layers
 * they were lowered from (plaintext masks/biases, BSGS plans, the
 * opaque bootstrap layer, the per-layer span tag). The layer objects
 * must outlive the graph.
 */

#ifndef TENSORFHE_GRAPH_IR_HH
#define TENSORFHE_GRAPH_IR_HH

#include <vector>

#include "boot/linear.hh"
#include "ckks/crypto.hh"
#include "exec/kernels.hh"
#include "nn/layers.hh"

namespace tensorfhe::graph
{

using Cts = std::vector<ckks::Ciphertext>;
using ValueId = std::size_t;
using NodeId = std::size_t;

/** Producer sentinel of graph-input values. */
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/** Node vocabulary; each kind names the evaluator entry it runs. */
enum class NodeKind : int
{
    Input = 0,       ///< bind one caller-supplied batch
    Add,             ///< BatchedEvaluator::add
    Sub,             ///< BatchedEvaluator::sub
    AddPlain,        ///< BatchedEvaluator::addPlain (shared pt)
    MulPlain,        ///< BatchedEvaluator::multiplyPlain
    MulConstToScale, ///< BatchedEvaluator::multiplyConstToScale
    AddConst,        ///< BatchedEvaluator::addConst
    Rescale,         ///< BatchedEvaluator::rescale
    Multiply,        ///< BatchedEvaluator::multiply (HMULT+relin)
    RotateMany,      ///< rotateManyBatch; one output per step
    Drop,            ///< dropToLevelCount (metadata, no kernels)
    SetScale,        ///< exact scale reset (pure metadata)
    Unpack,          ///< flat [s*k+c] -> k per-chunk values
    Pack,            ///< k per-chunk values -> flat [s*k+c]
    BsgsSum,         ///< Dispatcher::applyBsgsSum over term chunks
    LayerApply,      ///< opaque nn::Bootstrap::refresh
    FusedEle,        ///< scheduler-emitted fused elementwise chain
    MulPlainRescale, ///< scheduler-emitted fused CMULT+RESCALE
    NumKinds
};

const char *nodeKindName(NodeKind k);

/**
 * Compile-time description of one value: the per-sample ciphertext
 * count plus the CKKS budget coordinates the builder propagates with
 * the same arithmetic the evaluators use at runtime (the scheduler's
 * fusion-legality checks read these; execution re-derives the real
 * scales from the live ciphertexts).
 */
struct ValueMeta
{
    std::size_t chunkCount = 1; ///< ciphertexts per sample
    std::size_t levelCount = 0;
    double scale = 0.0;
    NodeId producer = kNoNode;
    bool isOutput = false; ///< graph output (never fused away)
};

struct Node
{
    NodeKind kind = NodeKind::Input;
    std::vector<ValueId> inputs;
    std::vector<ValueId> outputs;

    /// AddPlain / MulPlain payload (layer-owned, non-owning).
    const ckks::Plaintext *pt = nullptr;
    /// MulConstToScale / AddConst constant.
    double constant = 0.0;
    /// MulConstToScale / SetScale target scale.
    double targetScale = 0.0;
    /// Drop target level count.
    std::size_t levelCount = 0;
    /// RotateMany steps (outputs[i] = input rotated by steps[i]).
    std::vector<s64> steps;
    /// BsgsSum: plan of term t, applied to input value t's batch.
    std::vector<const boot::LinearTransformPlan *> plans;
    /// LayerApply target (non-owning).
    const nn::Bootstrap *bootstrap = nullptr;
    /// The layer this node was lowered from (null for hand-built
    /// nodes); the executor opens one nn span per run of equal tags.
    const nn::Layer *layer = nullptr;
    /// FusedEle register program + its plaintext table.
    exec::FusedSpec fused;
    std::vector<const ckks::Plaintext *> fusedPts;

    /// Folded into a FusedEle group; never executed.
    bool dead = false;
};

struct Graph
{
    std::vector<Node> nodes;
    std::vector<ValueMeta> values;
    std::vector<ValueId> inputs;  ///< binding order of run() inputs
    std::vector<ValueId> outputs; ///< order of run() results

    std::size_t
    liveNodeCount() const
    {
        std::size_t n = 0;
        for (const auto &node : nodes)
            if (!node.dead)
                ++n;
        return n;
    }
};

} // namespace tensorfhe::graph

#endif // TENSORFHE_GRAPH_IR_HH
