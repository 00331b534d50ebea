/**
 * @file
 * GraphBuilder: records an op stream into a graph::Graph, and
 * compileSequential, which lowers a compiled nn::Sequential into one.
 *
 * Every builder method mirrors one batch::BatchedEvaluator call and
 * propagates the value meta (level count, scale) with the SAME
 * double arithmetic the evaluator performs at runtime, so the
 * scheduler's legality checks see the scales execution will see.
 * The builder does NOT reject ct-ct scale mismatches — the evaluator
 * does that at runtime, and the scheduler must refuse to fuse across
 * such an edge (tests build deliberately-mismatched graphs to pin
 * that refusal down without executing anything).
 *
 * lower() appends one compiled nn::Layer through the layer's own
 * schedule (its compile / lower / applyPlain faces, nn/layers.hh):
 * matvec layers become per-out-chunk BsgsSum nodes (independent
 * branches the scheduler can overlap), activations become their
 * power-ladder node chains, Bootstrap stays opaque (LayerApply).
 * Every node emitted meanwhile is tagged with the layer; the
 * executor turns the tags into per-layer nn trace spans.
 * compileSequential() lowers a whole compiled model, and
 * nn::Sequential::run executes that graph unfused.
 */

#ifndef TENSORFHE_GRAPH_BUILDER_HH
#define TENSORFHE_GRAPH_BUILDER_HH

#include "graph/ir.hh"
#include "nn/sequential.hh"

namespace tensorfhe::graph
{

class GraphBuilder
{
  public:
    explicit GraphBuilder(const ckks::CkksContext &ctx) : ctx_(&ctx) {}

    /** Declare one caller-supplied input batch. */
    ValueId input(std::size_t chunk_count, std::size_t level_count,
                  double scale);

    ValueId add(ValueId a, ValueId b);
    ValueId sub(ValueId a, ValueId b);
    ValueId addPlain(ValueId a, const ckks::Plaintext &pt);
    ValueId mulPlain(ValueId a, const ckks::Plaintext &pt);
    ValueId mulConstToScale(ValueId a, double c, double target_scale);
    ValueId addConst(ValueId a, double c);
    ValueId rescale(ValueId a);
    ValueId multiply(ValueId a, ValueId b);
    std::vector<ValueId> rotateMany(ValueId a,
                                    std::vector<s64> steps);
    ValueId
    rotate(ValueId a, s64 step)
    {
        return rotateMany(a, {step})[0];
    }
    /** No-op when `a` is already at `level_count`. */
    ValueId drop(ValueId a, std::size_t level_count);
    /** Exact metadata scale reset (the LSTM combine's trick). */
    ValueId setScale(ValueId a, double scale);
    /** Flat value of k chunks -> k per-chunk values (identity for
        k == 1: returns {a} without a node). */
    std::vector<ValueId> unpack(ValueId a);
    /** Per-chunk values -> one flat value (identity for 1 chunk). */
    ValueId pack(const std::vector<ValueId> &chunks);
    /** One applyBsgsSum: term t runs plans[t] over term_inputs[t]
        (each a 1-chunk value), all terms accumulating on QP into one
        output chunk. */
    ValueId bsgsSum(
        std::vector<const boot::LinearTransformPlan *> plans,
        const std::vector<ValueId> &term_inputs);
    /** Opaque bootstrap refresh (Bootstrap::refresh). */
    ValueId layerApply(const nn::Bootstrap &layer, ValueId a);

    /**
     * Lower one compiled layer (nn::Layer::lower): consumes the value
     * holding the layer's input batch and returns the value holding
     * its output batch, tagging every node emitted meanwhile with the
     * layer. The layer must outlive the graph.
     */
    ValueId lower(const nn::Layer &layer, ValueId in);

    /** Mark a graph output (kept alive, never fused away). */
    void output(ValueId v);

    const ValueMeta &meta(ValueId v) const { return g_.values[v]; }
    const ckks::CkksContext &ctx() const { return *ctx_; }

    /** Finish: moves the graph out; the builder is spent. */
    Graph take() { return std::move(g_); }

  private:
    ValueId newValue(std::size_t chunk_count, std::size_t level_count,
                     double scale, NodeId producer);
    NodeId newNode(NodeKind kind, std::vector<ValueId> inputs);

    const ckks::CkksContext *ctx_;
    Graph g_;
    /// Layer being lowered: tags every new node (null outside lower).
    const nn::Layer *tag_ = nullptr;
};

/**
 * Compile a compiled nn::Sequential into a one-input, one-output
 * graph, every layer lowered in stack order. Sequential::compile
 * keeps this graph and Sequential::run executes it unfused. The model
 * must outlive the graph.
 */
Graph compileSequential(const ckks::CkksContext &ctx,
                        const nn::Sequential &seq);

} // namespace tensorfhe::graph

#endif // TENSORFHE_GRAPH_BUILDER_HH
