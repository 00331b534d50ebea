/**
 * @file
 * Encrypted neural-network layers over CipherTensors — the layer
 * library behind the functional counterparts of the paper's ResNet-20
 * and LSTM workloads (SV, Table X).
 *
 * Every layer has three synchronized faces:
 *   - compile(): validates the incoming TensorMeta, builds plans
 *     (BSGS matrices, encoded masks, power ladders) and returns the
 *     outgoing meta — shape, layout, level count and exact scale —
 *     before anything encrypted runs;
 *   - lower(): appends the layer's encrypted schedule to a
 *     graph::GraphBuilder, one node per batch::BatchedEvaluator /
 *     exec::Dispatcher call over a uniform batch. The schedule exists
 *     only here: graph::GraphExecutor runs it, so nn::Sequential::run
 *     and the fused graph schedules execute the same nodes;
 *   - applyPlain(): the plaintext reference with the same arithmetic
 *     (same polynomial activations), used for verification.
 * modeledOps() predicts the exact executed-operation counts of one
 * sample through the lowered schedule, cross-checked against
 * EvalOpStats by the tests and the Table X bench.
 *
 * Matrix-shaped layers (Dense, Conv2d) lower to a single
 * boot::LinearTransformPlan BSGS matvec: ~2*sqrt(slots) key-switch
 * tails per application instead of one full keyswitch per nonzero
 * diagonal, with per-level cached diagonal plaintexts. A one-block
 * matvec compiles in whichever of three forms (square, tall, wide;
 * see MatvecLayer) the cost model prices cheapest, so its diagonal
 * count follows the weights rather than the slot layout. Pooling and
 * reductions run as rotate-folds on the affine slot layout; pooled
 * outputs stay in strided slots and the next matrix layer reads them
 * in place. Bootstrap lowers to one opaque node whose refresh() is
 * the only hand-written eager body.
 *
 * compile() also states TensorMeta::zeroPadded for its output: set by
 * square and tall matvecs (rows past the output are zero, the bias
 * sits on logical slots) and by AvgPool2d (its mask zeroes every slot
 * but the pooled outputs); kept by LevelDrop and by a PolyActivation
 * without a constant term; cleared by wide matvecs, SumReduce,
 * Bootstrap and activations with a constant term.
 */

#ifndef TENSORFHE_NN_LAYERS_HH
#define TENSORFHE_NN_LAYERS_HH

#include <map>
#include <memory>
#include <optional>

#include "batch/executor.hh"
#include "boot/bootstrap.hh"
#include "boot/linear.hh"
#include "common/stats.hh"
#include "nn/activation.hh"
#include "nn/tensor.hh"
#include "perf/cost_model.hh"

namespace tensorfhe::graph
{
class GraphBuilder;
using ValueId = std::size_t;
} // namespace tensorfhe::graph

namespace tensorfhe::nn
{

/**
 * Server-side execution context for encrypted inference: the
 * evaluator every layer dispatches through, which also carries the
 * CKKS context (ctx()) and reads the caller's key bundle in place.
 */
using NnEngine = batch::BatchedEvaluator;

using Cts = std::vector<ckks::Ciphertext>;

class Layer
{
  public:
    virtual ~Layer() = default;

    virtual std::string name() const = 0;

    /**
     * Validate against the incoming meta, build the layer's plans and
     * return the outgoing meta. Must be called exactly once before
     * lower()/requiredRotations()/modeledOps().
     */
    virtual TensorMeta compile(const ckks::CkksContext &ctx,
                               const TensorMeta &in) = 0;

    /** Rotation steps the lowered schedule needs keys for (valid
        after compile). */
    virtual std::vector<s64> requiredRotations() const { return {}; }

    /** Multiplicative levels consumed (valid after compile; a
        bootstrap layer reports 0 — it restores the budget). */
    virtual std::size_t levelCost() const = 0;

    /**
     * Append the encrypted forward pass to `b` (valid after compile):
     * consumes the value holding the input batch (every sample's
     * chunks, sample-major) and returns the value holding the output
     * batch. Elementwise layers accept any chunk count; rotation-based
     * layers require single-chunk metas (enforced at compile). Nodes
     * point into the layer's plans and plaintexts, so the layer must
     * outlive the graph. Call it through GraphBuilder::lower, which
     * tags the nodes with the layer for the per-layer trace spans.
     */
    virtual graph::ValueId lower(graph::GraphBuilder &b,
                                 graph::ValueId in) const = 0;

    /** Plaintext reference on one sample's logical values. */
    virtual std::vector<double>
    applyPlain(const std::vector<double> &in) const = 0;

    /** Predicted executed ops of one sample through lower()'s
        schedule. */
    virtual EvalOpCounts modeledOps() const = 0;

    /**
     * Smallest input level count compile() accepts — the planner's
     * feasibility floor, queryable BEFORE compile (it depends only
     * on layer parameters, never on the incoming meta).
     */
    virtual std::size_t minInputLevelCount() const { return 1; }

    /**
     * Modeled kernel cost of one sample if the input arrived
     * at `input_lc` limbs (valid after compile). Every layer prices
     * against the EXPLICIT level argument — never the compiled
     * meta's level — so the planner can evaluate the same layer at
     * every candidate rung of the ladder.
     */
    virtual perf::KernelCost costAt(const perf::CostModel &model,
                                    std::size_t input_lc) const = 0;

    /**
     * Which input chunks the live output chunks depend on (valid
     * after compile). The planner walks this backward from the
     * network output to find chunks whose values are dead downstream
     * — a bootstrap never refreshes those. Default: chunk-aligned
     * pass-through when in/out chunk counts match, else every input
     * chunk is live whenever any output chunk is.
     */
    virtual std::vector<bool>
    liveInputChunks(const std::vector<bool> &out_live) const;

    /**
     * Recompile against a (possibly different) input meta: resets
     * the compiled state, drops stale plans and re-runs compile().
     * The planner rebinds surveyed layers at their planned levels.
     */
    TensorMeta rebind(const ckks::CkksContext &ctx,
                      const TensorMeta &in);

    const TensorMeta &inputMeta() const { return in_; }
    const TensorMeta &outputMeta() const { return out_; }

  protected:
    void requireCompiled() const;
    /** Drop per-compile state ahead of a rebind (plans, masks). */
    virtual void resetPlans() {}

    TensorMeta in_;
    TensorMeta out_;
    bool compiled_ = false;
};

/**
 * Common machinery of the matrix-shaped layers: the layer's linear
 * map is embedded into an (out-chunks * slots) x (in-chunks * slots)
 * SlotMatrix (columns at the input layout's global slots, rows
 * contiguous from slot 0) and lowered to BLOCK BSGS matvecs — one
 * compiled LinearTransformPlan per nonzero (out-chunk, in-chunk)
 * block, evaluated per out-chunk through
 * exec::Dispatcher::applyBsgsSum so the partial sums over input
 * chunks accumulate on the extended QP basis and pay ONE final
 * ModDown + RESCALE. Tensors larger than one ciphertext therefore
 * flow through the same double-hoisted path as single-chunk ones.
 * The optional bias rides one plaintext addition per output chunk.
 * Consumes one level.
 *
 * A single-block layer (one input chunk, one output chunk) compiles
 * in whichever form perf::CostModel prices cheapest at its input
 * level; each form is an ordinary LinearTransformPlan over a
 * compressed square matrix:
 *   - Square: the embedded matrix itself. Its diagonal count follows
 *     the slot layout, not the weights.
 *   - Tall: needs an input that is zero past its slot span
 *     (TensorMeta::zeroPadded). Rotate-and-add doublings by -q, -2q,
 *     ... lay copies of the input side by side (q the power of two at
 *     or above the span), and each weight moves to a copy its row
 *     reads, so the diagonal index becomes a column offset. The
 *     weights sit either in the row's own q-block (< 2q diagonals,
 *     ceil(rows/q) copies) or at the next copy of their column at or
 *     after the row (< q diagonals, one more copy); both are priced.
 *   - Wide: the rows pad to a power of two p; the p extended
 *     diagonals M[t mod p][t + j] and log2(slots/p) rotate-and-add
 *     folds (p, 2p, ..., slots/2), run inside the BSGS program before
 *     its RESCALE, leave output row r in slot r. Slots from the row
 *     count upward hold partial sums.
 * Multi-block layers keep the square form.
 */
class MatvecLayer : public Layer
{
  public:
    /** The layout a single-block matvec compiles to (see above). */
    enum class Form
    {
        Square,
        Tall,
        Wide
    };

    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &in) override;
    std::vector<s64> requiredRotations() const override;
    std::size_t levelCost() const override { return 1; }
    std::size_t minInputLevelCount() const override { return 2; }
    graph::ValueId lower(graph::GraphBuilder &b,
                         graph::ValueId in) const override;
    EvalOpCounts modeledOps() const override;
    perf::KernelCost costAt(const perf::CostModel &model,
                            std::size_t input_lc) const override;
    std::vector<bool>
    liveInputChunks(const std::vector<bool> &out_live) const override;

    /**
     * Planner-stride mode: compile()/rebind() hand the stride argmin
     * the ACTUAL input level and lift the root-pattern key
     * restriction (keys cover the rebuilt stack's requiredRotations()),
     * and costAt()
     * re-chooses the stride per queried level the same way. Default
     * off — the historical full-tower, root-restricted behavior.
     */
    void setPlannedStrides(bool on) { plannedStrides_ = on; }
    bool plannedStrides() const { return plannedStrides_; }

    /** The compiled form (valid after compile; always Square for a
        multi-block layer). */
    Form form() const;

    /** The compiled BSGS plan of a single-block layer (valid after
        compile; for tests). */
    const boot::LinearTransformPlan &plan() const;

    /** Block (out_chunk, in_chunk)'s plan; null for a zero block. */
    const boot::LinearTransformPlan *
    blockPlan(std::size_t out_chunk, std::size_t in_chunk) const;

  protected:
    /**
     * The rows x cols matrix realizing the layer on `in`: rows are
     * contiguous output slots (out-chunk capacity), columns global
     * input slots.
     */
    virtual boot::SlotMatrix
    buildMatrix(const ckks::CkksContext &ctx, const TensorMeta &in,
                std::size_t rows, std::size_t cols) const = 0;
    virtual TensorShape outputShape(const TensorShape &in) const = 0;
    /** Bias over the output's logical elements; empty = none. */
    virtual std::vector<double> biasVector() const = 0;
    void resetPlans() override;

  private:
    /**
     * One candidate form of a single-block layer: where each weight
     * lands in the compressed square matrix (see place() in
     * layers.cc), that matrix's diagonal population, and the
     * rotate-and-add steps around the plan.
     */
    struct Candidate
    {
        Form form = Form::Square;
        std::size_t block = 0; ///< q (tall) or p (wide); 0 for square
        bool nextCopy = false; ///< tall: next copy at or after the row
        std::vector<std::size_t> diagonals; ///< sorted distinct
        std::vector<s64> steps; ///< tall doublings or wide folds
    };

    /** Compile a one-block matrix in its cheapest form. */
    void compileSingleBlock(const ckks::CkksContext &ctx,
                            const TensorMeta &in, boot::SlotMatrix m,
                            const boot::StrideOptions &opt);
    /** The candidate a compile at `input_lc` picks, priced there;
        ties keep the earlier candidate (square first). */
    std::pair<const Candidate *, perf::KernelCost>
    chooseForm(const perf::CostModel &model, std::size_t input_lc) const;

    bool plannedStrides_ = false;
    std::size_t slots_ = 0;
    std::size_t topLevel_ = 0; ///< tower top: the unplanned stride level
    /// blocks_[i][j]: plan of out-chunk i from in-chunk j (null when
    /// the block is identically zero and skipped).
    std::vector<std::vector<std::unique_ptr<boot::LinearTransformPlan>>>
        blocks_;
    /// Per-out-chunk encoded bias (nullopt = no bias on that chunk).
    std::vector<std::optional<ckks::Plaintext>> biases_;
    /// Single-block layers: every form compile may pick (empty for a
    /// block matvec), so costAt can re-choose at any level.
    std::vector<Candidate> candidates_;
    Form form_ = Form::Square;
    /// Tall form: the doubling steps that replicate the input.
    std::vector<s64> replicate_;
};

/** Fully-connected y = W x + b via one BSGS matvec (any of the
    three forms). */
class Dense : public MatvecLayer
{
  public:
    /** weights[row][col]; bias empty or size rows. */
    Dense(std::vector<std::vector<double>> weights,
          std::vector<double> bias = {});

    std::string name() const override { return "Dense"; }
    std::vector<double>
    applyPlain(const std::vector<double> &in) const override;

    std::size_t rows() const { return weights_.size(); }
    std::size_t cols() const { return weights_[0].size(); }

  protected:
    boot::SlotMatrix buildMatrix(const ckks::CkksContext &ctx,
                                 const TensorMeta &in,
                                 std::size_t rows,
                                 std::size_t cols) const override;
    TensorShape outputShape(const TensorShape &in) const override;
    std::vector<double> biasVector() const override { return bias_; }

  private:
    std::vector<std::vector<double>> weights_;
    std::vector<double> bias_;
};

/**
 * 2D convolution (stride 1, zero 'same' padding) on a (C, H, W)
 * tensor, lowered to one packed BSGS matvec: the convolution is a
 * linear map on the packed slot vector, so its slot matrix feeds the
 * same LinearTransformPlan path as Dense — the rotation-sum over
 * kernel taps becomes the plan's diagonal structure. In the tall form
 * every output channel reads its own copy of the input, so the
 * diagonals are just the kernel's tap offsets.
 */
class Conv2d : public MatvecLayer
{
  public:
    /**
     * @param weights flat [outC][inC][ky][kx] taps (inC checked at
     *                compile against the input shape)
     * @param bias    empty or one entry per output channel
     */
    Conv2d(std::size_t out_channels, std::size_t kernel,
           std::vector<double> weights, std::vector<double> bias = {});

    std::string name() const override { return "Conv2d"; }
    std::vector<double>
    applyPlain(const std::vector<double> &in) const override;

  protected:
    boot::SlotMatrix buildMatrix(const ckks::CkksContext &ctx,
                                 const TensorMeta &in,
                                 std::size_t rows,
                                 std::size_t cols) const override;
    TensorShape outputShape(const TensorShape &in) const override;
    std::vector<double> biasVector() const override;

  private:
    double tap(std::size_t oc, std::size_t ic, std::size_t ky,
               std::size_t kx) const;

    std::size_t outChannels_;
    std::size_t kernel_;
    std::vector<double> weights_;
    std::vector<double> bias_;
};

/**
 * window x window average pooling (stride = window, a power of two)
 * on a (C, H, W) tensor via rotate-folds on the affine layout: one
 * doubling fold per axis sums each window in place, one masked CMULT
 * scales by 1/window^2 and zeroes the dropped positions. The output
 * stays in strided slots (strides multiplied by the window), so the
 * next matrix layer reads it without a repacking pass; every other
 * slot is masked to zero, so the output is zero-padded whatever the
 * input held. Consumes one level.
 */
class AvgPool2d : public Layer
{
  public:
    explicit AvgPool2d(std::size_t window = 2) : window_(window) {}

    std::string name() const override { return "AvgPool2d"; }
    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &in) override;
    std::vector<s64> requiredRotations() const override;
    std::size_t levelCost() const override { return 1; }
    std::size_t minInputLevelCount() const override { return 2; }
    graph::ValueId lower(graph::GraphBuilder &b,
                         graph::ValueId in) const override;
    std::vector<double>
    applyPlain(const std::vector<double> &in) const override;
    EvalOpCounts modeledOps() const override;
    perf::KernelCost costAt(const perf::CostModel &model,
                            std::size_t input_lc) const override;

  private:
    std::size_t window_;
    std::vector<s64> steps_; ///< doubling-fold steps, x then y
    std::optional<ckks::Plaintext> mask_;
};

/**
 * Sum over every element of a uniformly-strided tensor, landing at
 * the layout's base slot. Schedules either the hoisted
 * multi-rotation sum or the doubling fold, chosen by the shared
 * perf::CostModel::hoistedFoldWins (the LR gradient folds use the
 * same decision). Consumes no level.
 */
class SumReduce : public Layer
{
  public:
    std::string name() const override { return "SumReduce"; }
    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &in) override;
    std::vector<s64> requiredRotations() const override;
    std::size_t levelCost() const override { return 0; }
    graph::ValueId lower(graph::GraphBuilder &b,
                         graph::ValueId in) const override;
    std::vector<double>
    applyPlain(const std::vector<double> &in) const override;
    EvalOpCounts modeledOps() const override;
    perf::KernelCost costAt(const perf::CostModel &model,
                            std::size_t input_lc) const override;

    /** Whether compile chose the hoisted schedule (for tests). */
    bool hoisted() const { return hoisted_; }

  private:
    bool hoisted_ = false;
    std::vector<s64> steps_;
};

/**
 * Elementwise polynomial activation: evaluates a PolyApprox on every
 * slot with a depth-optimal power ladder (x^k from x^ceil(k/2) *
 * x^floor(k/2), so degree d costs ceil(log2 d) + 1 levels, not d),
 * steering every term to the context scale so the output lands at
 * exactly params().scale() — downstream layers see a clean scale
 * regardless of the input's drift.
 */
class PolyActivation : public Layer
{
  public:
    explicit PolyActivation(PolyApprox approx);

    std::string name() const override;
    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &in) override;
    std::size_t levelCost() const override;
    std::size_t minInputLevelCount() const override
    {
        return maxDepth_ + 2;
    }
    graph::ValueId lower(graph::GraphBuilder &b,
                         graph::ValueId in) const override;
    std::vector<double>
    applyPlain(const std::vector<double> &in) const override;
    EvalOpCounts modeledOps() const override;
    perf::KernelCost costAt(const perf::CostModel &model,
                            std::size_t input_lc) const override;

    const PolyApprox &approx() const { return approx_; }

  private:
    PolyApprox approx_;
    std::vector<std::size_t> powers_; ///< ladder products, ascending
    std::vector<std::pair<std::size_t, double>> terms_; ///< (k, c_k)
    std::size_t maxDepth_ = 0;
    bool hasConstant_ = false;
    std::map<std::size_t, std::size_t> depth_; ///< power -> depth
};

/**
 * Level-budget refresh between layers: every chunk of every batch
 * sample rides one boot::Bootstrapper::bootstrapBatch call through
 * the engine's BatchedEvaluator (the chunks are just more batch
 * slots). Values are approximately preserved (|z| <~ 1 required —
 * keep activations calibrated); shape, layout and chunk count pass
 * through, the level count and scale jump to the bootstrapper's
 * exact predicted refresh coordinates at the layer's landing. The
 * global planner (Sequential::enablePlanner) places these where the
 * level ledger would go negative, each landing at the level the
 * layers after it run at; in an unplanned stack they can also be
 * placed by hand (landing at the highest level), and the layers
 * after one compile at its refreshed level.
 */
class Bootstrap : public Layer
{
  public:
    /** `landing` is the refreshed level count; 0 lands at the
        highest, boot::Bootstrapper::maxLanding. */
    explicit Bootstrap(boot::SineConfig sine = {},
                       std::size_t landing = 0)
        : sine_(sine), landing_(landing)
    {}

    std::string name() const override { return "Bootstrap"; }
    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &in) override;
    std::vector<s64> requiredRotations() const override;
    /** Consumes no budget — it restores it (see outputMeta). */
    std::size_t levelCost() const override { return 0; }
    std::size_t minInputLevelCount() const override { return 2; }
    /** One opaque LayerApply node that runs refresh(). */
    graph::ValueId lower(graph::GraphBuilder &b,
                         graph::ValueId in) const override;
    std::vector<double>
    applyPlain(const std::vector<double> &in) const override
    {
        return in; // value-preserving (approximately)
    }

    /** The encrypted refresh of a uniform batch (every sample's
        chunks, sample-major) — the LayerApply node's body. */
    Cts refresh(const NnEngine &engine, const Cts &in) const;
    EvalOpCounts modeledOps() const override;
    perf::KernelCost costAt(const perf::CostModel &model,
                            std::size_t input_lc) const override;

    /**
     * Lazy per-chunk refresh: only chunks marked live run the
     * bootstrap pipeline; dead chunks (whose values no downstream
     * layer reads) are replaced by well-formed zero ciphertexts at
     * the refreshed meta so shapes and levels stay uniform. Set by
     * the planner from its liveness walk (size = chunk count,
     * checked at compile); empty = all live. Must be set before
     * compile().
     */
    void setLiveChunks(std::vector<bool> live);
    std::size_t liveChunkCount() const;

    const boot::Bootstrapper &bootstrapper() const;

  private:
    boot::SineConfig sine_;
    std::size_t landing_; ///< 0 = the highest
    std::size_t slots_ = 0;
    std::vector<bool> liveChunks_; ///< empty = every chunk live
    /// Shared so copies of the compiled net reuse the plan caches.
    std::shared_ptr<boot::Bootstrapper> boot_;
};

/**
 * Planner-inserted level alignment: drop the input to an exact level
 * count (ckks dropToLevelCount — limb truncation, no arithmetic, no
 * stats). The planner emits these where running the downstream
 * suffix on a shorter tower is cheaper than the limbs are worth;
 * in an unplanned stack they can also be placed by hand. Values and
 * scale pass through.
 */
class LevelDrop : public Layer
{
  public:
    explicit LevelDrop(std::size_t target_level_count);

    std::string name() const override { return "LevelDrop"; }
    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &in) override;
    std::size_t levelCost() const override { return 0; }
    graph::ValueId lower(graph::GraphBuilder &b,
                         graph::ValueId in) const override;
    std::vector<double>
    applyPlain(const std::vector<double> &in) const override
    {
        return in; // limb truncation never touches values
    }
    EvalOpCounts modeledOps() const override { return {}; }
    perf::KernelCost costAt(const perf::CostModel &,
                            std::size_t) const override
    {
        return {}; // metadata-only: no kernels, no bytes
    }

  private:
    std::size_t target_;
};

} // namespace tensorfhe::nn

#endif // TENSORFHE_NN_LAYERS_HH
