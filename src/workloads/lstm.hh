/**
 * @file
 * Functional encrypted LSTM cell step — the scaled-down, fully
 * runnable counterpart of the paper's LSTM workload [54]. One step
 * computes, entirely on ciphertexts:
 *
 *   z = W_x x + W_h h + b          (two packed BSGS matvecs: the
 *                                   four gates' weights are stacked
 *                                   row-wise, so one matvec per
 *                                   operand covers i, f, o, g)
 *   s = sigmoid(z), t = tanh(z)    (power-ladder polynomials over
 *                                   the whole gate vector)
 *   gates = mask_ifo*s + mask_g*t  (one masked combine selects the
 *                                   right nonlinearity per gate)
 *   c' = f (had) c + i (had) g     (Hadamard gates, aligned by one
 *                                   hoisted multi-rotation)
 *   h' = o (had) tanh(c')
 *
 * Slots outside the logical ranges carry junk after the polynomial
 * stages; since every consumer is slot-local (Hadamard) or reads
 * only the logical slots (matvec columns, decryption), the junk
 * never reaches a logical value — no cleanup masks are spent on it.
 */

#ifndef TENSORFHE_WORKLOADS_LSTM_HH
#define TENSORFHE_WORKLOADS_LSTM_HH

#include "graph/builder.hh"
#include "nn/layers.hh"
#include "workloads/models.hh"

namespace tensorfhe::workloads
{

struct LstmConfig
{
    std::size_t dim = 8;       ///< embedding/state dimension
    std::size_t actDegree = 3; ///< sigmoid/tanh approximant degree
    u64 seed = 0x57ef;         ///< synthetic weight seed
};

class EncryptedLstmCell
{
  public:
    /** Builds and compiles the gate layers; throws if over budget. */
    EncryptedLstmCell(const ckks::CkksContext &ctx, LstmConfig cfg = {});

    /**
     * The functional parameter set the default config runs at:
     * N = 2^10 with a chain deep enough for the full gate pipeline
     * (matvec + degree-3 gates + combine + Hadamard + cell tanh).
     */
    static ckks::CkksParams recommendedParams();

    const LstmConfig &config() const { return cfg_; }

    /** Meta x, h and c must be encrypted at (contiguous, top level). */
    const nn::TensorMeta &inputMeta() const { return input_; }

    /** Rotation keys one step needs (deduplicated union). */
    std::vector<s64> requiredRotations() const;

    struct State
    {
        nn::CipherTensor h;
        nn::CipherTensor c;
    };

    struct PlainState
    {
        std::vector<double> h;
        std::vector<double> c;
    };

    /**
     * One encrypted cell step: builds buildStepGraph() and runs it
     * unfused. x, h and c must sit at the cell's input meta
     * (std::invalid_argument, before any op runs, otherwise). The
     * graph is rebuilt per call — microseconds against the step —
     * because its nodes point into this cell's layers, which move
     * with the cell.
     */
    State step(const nn::NnEngine &engine, const nn::CipherTensor &x,
               const State &prev) const;

    /**
     * The cell step as a kernel dataflow graph — the only place its
     * encrypted schedule is written. Inputs bind in order {x, h, c},
     * all at the cell's input meta (i.e. the first step from fresh
     * encryptions); outputs are {h', c'}. The two gate matvecs and
     * the masked combine are the graph's overlap/fusion showcases.
     * The cell must outlive the graph.
     */
    graph::Graph buildStepGraph(const ckks::CkksContext &ctx) const;

    /** Plaintext reference with the same polynomial gates. */
    PlainState stepPlain(const std::vector<double> &x,
                         const PlainState &prev) const;

    /** Predicted executed ops of one step. */
    EvalOpCounts modeledOps() const;
    /** Same, in the op-count-model vocabulary. */
    OpCounts modeledCounts() const { return toOpCounts(modeledOps()); }

  private:
    LstmConfig cfg_;
    nn::TensorMeta input_;
    nn::Dense wx_;   ///< stacked (4d x d) input weights + bias
    nn::Dense wh_;   ///< stacked (4d x d) recurrent weights
    nn::PolyActivation sig_;
    nn::PolyActivation tanhGate_;
    nn::PolyActivation tanhCell_;
    ckks::Plaintext maskIfo_; ///< 1 on [0, 3d), scale q_last
    ckks::Plaintext maskG_;   ///< 1 on [3d, 4d), scale q_last
    double combScale_ = 0;    ///< exact scale after the combine
    std::size_t combLevel_ = 0;
};

} // namespace tensorfhe::workloads

#endif // TENSORFHE_WORKLOADS_LSTM_HH
