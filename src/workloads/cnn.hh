/**
 * @file
 * Functional encrypted CNN classifier — the scaled-down, fully
 * runnable counterpart of the paper's ResNet-20 workload [42]
 * (conv -> polynomial ReLU -> average pool -> dense), built on the
 * nn layer library: the convolution and the classifier head run as
 * BSGS matvecs (boot::LinearTransformPlan), pooling as rotate-folds
 * on the strided slot layout, and the activation as a power-ladder
 * polynomial.
 *
 * Weights are synthetic (seeded, calibrated so every activation
 * input stays inside its approximant's interval); the point is the
 * encrypted execution pipeline, verified layer-by-layer against the
 * plaintext reference with matching arithmetic.
 */

#ifndef TENSORFHE_WORKLOADS_CNN_HH
#define TENSORFHE_WORKLOADS_CNN_HH

#include "nn/sequential.hh"
#include "workloads/models.hh"

namespace tensorfhe::workloads
{

struct CnnConfig
{
    std::size_t height = 8;
    std::size_t width = 8;
    std::size_t inChannels = 1;
    std::size_t convChannels = 4;
    /**
     * Channels of an optional second conv+ReLU block (0 = none).
     * The deep variant uses it to exceed the chain's level budget —
     * forcing a mid-network bootstrap — and to narrow a multi-chunk
     * feature map back into one ciphertext before pooling.
     */
    std::size_t conv2Channels = 0;
    std::size_t kernel = 3;
    std::size_t poolWindow = 2;
    std::size_t classes = 10;
    std::size_t actDegree = 2; ///< ReLU approximant degree
    u64 seed = 0xc44;          ///< synthetic weight seed
    /**
     * Compile through the global execution planner
     * (plan::planSequential): searched bootstrap placement, level
     * drops, lazy per-chunk refresh, unrestricted BSGS strides.
     * Without it the stack compiles as built and must fit the
     * input's level budget.
     */
    bool usePlanner = false;
    boot::SineConfig sine{};
    /** Encrypt inputs at this level count (0 = full chain). A low
        start is how the deep config forces the ledger negative
        mid-network. */
    std::size_t inputLevelCount = 0;
};

class EncryptedCnnClassifier
{
  public:
    /** Builds and compiles the stack; throws if it cannot fit. */
    EncryptedCnnClassifier(const ckks::CkksContext &ctx,
                           CnnConfig cfg = {});

    /**
     * The functional parameter set the default config runs at:
     * N = 2^10 (512 slots holds the 4x8x8 conv output) with a chain
     * deep enough for conv + ReLU + pool + dense, key-switched with
     * dnum 4 over 2 special primes.
     */
    static ckks::CkksParams recommendedParams();

    /**
     * Deep bootstrap-in-the-loop variant (Table X ResNet scenario):
     * a 4x8x8 input spanning TWO ciphertexts flows through
     * conv -> ReLU -> conv -> ReLU -> pool -> dense as block-BSGS
     * matvecs, encrypted at a deliberately low level so the ledger
     * goes negative mid-network and the planner places >= 1
     * bootstrap (over both chunks, batched).
     */
    static CnnConfig deepConfig();
    /** Bootstrappable chain for deepConfig: N = 2^8, 21 limbs,
        sparse key with h = 8 so |I| stays inside the sine range,
        key-switched with dnum 7 over 3 special primes. */
    static ckks::CkksParams recommendedDeepParams();

    /**
     * Conjugate-composed rotation keys the stack needs: none. The
     * bootstrap's CoeffToSlot split conjugates with the bundle's
     * always-present conjugation key; the empty set stays for callers
     * that forward it to CkksContext::generateKeys.
     */
    std::vector<s64> requiredConjRotations() const { return {}; }

    const CnnConfig &config() const { return cfg_; }
    const nn::Sequential &net() const { return net_; }
    /** Meta images are encrypted at (contiguous, zero past the
        image: encryptTensor outputs). */
    const nn::TensorMeta &inputMeta() const { return net_.inputMeta(); }

    /** Rotation keys the whole stack needs (deduplicated union). */
    std::vector<s64>
    requiredRotations() const
    {
        return net_.requiredRotations();
    }

    struct Prediction
    {
        std::size_t argmax = 0;
        std::vector<double> logits;
    };

    /**
     * Encrypted inference: encrypt each image, run the batch through
     * the engine (all samples ride the (slot x tower) work-queue
     * together), decrypt the logits, argmax client-side.
     */
    std::vector<Prediction>
    classifyEncrypted(const nn::NnEngine &engine,
                      const ckks::Encryptor &enc,
                      const ckks::Decryptor &dec, Rng &rng,
                      const std::vector<std::vector<double>> &images)
        const;

    /** Plaintext reference with the same polynomial activation. */
    Prediction classifyPlain(const std::vector<double> &image) const;

    /** Predicted executed ops of one encrypted sample. */
    EvalOpCounts modeledOps() const { return net_.modeledOps(); }

  private:
    CnnConfig cfg_;
    nn::Sequential net_;
};

} // namespace tensorfhe::workloads

#endif // TENSORFHE_WORKLOADS_CNN_HH
