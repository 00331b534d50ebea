/**
 * @file
 * Functional encrypted logistic regression — the scaled-down, fully
 * runnable counterpart of the paper's HELR workload [30].
 *
 * Protocol (client-aided HE training): the client encrypts the
 * feature matrix X and labels y; the server computes predictions and
 * the gradient entirely on ciphertexts (CMULT folds, HMULT sigmoid,
 * HROTATE reductions); the client decrypts only the f-dimensional
 * gradient and updates the model. All per-sample compute happens on
 * encrypted data.
 *
 * Packing: sample s occupies the slot block [s*f, (s+1)*f); the
 * rotate-fold pattern is the one the paper's HROTATE serves.
 */

#ifndef TENSORFHE_WORKLOADS_LR_HH
#define TENSORFHE_WORKLOADS_LR_HH

#include <vector>

#include "batch/executor.hh"
#include "ckks/crypto.hh"

namespace tensorfhe::workloads
{

struct LrConfig
{
    std::size_t features = 4; ///< power of two
    std::size_t samples = 16; ///< power of two, samples*features <= slots
    double learningRate = 1.0;
    int iterations = 3;
};

/** Rotation steps the trainer needs keys for. */
std::vector<s64> lrRequiredRotations(const LrConfig &cfg,
                                     std::size_t slots);

class EncryptedLrTrainer
{
  public:
    EncryptedLrTrainer(const ckks::CkksContext &ctx,
                       const ckks::SecretKey &sk,
                       const ckks::KeyBundle &keys, LrConfig cfg);

    struct Result
    {
        std::vector<double> losses;       ///< per-iteration logistic loss
        std::vector<double> weights;      ///< encrypted-trained model
        std::vector<double> plainWeights; ///< plaintext reference model
    };

    /**
     * Train on (X, y) with y in {0, 1}. Runs the same schedule in
     * plaintext for reference; both paths use the degree-3 sigmoid
     * approximation so they are comparable.
     */
    Result train(const std::vector<std::vector<double>> &x,
                 const std::vector<double> &y) const;

  private:
    ckks::Ciphertext encryptedGradientPass(
        const std::vector<std::vector<double>> &x,
        const std::vector<double> &y,
        const std::vector<double> &weights) const;

    const ckks::CkksContext &ctx_;
    const ckks::SecretKey &sk_;
    ckks::Encryptor enc_;
    ckks::Decryptor dec_;
    batch::BatchedEvaluator eval_; ///< one-element batches
    LrConfig cfg_;
    mutable Rng rng_;
};

} // namespace tensorfhe::workloads

#endif // TENSORFHE_WORKLOADS_LR_HH
