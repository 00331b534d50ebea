#include "workloads/lr.hh"

#include <cmath>

#include "ckks/rotations.hh"
#include "common/logging.hh"
#include "perf/cost_model.hh"

namespace tensorfhe::workloads
{

namespace
{

using Cts = batch::BatchedEvaluator::Cts;

/** Degree-3 sigmoid approximation used by HELR (around 0). */
constexpr double kSig0 = 0.5;
constexpr double kSig1 = 0.197;
constexpr double kSig3 = -0.004;

double
sigmoidPoly(double z)
{
    return kSig0 + kSig1 * z + kSig3 * z * z * z;
}

/**
 * sum_{k=0}^{f-1} rot_{dir * k}(ct): the rotate-fold primitive of the
 * gradient pass, scheduled as either a hoisted multi-rotation sum or
 * the classic doubling fold (identical slot values either way; keys
 * for both schedules come from lrRequiredRotations). The schedule
 * decision is the shared perf::CostModel::hoistedFoldWins.
 */
Cts
foldRotations(const batch::BatchedEvaluator &eval, Cts ct, std::size_t f,
              s64 dir)
{
    const auto &ctx = eval.ctx();
    std::size_t slots = ctx.slots();
    if (perf::CostModel(ctx.params())
            .hoistedFoldWins(ct[0].levelCount(), f)) {
        std::vector<s64> steps;
        for (std::size_t k = 1; k < f; ++k)
            steps.push_back(dir * static_cast<s64>(k));
        for (const auto &r : eval.rotateManyBatch(ct, steps))
            eval.addInPlace(ct, r);
        return ct;
    }
    for (std::size_t step = 1; step < f; step *= 2) {
        s64 s = dir * static_cast<s64>(step);
        s = ((s % s64(slots)) + s64(slots)) % s64(slots);
        eval.addInPlace(ct, eval.rotate(ct, s));
    }
    return ct;
}

} // namespace

std::vector<s64>
lrRequiredRotations(const LrConfig &cfg, std::size_t slots)
{
    // Intra-block dot-product fold and error-term broadcast: steps
    // 1..f-1 (and their negative counterparts) cover both fold
    // schedules — the hoisted multi-rotation sum needs every step,
    // the doubling fold the power-of-two subset; the trainer picks
    // per pass via the cost model (see foldRotations).
    std::vector<s64> folds, broadcasts, blocks;
    for (std::size_t k = 1; k < cfg.features; ++k) {
        folds.push_back(static_cast<s64>(k));
        broadcasts.push_back(-static_cast<s64>(k));
    }
    // Cross-block folds for the gradient sum over samples.
    for (std::size_t s = cfg.features;
         s < cfg.features * cfg.samples; s *= 2)
        blocks.push_back(static_cast<s64>(s));
    return ckks::unionRotationSteps({folds, broadcasts, blocks},
                                    slots);
}

EncryptedLrTrainer::EncryptedLrTrainer(const ckks::CkksContext &ctx,
                                       const ckks::SecretKey &sk,
                                       const ckks::KeyBundle &keys,
                                       LrConfig cfg)
    : ctx_(ctx), sk_(sk), enc_(ctx, keys.pk), dec_(ctx, sk),
      eval_(ctx, keys), cfg_(cfg), rng_(0xa11ce)
{
    requireArg(isPowerOfTwo(cfg.features) && isPowerOfTwo(cfg.samples),
               "features and samples must be powers of two");
    requireArg(cfg.features * cfg.samples <= ctx.slots(),
               "packing exceeds slot capacity");
}

ckks::Ciphertext
EncryptedLrTrainer::encryptedGradientPass(
    const std::vector<std::vector<double>> &x,
    const std::vector<double> &y,
    const std::vector<double> &weights) const
{
    std::size_t f = cfg_.features;
    std::size_t slots = ctx_.slots();
    double scale = ctx_.params().scale();
    std::size_t lc = ctx_.tower().numQ(); // fresh level each pass

    // Pack and encrypt X.
    std::vector<ckks::Complex> xs(slots, {0, 0});
    for (std::size_t s = 0; s < cfg_.samples; ++s)
        for (std::size_t j = 0; j < f; ++j)
            xs[s * f + j] = ckks::Complex(x[s][j], 0);
    Cts ct_x{enc_.encrypt(ctx_.encoder().encode(xs, scale, lc), rng_)};

    // Replicated plaintext weights.
    std::vector<ckks::Complex> ws(slots, {0, 0});
    for (std::size_t s = 0; s < cfg_.samples; ++s)
        for (std::size_t j = 0; j < f; ++j)
            ws[s * f + j] = ckks::Complex(weights[j], 0);
    auto pt_w = ctx_.encoder().encode(ws, scale, lc);

    // z = fold(x (had) w): dot product lands at every block start.
    auto z = foldRotations(
        eval_, eval_.rescale(eval_.multiplyPlain(ct_x, pt_w)), f, 1);

    // Degree-3 sigmoid: p = 0.5 + c1*z + c3*z^3 on encrypted scores.
    // Both branches are steered to the same exact scale so they add.
    auto z2 = eval_.rescale(eval_.multiply(z, z));
    auto z3 = eval_.rescale(eval_.multiply(
        z2, eval_.dropToLevelCount(z, z2[0].levelCount())));
    double sig_scale = ctx_.params().scale();
    auto c1z = eval_.multiplyConstToScale(z, kSig1, sig_scale);
    auto c3z3 = eval_.multiplyConstToScale(z3, kSig3, sig_scale);
    auto p = eval_.add(
        c3z3, eval_.dropToLevelCount(c1z, c3z3[0].levelCount()));
    p = eval_.addConst(p, kSig0);

    // err = p - y (labels encrypted at matching level and scale).
    std::vector<ckks::Complex> ys(slots, {0, 0});
    for (std::size_t s = 0; s < cfg_.samples; ++s)
        ys[s * f] = ckks::Complex(y[s], 0);
    auto pt_y = ctx_.encoder().encode(ys, p[0].scale, p[0].levelCount());
    auto err = eval_.sub(p, {enc_.encrypt(pt_y, rng_)});

    // Mask to block starts, then broadcast across each block.
    std::vector<ckks::Complex> mask(slots, {0, 0});
    for (std::size_t s = 0; s < cfg_.samples; ++s)
        mask[s * f] = ckks::Complex(1, 0);
    auto pt_mask =
        ctx_.encoder().encode(mask, scale, err[0].levelCount());
    // Broadcast across each block: the masked error is nonzero only
    // at block starts, so summing the f-1 negative rotations
    // replicates it block-wide.
    err = foldRotations(
        eval_, eval_.rescale(eval_.multiplyPlain(err, pt_mask)), f, -1);

    // g = err (had) x summed over samples (cross-block fold).
    auto ct_x_low = eval_.dropToLevelCount(ct_x, err[0].levelCount());
    auto g = eval_.rescale(eval_.multiply(err, ct_x_low));
    for (std::size_t step = f; step < f * cfg_.samples; step *= 2)
        eval_.addInPlace(g, eval_.rotate(g, static_cast<s64>(step)));
    return std::move(g[0]);
}

EncryptedLrTrainer::Result
EncryptedLrTrainer::train(const std::vector<std::vector<double>> &x,
                          const std::vector<double> &y) const
{
    requireArg(x.size() == cfg_.samples && y.size() == cfg_.samples,
               "dataset shape mismatch");
    std::size_t f = cfg_.features;
    Result res;
    res.weights.assign(f, 0.0);
    res.plainWeights.assign(f, 0.0);
    double lr = cfg_.learningRate / static_cast<double>(cfg_.samples);

    for (int it = 0; it < cfg_.iterations; ++it) {
        // --- encrypted path: gradient computed under encryption ---
        auto ct_g = encryptedGradientPass(x, y, res.weights);
        auto g_slots = dec_.decryptAndDecode(ct_g);
        for (std::size_t j = 0; j < f; ++j)
            res.weights[j] -= lr * g_slots[j].real();

        // --- plaintext reference with the same schedule ---
        std::vector<double> pg(f, 0.0);
        for (std::size_t s = 0; s < cfg_.samples; ++s) {
            double z = 0;
            for (std::size_t j = 0; j < f; ++j)
                z += x[s][j] * res.plainWeights[j];
            double e = sigmoidPoly(z) - y[s];
            for (std::size_t j = 0; j < f; ++j)
                pg[j] += e * x[s][j];
        }
        for (std::size_t j = 0; j < f; ++j)
            res.plainWeights[j] -= lr * pg[j];

        // Logistic loss of the encrypted-path model.
        double loss = 0;
        for (std::size_t s = 0; s < cfg_.samples; ++s) {
            double z = 0;
            for (std::size_t j = 0; j < f; ++j)
                z += x[s][j] * res.weights[j];
            double p = 1.0 / (1.0 + std::exp(-z));
            p = std::min(std::max(p, 1e-9), 1.0 - 1e-9);
            loss += y[s] > 0.5 ? -std::log(p) : -std::log(1.0 - p);
        }
        res.losses.push_back(loss / static_cast<double>(cfg_.samples));
    }
    return res;
}

} // namespace tensorfhe::workloads
