/**
 * @file
 * Polynomial-activation tests: approximant accuracy against the
 * std:: references over the calibrated intervals, the power-ladder
 * depth accounting, homomorphic evaluation against the plaintext
 * path, and the level/scale invariants after the layer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.hh"
#include "run_layer.hh"

namespace tensorfhe::nn
{
namespace
{

double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

TEST(Approximants, SigmoidAccuracyOverCalibratedInterval)
{
    // The HELR degree-3 polynomial holds to ~5% on [-4, 4].
    auto p3 = sigmoidApprox(3);
    EXPECT_EQ(p3.degree(), 3u);
    EXPECT_LT(maxAbsError(p3, sigmoid), 0.06);
    // Higher-degree Chebyshev fits tighten the bound.
    auto p7 = sigmoidApprox(7);
    EXPECT_LT(maxAbsError(p7, sigmoid), 0.03);
}

TEST(Approximants, TanhAccuracyOverCalibratedInterval)
{
    auto p3 = tanhApprox(3);
    EXPECT_LT(maxAbsError(p3, [](double x) { return std::tanh(x); }),
              0.08);
    auto p5 = tanhApprox(5);
    EXPECT_LT(maxAbsError(p5, [](double x) { return std::tanh(x); }),
              maxAbsError(p3, [](double x) { return std::tanh(x); }));
}

TEST(Approximants, ReluAccuracyOverCalibratedInterval)
{
    auto relu = [](double x) { return x > 0 ? x : 0.0; };
    auto p2 = reluApprox(2);
    // The degree-2 least-squares fit peaks at ~0.11 near the kink.
    EXPECT_LT(maxAbsError(p2, relu), 0.12);
    auto p4 = reluApprox(4);
    EXPECT_LT(maxAbsError(p4, relu), maxAbsError(p2, relu));
}

TEST(Approximants, ChebyshevFitReproducesPolynomials)
{
    // Fitting a polynomial of matching degree is exact (up to fp).
    auto f = [](double x) { return 1.0 + 2.0 * x - 0.5 * x * x; };
    auto p = chebyshevFit(f, -3.0, 3.0, 2, "quad");
    EXPECT_LT(maxAbsError(p, f), 1e-9);
}

TEST(PolyActivationLayer, DepthIsLogarithmicInDegree)
{
    // Power ladder: degree d costs ceil(log2 d) + 1 levels.
    EXPECT_EQ(PolyActivation(reluApprox(2)).levelCost(), 2u);
    EXPECT_EQ(PolyActivation(sigmoidApprox(3)).levelCost(), 3u);
    EXPECT_EQ(PolyActivation(sigmoidApprox(7)).levelCost(), 4u);
}

struct ActFixture
{
    ActFixture() : ctx(params()), rng(11), sk(ctx.generateSecretKey(rng))
    {
        keys = ctx.generateKeys(sk, rng);
    }

    static ckks::CkksParams
    params()
    {
        auto p = ckks::Presets::tiny();
        p.levels = 6;
        return p;
    }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
};

ActFixture &
fx()
{
    static ActFixture f;
    return f;
}

TEST(PolyActivationLayer, MatchesPlainReferenceUnderEncryption)
{
    auto &f = fx();
    nn::NnEngine engine(f.ctx, f.keys);
    ckks::Encryptor enc(f.ctx, f.keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);

    PolyActivation act(tanhApprox(3));
    TensorShape shape{{16}};
    TensorMeta in;
    in.shape = shape;
    in.layout = SlotLayout::contiguous(shape);
    in.levelCount = f.ctx.tower().numQ();
    in.scale = f.ctx.params().scale();
    auto out_meta = act.compile(f.ctx, in);

    std::vector<double> values(16);
    for (std::size_t i = 0; i < 16; ++i)
        values[i] = -1.8 + 0.22 * static_cast<double>(i);
    Rng rng(21);
    auto ct = encryptTensor(f.ctx, enc, rng, values, shape,
                            in.levelCount);
    auto out = runLayer(engine, act, ct.chunks());

    // Level/scale invariants after the layer.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].levelCount(), out_meta.levelCount);
    EXPECT_DOUBLE_EQ(out[0].scale, f.ctx.params().scale());
    EXPECT_EQ(out_meta.levelCount,
              in.levelCount - act.levelCost());

    auto plain = act.applyPlain(values);
    CipherTensor out_t(shape, in.layout, out);
    auto dec_vals = decryptTensor(f.ctx, dec, out_t);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_NEAR(dec_vals[i], plain[i], 1e-3) << "slot " << i;
}

TEST(PolyActivationLayer, ModeledOpsMatchExecuted)
{
    auto &f = fx();
    nn::NnEngine engine(f.ctx, f.keys);
    ckks::Encryptor enc(f.ctx, f.keys.pk);

    PolyActivation act(sigmoidApprox(3));
    TensorShape shape{{8}};
    TensorMeta in;
    in.shape = shape;
    in.layout = SlotLayout::contiguous(shape);
    in.levelCount = f.ctx.tower().numQ();
    in.scale = f.ctx.params().scale();
    act.compile(f.ctx, in);

    std::vector<double> values(8, 0.5);
    Rng rng(31);
    auto ct = encryptTensor(f.ctx, enc, rng, values, shape,
                            in.levelCount);
    EvalOpStats::instance().reset();
    runLayer(engine, act, ct.chunks());
    auto got = EvalOpStats::instance().snapshot();
    auto want = act.modeledOps();
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(got.get(kind), want.get(kind))
            << evalOpKindName(kind);
    }
    // sigmoid3 skips the zero x^2 coefficient: terms {1, 3} only.
    EXPECT_EQ(want.cmult, 2.0);
    EXPECT_EQ(want.hmult, 2.0); // ladder powers {2, 3}
}

TEST(PolyActivationLayer, BudgetValidationRejectsShallowInputs)
{
    auto &f = fx();
    PolyActivation act(sigmoidApprox(3));
    TensorShape shape{{8}};
    TensorMeta in;
    in.shape = shape;
    in.layout = SlotLayout::contiguous(shape);
    in.levelCount = 3; // needs maxDepth + 2 = 4
    in.scale = f.ctx.params().scale();
    EXPECT_THROW(act.compile(f.ctx, in), std::invalid_argument);
}

TEST(PolyActivationLayer, ApplyGuardsTheLastRescaleLevelFloor)
{
    // The off-by-one runtime guard: a layer compiled against a valid
    // meta but fed a deeper-drained ciphertext must fail with a clear
    // error — not silently emit a wrong-scale result when the power
    // ladder's last rescale would drop below level 0.
    auto &f = fx();
    nn::NnEngine engine(f.ctx, f.keys);
    ckks::Encryptor enc(f.ctx, f.keys.pk);

    PolyActivation act(sigmoidApprox(3)); // maxDepth 2, needs >= 4
    TensorShape shape{{8}};
    TensorMeta in;
    in.shape = shape;
    in.layout = SlotLayout::contiguous(shape);
    in.levelCount = f.ctx.tower().numQ();
    in.scale = f.ctx.params().scale();
    act.compile(f.ctx, in);

    Rng rng(41);
    auto shallow = encryptTensor(f.ctx, enc, rng,
                                 std::vector<double>(8, 0.25), shape,
                                 2); // one below the ladder floor
    try {
        runLayer(engine, act, shallow.chunks());
        FAIL() << "expected the level-floor rejection";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("power ladder"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("level 0"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace tensorfhe::nn
