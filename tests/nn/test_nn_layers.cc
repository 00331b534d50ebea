/**
 * @file
 * nn layer tests: Dense/Conv2d against plain references, the BSGS
 * routing proof (key-switch tails scale with sqrt(slots), not with
 * the diagonal count), the square/tall/wide matvec forms, pooling on
 * strided layouts, fold reductions, modeled-vs-executed operation
 * counts per layer, and the zero-padding bit each layer states.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ckks/rotations.hh"
#include "nn/layers.hh"
#include "perf/cost_model.hh"
#include "run_layer.hh"

namespace tensorfhe::nn
{
namespace
{

ckks::CkksParams
testParams()
{
    auto p = ckks::Presets::tiny();
    p.levels = 5;
    return p;
}

TensorMeta
freshMeta(const ckks::CkksContext &ctx, TensorShape shape)
{
    TensorMeta m;
    m.shape = std::move(shape);
    m.layout = SlotLayout::contiguous(m.shape);
    m.levelCount = ctx.tower().numQ();
    m.scale = ctx.params().scale();
    return m;
}

void
expectOpsMatch(const EvalOpCounts &want, const EvalOpCounts &got)
{
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(got.get(kind), want.get(kind))
            << evalOpKindName(kind);
    }
}

TEST(SlotLayoutT, ContiguousAndStridedMapping)
{
    TensorShape s{{2, 3, 4}};
    auto l = SlotLayout::contiguous(s);
    EXPECT_EQ(l.stride, (std::vector<std::size_t>{12, 4, 1}));
    EXPECT_EQ(l.slotOf(s, 0), 0u);
    EXPECT_EQ(l.slotOf(s, 23), 23u);
    EXPECT_EQ(l.slotSpan(s), 24u);

    SlotLayout strided{5, {24, 8, 2}};
    EXPECT_EQ(strided.slotOf(s, 1), 7u);       // (0,0,1)
    EXPECT_EQ(strided.slotOf(s, 4), 13u);      // (0,1,0)
    EXPECT_EQ(strided.slotSpan(s), 5u + 24 + 16 + 6 + 1);
}

TEST(CipherTensorT, EncryptDecryptRoundTripMultiChunk)
{
    ckks::CkksContext ctx(testParams());
    Rng rng(5);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng);
    ckks::Encryptor enc(ctx, keys.pk);
    ckks::Decryptor dec(ctx, sk);

    // 1.5x the slot capacity forces two chunks.
    std::size_t n = ctx.slots() + ctx.slots() / 2;
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = std::sin(0.1 * static_cast<double>(i));
    auto t = encryptTensor(ctx, enc, rng, values, {{n}},
                           ctx.tower().numQ());
    EXPECT_EQ(t.chunkCount(), 2u);
    auto back = decryptTensor(ctx, dec, t);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(back[i], values[i], 1e-3);
}

struct LayerFixture
{
    LayerFixture() : ctx(testParams()), rng(17)
    {
        sk = ctx.generateSecretKey(rng);
    }

    ckks::KeyBundle
    keysFor(const std::vector<s64> &steps)
    {
        return ctx.generateKeys(sk, rng, steps);
    }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
};

TEST(DenseLayer, MatchesPlainMatvec)
{
    LayerFixture f;
    std::size_t in_dim = 12, out_dim = 7;
    Rng wrng(23);
    std::vector<std::vector<double>> w(out_dim,
                                       std::vector<double>(in_dim));
    for (auto &row : w)
        for (auto &v : row)
            v = 2 * wrng.uniformReal() - 1;
    std::vector<double> bias(out_dim);
    for (auto &v : bias)
        v = wrng.uniformReal();

    Dense dense(w, bias);
    auto out_meta =
        dense.compile(f.ctx, freshMeta(f.ctx, {{in_dim}}));
    EXPECT_EQ(out_meta.shape.numel(), out_dim);

    auto keys = f.keysFor(dense.requiredRotations());
    nn::NnEngine engine(f.ctx, keys);
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);

    std::vector<double> x(in_dim);
    for (auto &v : x)
        v = 2 * f.rng.uniformReal() - 1;
    auto ct = encryptTensor(f.ctx, enc, f.rng, x, {{in_dim}},
                            f.ctx.tower().numQ());
    auto out = runLayer(engine, dense, ct.chunks());
    CipherTensor out_t(out_meta.shape, out_meta.layout, out);
    auto got = decryptTensor(f.ctx, dec, out_t);
    auto want = dense.applyPlain(x);
    for (std::size_t j = 0; j < out_dim; ++j)
        EXPECT_NEAR(got[j], want[j], 1e-3) << "row " << j;
}

TEST(DenseLayer, RoutesThroughBsgsNotPerDiagonal)
{
    // A fully dense slots x slots matrix touches every diagonal; the
    // BSGS plan must still pay only ~2*sqrt(slots) key-switch tails,
    // not one full keyswitch per nonzero diagonal.
    LayerFixture f;
    std::size_t slots = f.ctx.slots();
    Rng wrng(29);
    std::vector<std::vector<double>> w(slots,
                                       std::vector<double>(slots));
    for (auto &row : w)
        for (auto &v : row)
            v = 2 * wrng.uniformReal() - 1;

    Dense dense(std::move(w));
    dense.compile(f.ctx, freshMeta(f.ctx, {{slots}}));
    EXPECT_EQ(dense.plan().diagonalCount(), slots);

    auto keys = f.keysFor(dense.requiredRotations());
    nn::NnEngine engine(f.ctx, keys);
    ckks::Encryptor enc(f.ctx, keys.pk);

    std::vector<double> x(slots, 0.25);
    auto ct = encryptTensor(f.ctx, enc, f.rng, x, {{slots}},
                            f.ctx.tower().numQ());
    EvalOpStats::instance().reset();
    runLayer(engine, dense, ct.chunks());
    auto stats = EvalOpStats::instance().snapshot();

    double bsgs_bound = 2.0 * std::ceil(std::sqrt(
                            static_cast<double>(slots)));
    EXPECT_LE(stats.ksTail, bsgs_bound + 1);
    EXPECT_LT(stats.ksTail,
              static_cast<double>(dense.plan().diagonalCount()) / 4);
    // Every nonzero diagonal still pays exactly one CMULT.
    EXPECT_EQ(stats.cmult, static_cast<double>(slots));
    expectOpsMatch(dense.modeledOps(), stats);
}

TEST(Conv2dLayer, MatchesPlainConvolution)
{
    LayerFixture f;
    std::size_t ic = 2, oc = 3, h = 4, w = 4, k = 3;
    Rng wrng(31);
    std::vector<double> taps(oc * ic * k * k);
    for (auto &v : taps)
        v = 2 * wrng.uniformReal() - 1;
    std::vector<double> bias(oc);
    for (auto &v : bias)
        v = wrng.uniformReal() - 0.5;

    Conv2d conv(oc, k, taps, bias);
    auto out_meta =
        conv.compile(f.ctx, freshMeta(f.ctx, {{ic, h, w}}));
    EXPECT_EQ(out_meta.shape.dims,
              (std::vector<std::size_t>{oc, h, w}));

    auto keys = f.keysFor(conv.requiredRotations());
    nn::NnEngine engine(f.ctx, keys);
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);

    std::vector<double> x(ic * h * w);
    for (auto &v : x)
        v = 2 * f.rng.uniformReal() - 1;
    auto ct = encryptTensor(f.ctx, enc, f.rng, x, {{ic, h, w}},
                            f.ctx.tower().numQ());
    EvalOpStats::instance().reset();
    auto out = runLayer(engine, conv, ct.chunks());
    expectOpsMatch(conv.modeledOps(),
                   EvalOpStats::instance().snapshot());

    CipherTensor out_t(out_meta.shape, out_meta.layout, out);
    auto got = decryptTensor(f.ctx, dec, out_t);
    auto want = conv.applyPlain(x);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-3) << "element " << i;
}

TEST(AvgPoolLayer, PoolsInPlaceWithStridedOutput)
{
    LayerFixture f;
    std::size_t c = 2, h = 4, w = 4;
    AvgPool2d pool(2);
    auto out_meta =
        pool.compile(f.ctx, freshMeta(f.ctx, {{c, h, w}}));
    // Output stays in strided slots: strides double, no repack.
    EXPECT_EQ(out_meta.shape.dims,
              (std::vector<std::size_t>{c, 2, 2}));
    EXPECT_EQ(out_meta.layout.stride,
              (std::vector<std::size_t>{16, 8, 2}));

    auto keys = f.keysFor(pool.requiredRotations());
    nn::NnEngine engine(f.ctx, keys);
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);

    std::vector<double> x(c * h * w);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<double>(i % 7) - 3.0;
    auto ct = encryptTensor(f.ctx, enc, f.rng, x, {{c, h, w}},
                            f.ctx.tower().numQ());
    EvalOpStats::instance().reset();
    auto out = runLayer(engine, pool, ct.chunks());
    expectOpsMatch(pool.modeledOps(),
                   EvalOpStats::instance().snapshot());

    CipherTensor out_t(out_meta.shape, out_meta.layout, out);
    auto got = decryptTensor(f.ctx, dec, out_t);
    auto want = pool.applyPlain(x);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-3) << "element " << i;
}

TEST(SumReduceLayer, SumsAndHonorsScheduleDecision)
{
    LayerFixture f;
    std::size_t m = 16;
    SumReduce sum;
    auto out_meta = sum.compile(f.ctx, freshMeta(f.ctx, {{m}}));
    EXPECT_EQ(out_meta.levelCount, f.ctx.tower().numQ());
    EXPECT_EQ(sum.hoisted(),
              perf::CostModel(f.ctx.params())
                  .hoistedFoldWins(f.ctx.tower().numQ(), m));

    auto keys = f.keysFor(sum.requiredRotations());
    nn::NnEngine engine(f.ctx, keys);
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);

    std::vector<double> x(m);
    double expect = 0;
    for (std::size_t i = 0; i < m; ++i) {
        x[i] = 0.1 * static_cast<double>(i) - 0.4;
        expect += x[i];
    }
    auto ct = encryptTensor(f.ctx, enc, f.rng, x, {{m}},
                            f.ctx.tower().numQ());
    EvalOpStats::instance().reset();
    auto out = runLayer(engine, sum, ct.chunks());
    expectOpsMatch(sum.modeledOps(),
                   EvalOpStats::instance().snapshot());

    CipherTensor out_t(out_meta.shape, out_meta.layout, out);
    EXPECT_NEAR(decryptTensor(f.ctx, dec, out_t)[0], expect, 1e-3);
}

TEST(LayerContracts, FoldLayersStillRejectMultiChunkInputs)
{
    // Matvec layers went multi-chunk (block BSGS); the rotate-fold
    // layers still require a single chunk — slot rotations do not
    // cross chunk boundaries.
    LayerFixture f;
    AvgPool2d pool(2);
    TensorMeta in3 = freshMeta(f.ctx, {{1, 2, 2}});
    in3.chunkCount = 2;
    EXPECT_THROW(pool.compile(f.ctx, in3), std::invalid_argument);

    SumReduce sum;
    TensorMeta in4 = freshMeta(f.ctx, {{4}});
    in4.chunkCount = 2;
    EXPECT_THROW(sum.compile(f.ctx, in4), std::invalid_argument);
}

TEST(LayerContracts, OversizedOutputSpillsIntoASecondChunk)
{
    // More output rows than slots used to be a rejection; block
    // matvecs now spill them into further chunks.
    LayerFixture f;
    std::size_t rows = f.ctx.slots() + 1;
    Dense dense(std::vector<std::vector<double>>(
        rows, std::vector<double>(2, 0.5)));
    auto out = dense.compile(f.ctx, freshMeta(f.ctx, {{2}}));
    EXPECT_EQ(out.chunkCount, 2u);
    EXPECT_EQ(out.shape.numel(), rows);
    EXPECT_NE(dense.blockPlan(0, 0), nullptr);
    EXPECT_NE(dense.blockPlan(1, 0), nullptr);
}

TEST(DenseLayer, MultiChunkBlockMatvecMatchesPlain)
{
    // A tensor spanning two ciphertexts through a Dense whose output
    // also spans two: all four (out-chunk, in-chunk) block programs
    // execute, each out chunk accumulating its input blocks' partial
    // sums on QP before a single final ModDown. Executed op counts
    // must match the block model exactly.
    LayerFixture f;
    std::size_t slots = f.ctx.slots();
    std::size_t in_dim = slots + slots / 2;
    std::size_t out_dim = slots + 8;
    Rng wrng(61);
    std::vector<std::vector<double>> w(out_dim,
                                       std::vector<double>(in_dim));
    for (auto &row : w)
        for (auto &v : row)
            v = (2 * wrng.uniformReal() - 1)
                / static_cast<double>(in_dim);

    Dense dense(w);
    TensorMeta in_meta = freshMeta(f.ctx, {{in_dim}});
    in_meta.chunkCount = (in_dim + slots - 1) / slots;
    auto out_meta = dense.compile(f.ctx, in_meta);
    EXPECT_EQ(out_meta.chunkCount, 2u);
    EXPECT_EQ(dense.inputMeta().chunkCount, 2u);
    // All four blocks are populated for a dense weight matrix.
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            EXPECT_NE(dense.blockPlan(i, j), nullptr);

    auto keys = f.keysFor(dense.requiredRotations());
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);
    NnEngine engine(f.ctx, keys);

    std::vector<double> x(in_dim);
    for (auto &v : x)
        v = 2 * f.rng.uniformReal() - 1;
    auto t = encryptTensor(f.ctx, enc, f.rng, x, {{in_dim}},
                           f.ctx.tower().numQ());
    ASSERT_EQ(t.chunkCount(), 2u);

    EvalOpStats::instance().reset();
    auto out_cts = runLayer(engine, dense, t.chunks());
    expectOpsMatch(dense.modeledOps(),
                   EvalOpStats::instance().snapshot());
    ASSERT_EQ(out_cts.size(), 2u);

    CipherTensor out(out_meta.shape, out_meta.layout,
                     std::move(out_cts));
    auto got = decryptTensor(f.ctx, dec, out);
    auto want = dense.applyPlain(x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-2) << "row " << i;
}

// ------------------------------------------------------------------
// Matvec forms

using Form = MatvecLayer::Form;

TensorMeta
paddedMeta(const ckks::CkksContext &ctx, TensorShape shape)
{
    TensorMeta m = freshMeta(ctx, std::move(shape));
    m.zeroPadded = true;
    return m;
}

/** The (4, 4, 4) output of a 2x2 pool over a (4, 8, 8) map: strided
    slots, as the cnn_b4 Dense reads them. */
TensorMeta
pooledMeta(const ckks::CkksContext &ctx)
{
    TensorMeta m = freshMeta(ctx, {{4, 4, 4}});
    m.layout.stride = {64, 16, 2};
    m.levelCount = 3;
    return m;
}

std::vector<std::vector<double>>
weightMatrix(std::size_t rows, std::size_t cols, u64 seed)
{
    Rng r(seed);
    std::vector<std::vector<double>> w(rows, std::vector<double>(cols));
    for (auto &row : w)
        for (auto &v : row)
            v = (2 * r.uniformReal() - 1) / static_cast<double>(cols);
    return w;
}

std::vector<double>
convTaps(std::size_t out_c, std::size_t in_c, u64 seed)
{
    Rng r(seed);
    std::vector<double> taps(out_c * in_c * 9);
    for (auto &v : taps)
        v = (2 * r.uniformReal() - 1) / static_cast<double>(in_c * 9);
    return taps;
}

/** One sample at `in`'s layout: x[k] at the slot of element k, every
    other slot zero or, with `junk`, a random value. */
ckks::Ciphertext
encryptAtLayout(LayerFixture &f, const ckks::Encryptor &enc,
                const TensorMeta &in, const std::vector<double> &x,
                bool junk)
{
    std::vector<ckks::Complex> z(f.ctx.slots(), ckks::Complex(0, 0));
    if (junk)
        for (auto &v : z)
            v = ckks::Complex(2 * f.rng.uniformReal() - 1, 0);
    for (std::size_t k = 0; k < x.size(); ++k)
        z[in.layout.slotOf(in.shape, k)] = ckks::Complex(x[k], 0);
    return enc.encrypt(f.ctx.encoder().encode(z, in.scale, in.levelCount),
                       f.rng);
}

/**
 * Run a compiled one-chunk matvec on batches of 1 and 3 samples with
 * keys generated from its requiredRotations() alone: every output
 * within 1e-3 of applyPlain, and the executed ops exactly batch times
 * modeledOps().
 */
void
expectMatchesPlainAndLedger(LayerFixture &f, const MatvecLayer &layer,
                            bool junk = false)
{
    const TensorMeta &in = layer.inputMeta();
    const TensorMeta &out = layer.outputMeta();
    auto keys = f.keysFor(layer.requiredRotations());
    NnEngine engine(f.ctx, keys);
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);
    for (std::size_t batch : {1, 3}) {
        std::vector<std::vector<double>> xs(batch);
        Cts cts;
        for (auto &x : xs) {
            x.resize(in.shape.numel());
            for (auto &v : x)
                v = 2 * f.rng.uniformReal() - 1;
            cts.push_back(encryptAtLayout(f, enc, in, x, junk));
        }
        EvalOpStats::instance().reset();
        auto outs = runLayer(engine, layer, cts);
        expectOpsMatch(static_cast<double>(batch) * layer.modeledOps(),
                       EvalOpStats::instance().snapshot());
        ASSERT_EQ(outs.size(), batch);
        for (std::size_t s = 0; s < batch; ++s) {
            CipherTensor t(out.shape, out.layout, {outs[s]});
            auto got = decryptTensor(f.ctx, dec, t);
            auto want = layer.applyPlain(xs[s]);
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_NEAR(got[i], want[i], 1e-3)
                    << "batch " << batch << " sample " << s
                    << " element " << i;
        }
    }
}

TEST(MatvecForms, TallDenseReplicatesItsInput)
{
    // 8 -> 32, the LSTM gate shape: the weights sit at the next copy
    // of their column, so 8 diagonals after 3 doublings instead of 39.
    LayerFixture f;
    Dense dense(weightMatrix(32, 8, 71), std::vector<double>(32, 0.25));
    dense.compile(f.ctx, paddedMeta(f.ctx, {{8}}));
    EXPECT_EQ(dense.form(), Form::Tall);
    EXPECT_EQ(dense.plan().diagonalCount(), 8u);
    EXPECT_TRUE(dense.plan().foldSteps().empty());
    expectMatchesPlainAndLedger(f, dense);
}

TEST(MatvecForms, TallConv2dRunsOneDiagonalPerTap)
{
    // 1 -> 4 channels on 8x8: each output channel reads its own copy
    // of the image, so the diagonals are the 9 tap offsets.
    LayerFixture f;
    Conv2d conv(4, 3, convTaps(4, 1, 72), {0.1, -0.1, 0.2, 0.0});
    conv.compile(f.ctx, paddedMeta(f.ctx, {{1, 8, 8}}));
    EXPECT_EQ(conv.form(), Form::Tall);
    EXPECT_EQ(conv.plan().diagonalCount(), 9u);
    expectMatchesPlainAndLedger(f, conv);
}

TEST(MatvecForms, TwoChannelConv2dTakesTheTallForm)
{
    LayerFixture f;
    Conv2d conv(4, 3, convTaps(4, 2, 73));
    conv.compile(f.ctx, paddedMeta(f.ctx, {{2, 8, 8}}));
    EXPECT_EQ(conv.form(), Form::Tall);
    EXPECT_EQ(conv.plan().diagonalCount(), 18u);
    expectMatchesPlainAndLedger(f, conv);
}

TEST(MatvecForms, WideDenseFoldsAStridedPooledInput)
{
    // 64 -> 10 over the pooled layout: 16 extended diagonals and 5
    // folds instead of 256 diagonals. Junk in the unused input slots
    // meets zero weights.
    LayerFixture f;
    Dense dense(weightMatrix(10, 64, 74), std::vector<double>(10, -0.5));
    auto out = dense.compile(f.ctx, pooledMeta(f.ctx));
    EXPECT_EQ(dense.form(), Form::Wide);
    EXPECT_EQ(dense.plan().diagonalCount(), 16u);
    EXPECT_EQ(dense.plan().foldSteps(),
              (std::vector<s64>{16, 32, 64, 128, 256}));
    EXPECT_FALSE(out.zeroPadded);
    expectMatchesPlainAndLedger(f, dense, /*junk=*/true);
}

TEST(MatvecForms, UnpaddedInputNeverTakesTheTallForm)
{
    // The tall Dense above, on a meta that does not vouch for its
    // padding: it keeps a form that reads only the logical slots,
    // and matches plaintext with junk everywhere else.
    LayerFixture f;
    Dense dense(weightMatrix(32, 8, 71), std::vector<double>(32, 0.25));
    dense.compile(f.ctx, freshMeta(f.ctx, {{8}}));
    EXPECT_NE(dense.form(), Form::Tall);
    expectMatchesPlainAndLedger(f, dense, /*junk=*/true);
}

TEST(MatvecForms, WideFoldsKeepTheSquarePlanPrecision)
{
    // The folds run before the RESCALE, where their key-switch noise
    // is negligible: on the same ciphertexts the wide form's error
    // stays within half a bit of a square plan over the same embedded
    // matrix (folding after the RESCALE loses several bits here).
    LayerFixture f;
    TensorMeta in = pooledMeta(f.ctx);
    auto w = weightMatrix(10, 64, 75);
    Dense dense(w);
    dense.compile(f.ctx, in);
    ASSERT_EQ(dense.form(), Form::Wide);

    std::size_t slots = f.ctx.slots();
    boot::SlotMatrix m(slots, std::vector<ckks::Complex>(
                                  slots, ckks::Complex(0, 0)));
    for (std::size_t r = 0; r < w.size(); ++r)
        for (std::size_t c = 0; c < w[r].size(); ++c)
            m[r][in.layout.slotOf(in.shape, c)] = w[r][c];
    boot::LinearTransformPlan square(f.ctx, std::move(m));

    auto keys = f.keysFor(ckks::unionRotationSteps(
        {dense.requiredRotations(), square.requiredRotations()}));
    NnEngine engine(f.ctx, keys);
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, f.sk);
    double wide_se = 0, square_se = 0;
    for (int s = 0; s < 4; ++s) {
        std::vector<double> x(64);
        for (auto &v : x)
            v = 2 * f.rng.uniformReal() - 1;
        auto ct = encryptAtLayout(f, enc, in, x, /*junk=*/false);
        auto wide_ct = runLayer(engine, dense, {ct});
        auto square_ct = square.applyBatch(engine, {ct});
        auto wide_z = dec.decryptAndDecode(wide_ct[0]);
        auto square_z = dec.decryptAndDecode(square_ct[0]);
        auto want = dense.applyPlain(x);
        for (std::size_t r = 0; r < want.size(); ++r) {
            wide_se += std::pow(wide_z[r].real() - want[r], 2);
            square_se += std::pow(square_z[r].real() - want[r], 2);
        }
    }
    EXPECT_LE(0.5 * std::log2(wide_se), 0.5 * std::log2(square_se) + 0.5)
        << "wide RMS error is more than half a bit above square";
}

TEST(MatvecForms, CostAtPricesTheFormACompileThereBuilds)
{
    // costAt(lc) of a layer compiled at the top must be the price of
    // exactly what a compile at lc builds: same form, same stride,
    // same doublings or folds.
    for (bool planned : {false, true}) {
        LayerFixture f;
        perf::CostModel model(f.ctx.params());
        auto w = weightMatrix(32, 8, 76);
        Dense top(w);
        top.setPlannedStrides(planned);
        TensorMeta in = paddedMeta(f.ctx, {{8}});
        top.compile(f.ctx, in);
        for (std::size_t lc = 2; lc <= f.ctx.tower().numQ(); ++lc) {
            Dense here(w);
            here.setPlannedStrides(planned);
            in.levelCount = lc;
            here.compile(f.ctx, in);
            const auto &p = here.plan();
            double doublings =
                here.modeledOps().hrotate - p.modeledApplyOps().hrotate;
            auto rounds = static_cast<std::size_t>(doublings)
                + p.foldSteps().size();
            auto built = model.blockMatvec(lc, 1, p.diagonalCount(),
                                           p.babyStepCount(),
                                           p.giantStepCount())
                + model.rotateFold(lc, std::size_t{1} << rounds, false);
            EXPECT_EQ(perf::CostModel::work(top.costAt(model, lc)),
                      perf::CostModel::work(built))
                << "planned " << planned << ", level count " << lc;
        }
    }
}

// ------------------------------------------------------------------
// The zero-padding bit each layer states for its output

TEST(ZeroPadding, SquareMatvecSetsIt)
{
    LayerFixture f;
    Dense dense(weightMatrix(7, 12, 77));
    auto out = dense.compile(f.ctx, freshMeta(f.ctx, {{12}}));
    EXPECT_EQ(dense.form(), Form::Square);
    EXPECT_TRUE(out.zeroPadded);
}

TEST(ZeroPadding, TallMatvecKeepsIt)
{
    LayerFixture f;
    Dense dense(weightMatrix(32, 8, 78));
    auto out = dense.compile(f.ctx, paddedMeta(f.ctx, {{8}}));
    EXPECT_EQ(dense.form(), Form::Tall);
    EXPECT_TRUE(out.zeroPadded);
}

TEST(ZeroPadding, WideMatvecClearsIt)
{
    LayerFixture f;
    TensorMeta in = pooledMeta(f.ctx);
    in.zeroPadded = true;
    Dense dense(weightMatrix(10, 64, 79));
    auto out = dense.compile(f.ctx, in);
    EXPECT_EQ(dense.form(), Form::Wide);
    EXPECT_FALSE(out.zeroPadded);
}

TEST(ZeroPadding, AvgPoolSetsItThroughItsMask)
{
    LayerFixture f;
    AvgPool2d pool(2);
    EXPECT_TRUE(pool.compile(f.ctx, freshMeta(f.ctx, {{2, 4, 4}}))
                    .zeroPadded);
}

TEST(ZeroPadding, LevelDropKeepsIt)
{
    LayerFixture f;
    LevelDrop padded(2), unpadded(2);
    EXPECT_TRUE(padded.compile(f.ctx, paddedMeta(f.ctx, {{8}})).zeroPadded);
    EXPECT_FALSE(
        unpadded.compile(f.ctx, freshMeta(f.ctx, {{8}})).zeroPadded);
}

TEST(ZeroPadding, ActivationKeepsItOnlyWithoutAConstantTerm)
{
    LayerFixture f;
    PolyApprox odd{"odd", {0.0, 0.5, 0.0, -0.1}, -1.0, 1.0};
    PolyActivation no_constant(odd), with_constant(sigmoidApprox(3));
    EXPECT_TRUE(no_constant.compile(f.ctx, paddedMeta(f.ctx, {{8}}))
                    .zeroPadded);
    EXPECT_FALSE(with_constant.compile(f.ctx, paddedMeta(f.ctx, {{8}}))
                     .zeroPadded);
}

TEST(ZeroPadding, SumReduceClearsIt)
{
    LayerFixture f;
    SumReduce sum;
    EXPECT_FALSE(sum.compile(f.ctx, paddedMeta(f.ctx, {{16}})).zeroPadded);
}

TEST(ZeroPadding, BootstrapClearsIt)
{
    ckks::CkksContext ctx(ckks::Presets::bootTest());
    Bootstrap refresh;
    EXPECT_FALSE(refresh.compile(ctx, paddedMeta(ctx, {{8}})).zeroPadded);
}

} // namespace
} // namespace tensorfhe::nn
