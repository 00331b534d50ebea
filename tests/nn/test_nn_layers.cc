/**
 * @file
 * nn layer tests: Dense/Conv2d against plain references, the BSGS
 * routing proof (key-switch tails scale with sqrt(slots), not with
 * the diagonal count), pooling on strided layouts, fold reductions,
 * and modeled-vs-executed operation counts per layer.
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

} // namespace
} // namespace tensorfhe::nn
