/**
 * @file
 * Lazy per-chunk bootstrap: when a downstream matvec never reads an
 * input chunk (its weight block is identically zero), the backward
 * liveness walk marks the chunk dead, the planner's Bootstrap layer
 * refreshes only the live chunks, the plan records the mask and
 * halves the modeled refresh cost, and the executed net still matches
 * the plaintext reference with exact op accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/sequential.hh"

namespace tensorfhe::nn
{
namespace
{

ckks::CkksParams
bootParams()
{
    auto p = ckks::Presets::bootTest();
    p.levels = 20;
    p.secretHamming = 8;
    return p;
}

TensorMeta
freshMeta(const ckks::CkksContext &ctx, TensorShape shape,
          std::size_t level_count)
{
    TensorMeta m;
    m.shape = std::move(shape);
    m.layout = SlotLayout::contiguous(m.shape);
    m.levelCount = level_count;
    m.scale = ctx.params().scale();
    return m;
}

/** 4 x n dense matrix whose columns covering the SECOND slot chunk
    are identically zero: input chunk 1 is dead to this layer. */
std::vector<std::vector<double>>
deadTailMatrix(std::size_t n, std::size_t live_cols, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> w(4, std::vector<double>(n, 0.0));
    for (auto &row : w)
        for (std::size_t c = 0; c < live_cols; ++c)
            row[c] = 0.2 * (2 * rng.uniformReal() - 1);
    return w;
}

struct LazyFixture
{
    LazyFixture() : ctx(bootParams()), slots(ctx.slots()), n(slots + 4)
    {
        // Elementwise activation (chunk-aligned liveness), then a
        // dense readout that only consumes chunk 0. Three limbs of
        // input cannot cover the relu's 2-level cost plus the dense
        // tail, so a bootstrap must land BEFORE the activation —
        // at a gap where chunk 1 is already dead.
        net.emplace<PolyActivation>(reluApprox(2));
        net.emplace<Dense>(deadTailMatrix(n, slots, 31));
        net.enablePlanner();
        in = freshMeta(ctx, {{n}}, 3);
        in.chunkCount = 2; // n = slots + 4 spills into a second chunk
        out = net.compile(ctx, in);
    }

    ckks::CkksContext ctx;
    std::size_t slots;
    std::size_t n;
    Sequential net;
    TensorMeta in;
    TensorMeta out;
};

LazyFixture &
fx()
{
    static LazyFixture f;
    return f;
}

TEST(LazyBootstrap, PlanRecordsTheLiveChunkMask)
{
    auto &f = fx();
    ASSERT_EQ(f.in.chunkCount, 2u);
    const auto &plan = f.net.executionPlan();
    ASSERT_GE(plan.bootstrapCount(), 1u);

    const plan::PlanStep *boot = nullptr;
    for (const auto &st : plan.steps())
        if (st.kind == plan::PlanStep::Kind::Bootstrap) {
            boot = &st;
            break;
        }
    ASSERT_NE(boot, nullptr);
    ASSERT_EQ(boot->liveChunks.size(), 2u);
    EXPECT_TRUE(boot->liveChunks[0]);
    EXPECT_FALSE(boot->liveChunks[1]);

    // The compiled Bootstrap layer carries the same mask.
    const Bootstrap *layer = nullptr;
    for (const auto &l : f.net.layers())
        if ((layer = dynamic_cast<const Bootstrap *>(l.get())))
            break;
    ASSERT_NE(layer, nullptr);
    EXPECT_EQ(layer->liveChunkCount(), 1u);
}

TEST(LazyBootstrap, SkippingDeadChunksBeatsTheGreedyRefresh)
{
    auto &f = fx();
    const auto &plan = f.net.executionPlan();
    // The greedy survey refreshes both chunks; the plan refreshes
    // one. The refresh dominates this stack, so the win is large.
    EXPECT_LT(plan.plannedWork(), plan.greedyWork());

    // Modeled ops shrink accordingly: one refreshed chunk's worth of
    // bootstrap rotations instead of two. The eager baseline refreshes
    // both chunks by hand where the greedy survey does: before the
    // activation.
    Sequential eager_boot;
    eager_boot.emplace<Bootstrap>();
    eager_boot.emplace<PolyActivation>(reluApprox(2));
    eager_boot.emplace<Dense>(deadTailMatrix(f.n, f.slots, 31));
    eager_boot.compile(f.ctx, f.in);
    EXPECT_LT(f.net.modeledOps().get(EvalOpKind::HRotate),
              eager_boot.modeledOps().get(EvalOpKind::HRotate));
}

TEST(LazyBootstrap, LazyNetRunsCorrectlyWithExactOpAccounting)
{
    auto &f = fx();
    Rng rng(32);
    auto sk = f.ctx.generateSecretKey(rng);
    auto keys = f.ctx.generateKeys(sk, rng, f.net.requiredRotations());
    ckks::Encryptor enc(f.ctx, keys.pk);
    ckks::Decryptor dec(f.ctx, sk);
    nn::NnEngine engine(f.ctx, keys);

    std::vector<double> x(f.n);
    for (auto &v : x)
        v = rng.uniformReal() - 0.5;
    auto t = encryptTensor(f.ctx, enc, rng, x, {{f.n}},
                           f.in.levelCount);
    ASSERT_EQ(t.chunkCount(), 2u);

    EvalOpStats::instance().reset();
    auto y = f.net.run(engine, t);
    // The zeroed dead chunk never reaches the output: the dense
    // block that would read it compiled to no plan.
    auto got = decryptTensor(f.ctx, dec, y);
    auto want = f.net.runPlain(x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-2) << "element " << i;

    // Exact per-kind accounting: the lazy refresh models exactly the
    // live chunk it executes.
    auto snap = EvalOpStats::instance().snapshot();
    auto model = f.net.modeledOps();
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(snap.get(kind), model.get(kind))
            << evalOpKindName(kind);
    }
    EvalOpStats::instance().reset();
}

} // namespace
} // namespace tensorfhe::nn
