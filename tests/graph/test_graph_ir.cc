/**
 * @file
 * Graph IR edge-case tests: single-op graphs execute bit-identically
 * to the eager evaluator calls they record, the fusion pass folds
 * elementwise trees (and refuses illegal ones: scale-mismatched ct-ct
 * edges, multiply-consumed values, graph outputs), and the stream
 * assignment lets independent branches overlap on the GPU-model
 * replay.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"
#include "graph/builder.hh"
#include "graph/executor.hh"

namespace tensorfhe::graph
{
namespace
{

struct GraphFixture
{
    GraphFixture()
        : ctx(ckks::Presets::tiny()), rng(31),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1, 2})), enc(ctx, keys.pk),
          engine(ctx, keys)
    {}

    /** Encrypt a slot ramp seeded by `seed`, at full level. */
    ckks::Ciphertext
    encryptRamp(u64 seed)
    {
        Rng r(seed);
        std::vector<ckks::Complex> v(ctx.slots());
        for (auto &x : v)
            x = ckks::Complex(2 * r.uniformReal() - 1, 0);
        auto pt = ctx.encoder().encode(v, ctx.params().scale(),
                                       ctx.tower().numQ());
        return enc.encrypt(pt, rng);
    }

    ckks::Plaintext
    encodeConst(double c)
    {
        return ctx.encoder().encodeConstant(ckks::Complex(c, 0),
                                            ctx.params().scale(),
                                            ctx.tower().numQ());
    }

    std::size_t fullLc() const { return ctx.tower().numQ(); }
    double scale() const { return ctx.params().scale(); }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    nn::NnEngine engine;
};

GraphFixture &
fx()
{
    static GraphFixture f;
    return f;
}

void
expectBitIdentical(const Cts &a, const Cts &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].levelCount(), b[s].levelCount());
        ASSERT_EQ(a[s].scale, b[s].scale);
        for (std::size_t l = 0; l < a[s].c0.numLimbs(); ++l)
            for (std::size_t k = 0; k < a[s].c0.n(); ++k) {
                ASSERT_EQ(a[s].c0.limb(l)[k], b[s].c0.limb(l)[k])
                    << "sample " << s;
                ASSERT_EQ(a[s].c1.limb(l)[k], b[s].c1.limb(l)[k])
                    << "sample " << s;
            }
    }
}

TEST(GraphIr, SingleOpGraphMatchesEager)
{
    auto &f = fx();
    auto pt = f.encodeConst(0.5);

    GraphBuilder b(f.ctx);
    auto in = b.input(1, f.fullLc(), f.scale());
    b.output(b.mulPlain(in, pt));
    auto g = b.take();
    auto sched = scheduleGraph(g);
    EXPECT_EQ(sched.fusedGroups, 0u); // nothing to pair with
    EXPECT_EQ(sched.order.size(), 2u);

    Cts batch{f.encryptRamp(1), f.encryptRamp(2)};
    auto eager = f.engine.multiplyPlain(batch, pt);

    GraphExecutor ex(g, sched);
    auto res = ex.run(f.engine, {batch});
    ASSERT_EQ(res.outputs.size(), 1u);
    expectBitIdentical(res.outputs[0], eager);
}

TEST(GraphIr, BuilderIdentitiesAddNoNodes)
{
    auto &f = fx();
    GraphBuilder b(f.ctx);
    auto in = b.input(1, f.fullLc(), f.scale());
    // drop to the current level, unpack/pack of one chunk: no-ops.
    EXPECT_EQ(b.drop(in, f.fullLc()), in);
    auto chunks = b.unpack(in);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], in);
    EXPECT_EQ(b.pack(chunks), in);
    b.output(in);
    auto g = b.take();
    EXPECT_EQ(g.liveNodeCount(), 1u); // just the Input
}

TEST(GraphIr, FusionFoldsElementwiseTreeBitIdentical)
{
    auto &f = fx();
    auto pta = f.encodeConst(0.25);
    auto ptb = f.encodeConst(0.75);

    auto build = [&] {
        GraphBuilder b(f.ctx);
        auto a = b.input(1, f.fullLc(), f.scale());
        auto c = b.input(1, f.fullLc(), f.scale());
        auto t = b.mulPlain(a, pta);
        auto u = b.mulPlain(c, ptb);
        b.output(b.add(t, u));
        return b.take();
    };

    auto fused_g = build();
    auto fused = scheduleGraph(fused_g);
    EXPECT_EQ(fused.fusedGroups, 1u);
    EXPECT_EQ(fused.fusedMembers, 3u);
    EXPECT_EQ(fused.launchesSaved(), 2u);

    auto plain_g = build();
    auto plain = scheduleGraph(plain_g, {.fuse = false});
    EXPECT_EQ(plain.fusedGroups, 0u);

    Cts a{f.encryptRamp(11), f.encryptRamp(12)};
    Cts c{f.encryptRamp(13), f.encryptRamp(14)};
    const auto &beval = f.engine;
    auto eager = beval.add(beval.multiplyPlain(a, pta),
                           beval.multiplyPlain(c, ptb));

    ExecOptions cap;
    cap.captureSchedule = true;
    auto fres = GraphExecutor(fused_g, fused)
                    .run(f.engine, {a, c}, cap);
    auto pres = GraphExecutor(plain_g, plain)
                    .run(f.engine, {a, c}, cap);

    expectBitIdentical(fres.outputs[0], eager);
    expectBitIdentical(pres.outputs[0], eager);
    // The member launches collapse into one span pass.
    EXPECT_EQ(pres.launchCount - fres.launchCount,
              fused.launchesSaved());
}

TEST(GraphIr, FusionKeepsEvalOpStats)
{
    auto &f = fx();
    auto pta = f.encodeConst(0.3);

    auto ptb = f.encodeConst(0.6);

    GraphBuilder b(f.ctx);
    auto a = b.input(1, f.fullLc(), f.scale());
    auto c = b.input(1, f.fullLc(), f.scale());
    auto t = b.mulPlain(a, pta);
    auto u = b.mulPlain(c, ptb);
    b.output(b.sub(t, u));
    auto g = b.take();
    auto sched = scheduleGraph(g);
    ASSERT_EQ(sched.fusedGroups, 1u);

    Cts av{f.encryptRamp(21)};
    Cts cv{f.encryptRamp(22)};
    const auto &beval = f.engine;

    EvalOpStats::instance().reset();
    beval.sub(beval.multiplyPlain(av, pta),
              beval.multiplyPlain(cv, ptb));
    auto eager = EvalOpStats::instance().snapshot();

    EvalOpStats::instance().reset();
    GraphExecutor(g, sched).run(f.engine, {av, cv});
    auto graph = EvalOpStats::instance().snapshot();

    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(graph.get(kind), eager.get(kind))
            << evalOpKindName(kind);
    }
}

TEST(GraphIr, FusionRefusesScaleMismatchedCtCtEdge)
{
    auto &f = fx();
    auto pta = f.encodeConst(0.25);
    auto ptb = f.encodeConst(0.75);

    // Same tree as the fusing test, but the second input arrives at
    // 1.5x the scale: the root add's operands now violate the
    // evaluator's requireCompatiblePair tolerance. The builder
    // records the graph anyway — refusing is the SCHEDULER's job.
    GraphBuilder b(f.ctx);
    auto a = b.input(1, f.fullLc(), f.scale());
    auto c = b.input(1, f.fullLc(), 1.5 * f.scale());
    auto t = b.mulPlain(a, pta);
    auto u = b.mulPlain(c, ptb);
    b.output(b.add(t, u));
    auto g = b.take();

    auto sched = scheduleGraph(g);
    EXPECT_EQ(sched.fusedGroups, 0u);
    EXPECT_EQ(sched.launchesSaved(), 0u);
    // Every node survives as its own launch.
    EXPECT_EQ(sched.order.size(), g.liveNodeCount());
}

TEST(GraphIr, FusionRespectsSharedValuesAndOutputs)
{
    auto &f = fx();

    // t is consumed twice: folding it into either consumer would
    // recompute it. No group forms.
    {
        GraphBuilder b(f.ctx);
        auto a = b.input(1, f.fullLc(), f.scale());
        auto c = b.input(1, f.fullLc(), f.scale());
        auto t = b.add(a, c);
        b.output(b.add(t, t));
        auto g = b.take();
        EXPECT_EQ(scheduleGraph(g).fusedGroups, 0u);
    }
    // t is a graph output: it must stay materialized even though its
    // only consumer is fusable.
    {
        GraphBuilder b(f.ctx);
        auto a = b.input(1, f.fullLc(), f.scale());
        auto c = b.input(1, f.fullLc(), f.scale());
        auto t = b.add(a, c);
        b.output(t);
        b.output(b.add(t, c));
        auto g = b.take();
        EXPECT_EQ(scheduleGraph(g).fusedGroups, 0u);
    }
}

TEST(GraphIr, IndependentBranchesOverlapOnReplay)
{
    auto &f = fx();
    auto pt = f.encodeConst(0.5);

    // Two independent mulPlain->rescale chains joined at the end:
    // the scheduler must give the branches distinct streams, and the
    // replay must finish before the serial sum.
    GraphBuilder b(f.ctx);
    auto a = b.input(1, f.fullLc(), f.scale());
    auto c = b.input(1, f.fullLc(), f.scale());
    auto t = b.rescale(b.mulPlain(a, pt));
    auto u = b.rescale(b.mulPlain(c, pt));
    b.output(b.add(t, u));
    auto g = b.take();
    auto sched = scheduleGraph(g, {.fuse = false});
    EXPECT_GE(sched.streamsUsed, 2);

    ExecOptions cap;
    cap.captureSchedule = true;
    auto res = GraphExecutor(g, sched).run(
        f.engine, {Cts{f.encryptRamp(41)}, Cts{f.encryptRamp(42)}},
        cap);
    ASSERT_GT(res.schedule.size(), 2u);

    // Dependencies point backwards and the final add waits on both
    // branches.
    bool any_dep = false;
    for (std::size_t i = 0; i < res.schedule.size(); ++i) {
        for (std::size_t d : res.schedule[i].deps) {
            EXPECT_LT(d, i);
            any_dep = true;
        }
    }
    EXPECT_TRUE(any_dep);

    auto replay = gpu::replayScheduledQueue(res.schedule,
                                            f.ctx.params().n);
    EXPECT_GT(replay.streamsUsed, 1);
    EXPECT_LT(replay.makespanCycles, replay.serialCycles);
}

} // namespace
} // namespace tensorfhe::graph
