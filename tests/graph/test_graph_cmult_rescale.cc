/**
 * @file
 * Graph tests for CMULT + RESCALE: a mulPlain -> rescale chain stays
 * two nodes (MulPlain, then Rescale), its compiled scale meta is the
 * runtime scale bit for bit, and it executes bit-identically to the
 * eager multiplyPlain -> rescale pair with the same op stats and the
 * same kernel queue — also when the product is observable (a graph
 * output or shared), and when the elementwise pass folds an upstream
 * add into the CMULT (the AvgPool shape).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hh"
#include "graph/builder.hh"
#include "graph/executor.hh"

namespace tensorfhe::graph
{
namespace
{

struct Fixture
{
    Fixture()
        : ctx(ckks::Presets::tiny()), rng(2025),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng)), enc(ctx, keys.pk),
          engine(ctx, keys)
    {
        Rng r(5);
        std::vector<ckks::Complex> z(ctx.slots());
        for (auto &v : z)
            v = ckks::Complex(r.uniformReal() - 0.5,
                              r.uniformReal() - 0.5);
        pt = ctx.encoder().encode(z, ctx.params().scale(), 3);
    }

    ckks::Ciphertext
    encryptSlots(u64 seed, std::size_t lc)
    {
        Rng r(seed);
        std::vector<ckks::Complex> z(ctx.slots());
        for (auto &v : z)
            v = ckks::Complex(r.uniformReal() - 0.5,
                              r.uniformReal() - 0.5);
        return enc.encrypt(
            ctx.encoder().encode(z, ctx.params().scale(), lc), rng);
    }

    double scale() const { return ctx.params().scale(); }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    nn::NnEngine engine;
    ckks::Plaintext pt;
};

Fixture &
fx()
{
    static Fixture f;
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
                ASSERT_EQ(a[s].c0.limb(l)[k], b[s].c0.limb(l)[k]);
                ASSERT_EQ(a[s].c1.limb(l)[k], b[s].c1.limb(l)[k]);
            }
    }
}

std::size_t
countKind(const Graph &g, NodeKind k)
{
    std::size_t n = 0;
    for (const auto &node : g.nodes)
        if (!node.dead && node.kind == k)
            ++n;
    return n;
}

/** x * pt -> rescale; the product is dead after the rescale. */
Graph
chain(Fixture &f)
{
    GraphBuilder b(f.ctx);
    ValueId x = b.input(1, 3, f.scale());
    ValueId r = b.rescale(b.mulPlain(x, f.pt));
    b.output(r);
    return b.take();
}

TEST(GraphCmultRescale, ChainStaysMulPlainThenRescale)
{
    auto &f = fx();
    auto g = chain(f);
    auto sched = scheduleGraph(g);
    EXPECT_EQ(sched.fusedGroups, 0u); // a lone CMULT has no partner
    EXPECT_EQ(countKind(g, NodeKind::MulPlain), 1u);
    EXPECT_EQ(countKind(g, NodeKind::Rescale), 1u);
    ASSERT_EQ(sched.order.size(), 3u);
    EXPECT_EQ(g.nodes[sched.order[1]].kind, NodeKind::MulPlain);
    EXPECT_EQ(g.nodes[sched.order[2]].kind, NodeKind::Rescale);

    // The compiled meta is the one shared scale formula.
    const auto &out = g.values[g.outputs[0]];
    EXPECT_EQ(out.levelCount, 2u);
    EXPECT_EQ(out.scale, mulRescaleScale(f.ctx, f.scale(), f.pt.scale, 3));
}

TEST(GraphCmultRescale, ChainRunBitIdenticalToEagerWithSameOpStats)
{
    auto &f = fx();
    Cts in{f.encryptSlots(42, 3), f.encryptSlots(43, 3)};
    const auto &beval = f.engine;

    EvalOpStats::instance().reset();
    auto eager = beval.rescale(beval.multiplyPlain(in, f.pt));
    auto stats_e = EvalOpStats::instance().snapshot();

    auto g = chain(f);
    auto sched = scheduleGraph(g);
    EvalOpStats::instance().reset();
    auto res = GraphExecutor(g, sched).run(f.engine, {in});
    auto stats_g = EvalOpStats::instance().snapshot();

    ASSERT_EQ(res.outputs.size(), 1u);
    expectBitIdentical(res.outputs[0], eager);
    // The runtime scale is the compiled meta.
    EXPECT_EQ(res.outputs[0][0].scale, g.values[g.outputs[0]].scale);
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(stats_g.get(kind), stats_e.get(kind))
            << evalOpKindName(kind);
    }
}

TEST(GraphCmultRescale, ChainLaunchesTheEagerKernelQueue)
{
    auto &f = fx();
    Cts in{f.encryptSlots(45, 3), f.encryptSlots(46, 3),
           f.encryptSlots(47, 3)};
    const auto &beval = f.engine;

    KernelStats::QueueCapture cap;
    (void)beval.rescale(beval.multiplyPlain(in, f.pt));
    auto eager = cap.take();

    auto g = chain(f);
    auto sched = scheduleGraph(g);
    ExecOptions opt;
    opt.captureSchedule = true;
    auto res = GraphExecutor(g, sched).run(f.engine, {in}, opt);

    ASSERT_EQ(res.launchCount, eager.size());
    ASSERT_EQ(res.schedule.size(), eager.size());
    for (std::size_t i = 0; i < eager.size(); ++i) {
        EXPECT_EQ(res.schedule[i].launch.kind, eager[i].kind)
            << "launch " << i << ": "
            << kernelKindName(res.schedule[i].launch.kind) << " vs "
            << kernelKindName(eager[i].kind);
        EXPECT_EQ(res.schedule[i].launch.elements, eager[i].elements)
            << "launch " << i;
    }
}

TEST(GraphCmultRescale, ObservableProductRunsBitIdentical)
{
    // The product is a graph output AND feeds both the rescale and an
    // add: every consumer must see the materialized CMULT result.
    auto &f = fx();
    GraphBuilder b(f.ctx);
    ValueId x = b.input(1, 3, f.scale());
    ValueId t = b.mulPlain(x, f.pt);
    ValueId r = b.rescale(t);
    ValueId u = b.add(t, t);
    b.output(t);
    b.output(r);
    b.output(u);
    auto g = b.take();
    auto sched = scheduleGraph(g);
    EXPECT_EQ(sched.fusedGroups, 0u);
    EXPECT_EQ(countKind(g, NodeKind::MulPlain), 1u);
    EXPECT_EQ(countKind(g, NodeKind::Rescale), 1u);

    Cts in{f.encryptSlots(44, 3)};
    auto res = GraphExecutor(g, sched).run(f.engine, {in});
    const auto &beval = f.engine;
    auto expect_t = beval.multiplyPlain(in, f.pt);
    ASSERT_EQ(res.outputs.size(), 3u);
    expectBitIdentical(res.outputs[0], expect_t);
    expectBitIdentical(res.outputs[1], beval.rescale(expect_t));
    expectBitIdentical(res.outputs[2], beval.add(expect_t, expect_t));
}

TEST(GraphCmultRescale, ElementwisePassFoldsAddIntoTheCmult)
{
    // add -> mulPlain -> rescale (AvgPool's last add and its mask):
    // the add and the CMULT form one FusedEle group, the rescale
    // stays its own node, and execution stays bit-identical to the
    // unfused schedule with the same op stats and one launch fewer.
    auto &f = fx();
    auto build = [&] {
        GraphBuilder b(f.ctx);
        ValueId x = b.input(1, 3, f.scale());
        ValueId y = b.input(1, 3, f.scale());
        b.output(b.rescale(b.mulPlain(b.add(x, y), f.pt)));
        return b.take();
    };
    Cts inx{f.encryptSlots(50, 3)};
    Cts iny{f.encryptSlots(51, 3)};
    ExecOptions opt;
    opt.captureSchedule = true;

    auto gu = build();
    auto su = scheduleGraph(gu, {.fuse = false});
    EXPECT_EQ(su.fusedGroups, 0u);
    EvalOpStats::instance().reset();
    auto unfused = GraphExecutor(gu, su).run(f.engine, {inx, iny}, opt);
    auto stats_u = EvalOpStats::instance().snapshot();

    auto gf = build();
    auto sf = scheduleGraph(gf);
    EXPECT_EQ(sf.fusedGroups, 1u);
    EXPECT_EQ(sf.fusedMembers, 2u);
    EXPECT_EQ(countKind(gf, NodeKind::FusedEle), 1u);
    EXPECT_EQ(countKind(gf, NodeKind::MulPlain), 0u);
    EXPECT_EQ(countKind(gf, NodeKind::Rescale), 1u);
    EvalOpStats::instance().reset();
    auto fused = GraphExecutor(gf, sf).run(f.engine, {inx, iny}, opt);
    auto stats_f = EvalOpStats::instance().snapshot();

    expectBitIdentical(fused.outputs[0], unfused.outputs[0]);
    const auto &beval = f.engine;
    expectBitIdentical(fused.outputs[0],
                       beval.rescale(beval.multiplyPlain(
                           beval.add(inx, iny), f.pt)));
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(stats_f.get(kind), stats_u.get(kind))
            << evalOpKindName(kind);
    }
    EXPECT_EQ(unfused.launchCount - fused.launchCount,
              sf.launchesSaved());
}

} // namespace
} // namespace tensorfhe::graph
