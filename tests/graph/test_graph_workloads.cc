/**
 * @file
 * Graph-vs-eager equivalence on every workload in src/workloads: the
 * AOT-compiled kernel DAG must reproduce the eager evaluator's output
 * BIT-identically (raw residue limbs, not a tolerance), with the same
 * executed-op statistics, fewer kernel launches (fusion), and
 * steady-state workspace reuse from the first run (prestage). The
 * deep CNN covers the auto-bootstrap splice: the refresh stays an
 * opaque LayerApply node inside the graph.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "graph/executor.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace tensorfhe::graph
{
namespace
{

using workloads::EncryptedCnnClassifier;
using workloads::EncryptedLstmCell;

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
                    << "ct " << s << " limb " << l;
                ASSERT_EQ(a[s].c1.limb(l)[k], b[s].c1.limb(l)[k])
                    << "ct " << s << " limb " << l;
            }
    }
}

// ------------------------------------------------------------------
// Default CNN: single-chunk pipeline (matvec conv, poly ReLU, pool,
// dense) compiled to a graph via compileSequential.

struct CnnGraphFixture
{
    CnnGraphFixture()
        : ctx(EncryptedCnnClassifier::recommendedParams()), cnn(ctx),
          rng(91), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cnn.requiredRotations())),
          enc(ctx, keys.pk), dec(ctx, sk), engine(ctx, keys)
    {}

    nn::CipherTensor
    encryptImage(u64 seed)
    {
        Rng r(seed);
        const auto &meta = cnn.inputMeta();
        std::vector<double> img(cnn.config().inChannels
                                * cnn.config().height
                                * cnn.config().width);
        for (auto &v : img)
            v = r.uniformReal();
        return nn::encryptTensor(ctx, enc, rng, img, meta.shape,
                                 meta.levelCount);
    }

    ckks::CkksContext ctx;
    EncryptedCnnClassifier cnn;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    ckks::Decryptor dec;
    nn::NnEngine engine;
};

CnnGraphFixture &
cfx()
{
    static CnnGraphFixture f;
    return f;
}

/** Flatten sample tensors into the sample-major graph input batch. */
Cts
flatten(const std::vector<nn::CipherTensor> &samples)
{
    Cts flat;
    for (const auto &t : samples)
        for (const auto &ct : t.chunks())
            flat.push_back(ct);
    return flat;
}

TEST(GraphCnn, CompiledGraphIsBitIdenticalToEagerRun)
{
    auto &f = cfx();
    auto g = compileSequential(f.ctx, f.cnn.net());
    ASSERT_EQ(g.inputs.size(), 1u);
    ASSERT_EQ(g.outputs.size(), 1u);
    auto sched = scheduleGraph(g);

    std::vector<nn::CipherTensor> batch{f.encryptImage(301),
                                        f.encryptImage(302)};
    auto eager = f.cnn.net().run(f.engine, batch);
    Cts eager_flat = flatten(eager);

    GraphExecutor ex(g, sched);
    auto res = ex.run(f.engine, {flatten(batch)});
    ASSERT_EQ(res.outputs.size(), 1u);
    expectBitIdentical(res.outputs[0], eager_flat);
}

TEST(GraphCnn, GraphRunMatchesEagerOpStats)
{
    auto &f = cfx();
    auto g = compileSequential(f.ctx, f.cnn.net());
    auto sched = scheduleGraph(g);

    std::vector<nn::CipherTensor> batch{f.encryptImage(311)};

    EvalOpStats::instance().reset();
    f.cnn.net().run(f.engine, batch);
    auto eager = EvalOpStats::instance().snapshot();

    EvalOpStats::instance().reset();
    GraphExecutor(g, sched).run(f.engine, {flatten(batch)});
    auto graph = EvalOpStats::instance().snapshot();

    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(graph.get(kind), eager.get(kind))
            << evalOpKindName(kind);
    }
}

TEST(GraphCnn, PrestagedWorkspaceHitsSteadyStateReuseCold)
{
    auto &f = cfx();
    auto g = compileSequential(f.ctx, f.cnn.net());
    auto sched = scheduleGraph(g);
    GraphExecutor ex(g, sched);

    std::vector<nn::CipherTensor> batch{f.encryptImage(321)};
    auto &ws = f.engine.dispatcher().workspace();
    ws.trim(); // force a cold arena
    ex.prestageWorkspace(f.engine, batch.size());
    ws.resetStats(); // prestage allocs are the AOT cost, not the run
    ex.run(f.engine, {flatten(batch)});
    auto stats = ws.stats();
    EXPECT_GT(stats.allocs + stats.reuses, 0u);
    EXPECT_GE(stats.reuseRate(), 0.9)
        << stats.reuses << " reuses vs " << stats.allocs << " allocs";
}

TEST(GraphCnn, PrestagedColdRunAllocatesNothing)
{
    // The prestage covers the peak lease demand of every node,
    // including the baby tables a running BsgsSum holds, so a cold
    // run is served entirely from the pool.
    auto &f = cfx();
    auto g = compileSequential(f.ctx, f.cnn.net());
    auto sched = scheduleGraph(g);
    GraphExecutor ex(g, sched);

    std::vector<nn::CipherTensor> batch{f.encryptImage(331),
                                        f.encryptImage(332)};
    auto &ws = f.engine.dispatcher().workspace();
    ws.trim();
    ex.prestageWorkspace(f.engine, batch.size());
    ws.resetStats();
    ex.run(f.engine, {flatten(batch)});
    auto stats = ws.stats();
    EXPECT_GT(stats.reuses, 0u);
    EXPECT_EQ(stats.allocs, 0u) << stats.reuses << " reuses";
}

// ------------------------------------------------------------------
// LSTM cell step: the fusion (masked gate combine) and overlap (two
// independent gate matvecs) showcases.

struct LstmGraphFixture
{
    LstmGraphFixture()
        : ctx(EncryptedLstmCell::recommendedParams()), cell(ctx),
          rng(95), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cell.requiredRotations())),
          enc(ctx, keys.pk), engine(ctx, keys)
    {}

    nn::CipherTensor
    encryptState(u64 seed)
    {
        Rng r(seed);
        std::vector<double> v(cell.config().dim);
        for (auto &x : v)
            x = 2 * r.uniformReal() - 1;
        return nn::encryptTensor(ctx, enc, rng, v,
                                 cell.inputMeta().shape,
                                 cell.inputMeta().levelCount);
    }

    ckks::CkksContext ctx;
    EncryptedLstmCell cell;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    nn::NnEngine engine;
};

LstmGraphFixture &
lfx()
{
    static LstmGraphFixture f;
    return f;
}

TEST(GraphLstm, StepGraphIsBitIdenticalToEagerStep)
{
    auto &f = lfx();
    auto g = f.cell.buildStepGraph(f.ctx);
    ASSERT_EQ(g.inputs.size(), 3u);  // x, h, c
    ASSERT_EQ(g.outputs.size(), 2u); // h', c'
    auto sched = scheduleGraph(g);
    // The masked combine (mask*s + mask*t) must have fused.
    EXPECT_GE(sched.fusedGroups, 1u);
    // The two gate matvecs are independent branches.
    EXPECT_GE(sched.streamsUsed, 2);

    auto x = f.encryptState(71);
    EncryptedLstmCell::State prev{f.encryptState(72),
                                  f.encryptState(73)};
    auto eager = f.cell.step(f.engine, x, prev);

    GraphExecutor ex(g, sched);
    auto res = ex.run(f.engine,
                      {x.chunks(), prev.h.chunks(), prev.c.chunks()});
    ASSERT_EQ(res.outputs.size(), 2u);
    expectBitIdentical(res.outputs[0], eager.h.chunks());
    expectBitIdentical(res.outputs[1], eager.c.chunks());
}

TEST(GraphLstm, FusionSavesLaunchesWithIdenticalBitsAndStats)
{
    auto &f = lfx();
    auto fused_g = f.cell.buildStepGraph(f.ctx);
    auto fused = scheduleGraph(fused_g);
    auto plain_g = f.cell.buildStepGraph(f.ctx);
    auto plain = scheduleGraph(plain_g, {.fuse = false});
    ASSERT_GT(fused.launchesSaved(), 0u);

    auto x = f.encryptState(81);
    EncryptedLstmCell::State prev{f.encryptState(82),
                                  f.encryptState(83)};
    std::vector<Cts> inputs{x.chunks(), prev.h.chunks(),
                            prev.c.chunks()};

    GraphExecutor fex(fused_g, fused);
    GraphExecutor pex(plain_g, plain);
    // Warm the plan/hoist caches: the first run of either graph pays
    // one-time plan-build launches that would skew the launch-count
    // comparison.
    fex.run(f.engine, inputs);

    ExecOptions cap;
    cap.captureSchedule = true;
    EvalOpStats::instance().reset();
    auto fres = fex.run(f.engine, inputs, cap);
    auto fstats = EvalOpStats::instance().snapshot();
    EvalOpStats::instance().reset();
    auto pres = pex.run(f.engine, inputs, cap);
    auto pstats = EvalOpStats::instance().snapshot();

    // Same bits, same modeled ops, fewer launches — exactly the
    // schedule's accounting.
    expectBitIdentical(fres.outputs[0], pres.outputs[0]);
    expectBitIdentical(fres.outputs[1], pres.outputs[1]);
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(fstats.get(kind), pstats.get(kind))
            << evalOpKindName(kind);
    }
    EXPECT_EQ(pres.launchCount - fres.launchCount,
              fused.launchesSaved());

    // The scheduled replay beats the serialized one.
    auto replay =
        gpu::replayScheduledQueue(fres.schedule, f.ctx.params().n);
    EXPECT_GT(replay.streamsUsed, 1);
    EXPECT_LT(replay.makespanCycles, replay.serialCycles);
}

TEST(GraphLstm, PrestagedColdRunAllocatesNothing)
{
    auto &f = lfx();
    auto g = f.cell.buildStepGraph(f.ctx);
    auto sched = scheduleGraph(g);
    GraphExecutor ex(g, sched);

    auto x = f.encryptState(91);
    EncryptedLstmCell::State prev{f.encryptState(92),
                                  f.encryptState(93)};
    auto &ws = f.engine.dispatcher().workspace();
    ws.trim();
    ex.prestageWorkspace(f.engine, 1);
    ws.resetStats();
    ex.run(f.engine, {x.chunks(), prev.h.chunks(), prev.c.chunks()});
    auto stats = ws.stats();
    EXPECT_GT(stats.reuses, 0u);
    EXPECT_EQ(stats.allocs, 0u) << stats.reuses << " reuses";
}

// ------------------------------------------------------------------
// Deep CNN: two-chunk block matvecs and an auto-spliced bootstrap,
// which must survive as an opaque LayerApply node.

struct DeepGraphFixture
{
    DeepGraphFixture()
        : ctx(EncryptedCnnClassifier::recommendedDeepParams()),
          cnn(ctx, EncryptedCnnClassifier::deepConfig()), rng(97),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cnn.requiredRotations(),
                                cnn.requiredConjRotations())),
          enc(ctx, keys.pk), engine(ctx, keys)
    {}

    nn::CipherTensor
    encryptImage(u64 seed)
    {
        Rng r(seed);
        const auto &meta = cnn.inputMeta();
        std::vector<double> img(cnn.config().inChannels
                                * cnn.config().height
                                * cnn.config().width);
        for (auto &v : img)
            v = r.uniformReal();
        return nn::encryptTensor(ctx, enc, rng, img, meta.shape,
                                 meta.levelCount);
    }

    ckks::CkksContext ctx;
    EncryptedCnnClassifier cnn;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    nn::NnEngine engine;
};

DeepGraphFixture &
dfx()
{
    static DeepGraphFixture f;
    return f;
}

TEST(GraphDeepCnn, BootstrapSpliceGraphIsBitIdenticalToEager)
{
    auto &f = dfx();
    ASSERT_GE(f.cnn.net().bootstrapCount(), 1u);
    auto g = compileSequential(f.ctx, f.cnn.net());

    // The spliced refresh stays opaque: exactly bootstrapCount()
    // LayerApply nodes, and the block matvecs unpack two chunks.
    std::size_t layer_applies = 0;
    bool multi_chunk = false;
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::LayerApply)
            ++layer_applies;
        if (n.kind == NodeKind::Unpack && n.outputs.size() == 2)
            multi_chunk = true;
    }
    EXPECT_EQ(layer_applies, f.cnn.net().bootstrapCount());
    EXPECT_TRUE(multi_chunk);

    auto sched = scheduleGraph(g);
    std::vector<nn::CipherTensor> batch{f.encryptImage(701)};
    auto eager = f.cnn.net().run(f.engine, batch);
    auto res = GraphExecutor(g, sched).run(f.engine,
                                           {flatten(batch)});
    ASSERT_EQ(res.outputs.size(), 1u);
    expectBitIdentical(res.outputs[0], flatten(eager));
}

} // namespace
} // namespace tensorfhe::graph
