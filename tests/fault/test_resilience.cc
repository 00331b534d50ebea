/**
 * @file
 * Resilient graph execution under injected faults: a retried node is
 * bit-identical to an uninterrupted run (raw residue limbs AND
 * executed-op accounting), paranoid guards catch injected value
 * corruption with the node attached, checkpoint/resume reproduces the
 * straight-through run bit for bit on the CNN, deep-CNN (bootstrap
 * splice) and LSTM graphs, and a failed run always leaves the engine
 * reusable with zero outstanding workspace leases.
 */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "common/stats.hh"
#include "fault/fault.hh"
#include "graph/executor.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace tensorfhe::graph
{
namespace
{

using fault::FaultKind;
using fault::FaultPlan;
using workloads::EncryptedCnnClassifier;
using workloads::EncryptedLstmCell;

struct PlanGuard
{
    ~PlanGuard() { FaultPlan::instance().disarm(); }
};

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

void
expectAllBitIdentical(const std::vector<Cts> &a,
                      const std::vector<Cts> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectBitIdentical(a[i], b[i]);
}

Cts
flatten(const std::vector<nn::CipherTensor> &samples)
{
    Cts flat;
    for (const auto &t : samples)
        for (const auto &ct : t.chunks())
            flat.push_back(ct);
    return flat;
}

// ------------------------------------------------------------------
// LSTM step graph: the cheap multi-input workload all the fault
// drills run on.

struct LstmFixture
{
    LstmFixture()
        : ctx(EncryptedLstmCell::recommendedParams()), cell(ctx),
          rng(95), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cell.requiredRotations())),
          enc(ctx, keys.pk), engine(ctx, keys),
          g(cell.buildStepGraph(ctx)), sched(scheduleGraph(g)),
          ex(g, sched)
    {
        auto mk = [&](u64 seed) {
            Rng r(seed);
            std::vector<double> v(cell.config().dim);
            for (auto &x : v)
                x = 2 * r.uniformReal() - 1;
            return nn::encryptTensor(ctx, enc, rng, v,
                                     cell.inputMeta().shape,
                                     cell.inputMeta().levelCount);
        };
        auto x = mk(171);
        EncryptedLstmCell::State prev{mk(172), mk(173)};
        inputs = {x.chunks(), prev.h.chunks(), prev.c.chunks()};
        engine.dispatcher().workspace().setLeaseTracking(
            true);

        // Reference bits + op accounting + per-site hit profile; the
        // first run also warms the plan caches so every later run
        // (faulted or not) replays the same launches.
        ex.run(engine, inputs);
        EvalOpStats::instance().reset();
        FaultPlan::instance().startCounting();
        ref = ex.run(engine, inputs).outputs;
        hits = FaultPlan::instance().stopCounting();
        refStats = EvalOpStats::instance().snapshot();
    }

    ckks::CkksContext ctx;
    EncryptedLstmCell cell;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    nn::NnEngine engine;
    Graph g;
    Schedule sched;
    GraphExecutor ex;
    std::vector<Cts> inputs;
    std::vector<Cts> ref;
    EvalOpCounts refStats;
    std::map<std::string, u64> hits;
};

LstmFixture &
lfx()
{
    static LstmFixture f;
    return f;
}

std::size_t
leases(LstmFixture &f)
{
    return f.engine.dispatcher().workspace()
        .outstandingLeases();
}

/** Arm a fault in the middle of the site's hit sequence, run with
    retry, and require the typed recovery story: completion,
    bit-identity, identical op accounting, zero leaked leases. */
void
expectRecoveredRun(LstmFixture &f, const char *site, FaultKind kind)
{
    PlanGuard guard;
    ASSERT_GT(f.hits[site], 0u) << site << " never hit on this graph";
    FaultPlan::instance().arm({site, kind, f.hits[site] / 2, 4242});

    ExecOptions opt;
    opt.paranoid = true;
    opt.retry.maxAttempts = 3;
    EvalOpStats::instance().reset();
    auto res = f.ex.run(f.engine, f.inputs, opt);
    auto stats = EvalOpStats::instance().snapshot();

    EXPECT_TRUE(FaultPlan::instance().fired()) << site;
    EXPECT_GE(res.retriesUsed, 1u) << site;
    expectAllBitIdentical(res.outputs, f.ref);
    // The failed attempt's ops were rolled back: accounting matches
    // the fault-free run exactly.
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind_k = static_cast<EvalOpKind>(k);
        EXPECT_EQ(stats.get(kind_k), f.refStats.get(kind_k))
            << site << ": " << evalOpKindName(kind_k);
    }
    EXPECT_EQ(leases(f), 0u) << site;
}

TEST(Resilience, ParanoidCleanRunIsBitIdentical)
{
    auto &f = lfx();
    ExecOptions opt;
    opt.paranoid = true;
    auto res = f.ex.run(f.engine, f.inputs, opt);
    expectAllBitIdentical(res.outputs, f.ref);
    EXPECT_EQ(res.retriesUsed, 0u);
}

TEST(Resilience, TransientKernelFaultIsRetriedBitIdentically)
{
    expectRecoveredRun(lfx(), "exec/keyswitch-tail",
                       FaultKind::TransientKernel);
}

TEST(Resilience, AllocFailureIsRetriedBitIdentically)
{
    expectRecoveredRun(lfx(), "workspace/alloc", FaultKind::AllocFail);
}

TEST(Resilience, ModUpFaultIsRetriedBitIdentically)
{
    expectRecoveredRun(lfx(), "exec/modup",
                       FaultKind::TransientKernel);
}

TEST(Resilience, NodeOutputBitFlipIsCaughtAndRetried)
{
    // The flip lands on a fresh output BEFORE its digest is sealed;
    // the residue range scan catches it, the retry repairs it.
    expectRecoveredRun(lfx(), "graph/node-output",
                       FaultKind::LimbBitFlip);
}

TEST(Resilience, NodeOutputMetaCorruptionIsCaughtAndRetried)
{
    expectRecoveredRun(lfx(), "graph/node-output",
                       FaultKind::MetaCorrupt);
}

TEST(Resilience, StoredValueCorruptionSurfacesTypedNotRetried)
{
    auto &f = lfx();
    PlanGuard guard;
    ASSERT_GT(f.hits["graph/value-store"], 0u);
    FaultPlan::instance().arm({"graph/value-store",
                               FaultKind::LimbBitFlip,
                               f.hits["graph/value-store"] / 2, 77});

    ExecOptions opt;
    opt.paranoid = true;
    opt.retry.maxAttempts = 3; // must NOT mask at-rest corruption
    try {
        f.ex.run(f.engine, f.inputs, opt);
        FAIL() << "at-rest corruption completed silently";
    } catch (const IntegrityError &e) {
        EXPECT_EQ(e.site(), "graph/value-store");
        EXPECT_TRUE(e.hasNode());
    }
    EXPECT_EQ(leases(f), 0u);

    // The engine survives the failed run: a clean re-run reproduces
    // the reference bits.
    FaultPlan::instance().disarm();
    auto res = f.ex.run(f.engine, f.inputs, opt);
    expectAllBitIdentical(res.outputs, f.ref);
}

TEST(Resilience, ExhaustedRetriesSurfaceTransientWithNode)
{
    auto &f = lfx();
    PlanGuard guard;
    FaultPlan::instance().arm({"exec/moddown",
                               FaultKind::TransientKernel,
                               f.hits["exec/moddown"] / 2, 5});
    try {
        f.ex.run(f.engine, f.inputs); // default policy: no retry
        FAIL() << "transient fault completed silently";
    } catch (const TransientFault &e) {
        EXPECT_EQ(e.site(), "exec/moddown");
        EXPECT_TRUE(e.hasNode());
    }
    EXPECT_EQ(leases(f), 0u);
    FaultPlan::instance().disarm();
    auto res = f.ex.run(f.engine, f.inputs);
    expectAllBitIdentical(res.outputs, f.ref);
}

// ------------------------------------------------------------------
// Checkpoint / resume.

TEST(Resilience, CheckpointsFollowSchedulerCuts)
{
    auto &f = lfx();
    std::vector<resilience::Checkpoint> log;
    ExecOptions opt;
    opt.checkpointEvery = 4;
    opt.checkpointLog = &log;
    auto res = f.ex.run(f.engine, f.inputs, opt);
    expectAllBitIdentical(res.outputs, f.ref);

    ASSERT_GE(log.size(), 2u);
    EXPECT_EQ(res.checkpointsTaken, log.size());
    auto cuts = resilience::chooseCutPoints(f.g, f.sched, 4);
    ASSERT_EQ(cuts.size(), log.size());
    std::size_t prev = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const auto &cp = log[i];
        EXPECT_FALSE(cp.empty());
        EXPECT_EQ(cp.resumeIndex, cuts[i] + 1);
        EXPECT_GT(cp.resumeIndex, prev);
        prev = cp.resumeIndex;
        EXPECT_LE(cp.resumeIndex, f.sched.order.size());
        EXPECT_EQ(cp.graphNodes, f.g.nodes.size());
        ASSERT_EQ(cp.valueIds.size(), cp.values.size());
        ASSERT_EQ(cp.valueIds.size(), cp.checksums.size());
        EXPECT_FALSE(cp.valueIds.empty());
    }
}

TEST(Resilience, ResumeFromEveryLstmCheckpointIsBitIdentical)
{
    auto &f = lfx();
    std::vector<resilience::Checkpoint> log;
    ExecOptions opt;
    opt.checkpointEvery = 4;
    opt.checkpointLog = &log;
    f.ex.run(f.engine, f.inputs, opt);
    ASSERT_GE(log.size(), 1u);

    for (const auto &cp : log) {
        auto res = f.ex.resumeFrom(f.engine, cp);
        expectAllBitIdentical(res.outputs, f.ref);
    }
    // The checkpoint is read, not consumed: resume twice.
    auto again = f.ex.resumeFrom(f.engine, log.back());
    expectAllBitIdentical(again.outputs, f.ref);
    EXPECT_EQ(leases(f), 0u);
}

TEST(Resilience, CorruptedCheckpointRefusesToResume)
{
    auto &f = lfx();
    std::vector<resilience::Checkpoint> log;
    ExecOptions opt;
    opt.checkpointEvery = 4;
    opt.checkpointLog = &log;
    f.ex.run(f.engine, f.inputs, opt);
    ASSERT_GE(log.size(), 1u);

    auto cp = log.back();
    ASSERT_FALSE(cp.values.empty());
    cp.values[0][0].c0.limb(0)[1] ^= 1; // an in-range at-rest flip
    try {
        f.ex.resumeFrom(f.engine, cp);
        FAIL() << "resumed from a corrupted checkpoint";
    } catch (const IntegrityError &e) {
        EXPECT_EQ(e.site(), "resilience/checkpoint");
    }
    // The pristine copy still resumes.
    auto res = f.ex.resumeFrom(f.engine, log.back());
    expectAllBitIdentical(res.outputs, f.ref);
}

TEST(Resilience, ResumeRejectsForeignAndMalformedCheckpoints)
{
    auto &f = lfx();
    EXPECT_THROW(f.ex.resumeFrom(f.engine, resilience::Checkpoint{}),
                 std::invalid_argument);

    std::vector<resilience::Checkpoint> log;
    ExecOptions opt;
    opt.checkpointEvery = 4;
    opt.checkpointLog = &log;
    f.ex.run(f.engine, f.inputs, opt);
    auto cp = log.back();
    cp.graphNodes += 1; // pretend it came from another graph
    EXPECT_THROW(f.ex.resumeFrom(f.engine, cp),
                 std::invalid_argument);
}

TEST(Resilience, RetryComposesWithCheckpointing)
{
    auto &f = lfx();
    PlanGuard guard;
    FaultPlan::instance().arm({"exec/keyswitch-tail",
                               FaultKind::TransientKernel,
                               f.hits["exec/keyswitch-tail"] / 3,
                               911});
    std::vector<resilience::Checkpoint> log;
    ExecOptions opt;
    opt.paranoid = true;
    opt.retry.maxAttempts = 3;
    opt.checkpointEvery = 4;
    opt.checkpointLog = &log;
    auto res = f.ex.run(f.engine, f.inputs, opt);
    EXPECT_GE(res.retriesUsed, 1u);
    expectAllBitIdentical(res.outputs, f.ref);
    ASSERT_GE(log.size(), 1u);
    auto resumed = f.ex.resumeFrom(f.engine, log.back(), opt);
    expectAllBitIdentical(resumed.outputs, f.ref);
}

// ------------------------------------------------------------------
// Workspace lease accounting.

TEST(Resilience, WorkspaceLeaseTrackingNamesSites)
{
    auto &f = lfx();
    auto &ws = f.engine.dispatcher().workspace();
    ws.setLeaseTracking(true);
    ASSERT_EQ(ws.outstandingLeases(), 0u);
    {
        auto a = ws.zeros(f.ctx.qLimbs(2), rns::Domain::Eval,
                          "test/lease-a");
        auto b = ws.zeros(f.ctx.qLimbs(2), rns::Domain::Eval,
                          "test/lease-b");
        auto c = ws.zeros(f.ctx.qLimbs(2), rns::Domain::Eval,
                          "test/lease-a");
        EXPECT_EQ(ws.outstandingLeases(), 3u);
        auto by_site = ws.outstandingBySite();
        EXPECT_EQ(by_site["test/lease-a"], 2u);
        EXPECT_EQ(by_site["test/lease-b"], 1u);
    }
    EXPECT_EQ(ws.outstandingLeases(), 0u);
    EXPECT_TRUE(ws.outstandingBySite().empty());
}

// ------------------------------------------------------------------
// CNN (compileSequential) and deep CNN (bootstrap splice).

TEST(Resilience, CheckpointResumeBitIdenticalOnCnn)
{
    ckks::CkksContext ctx(EncryptedCnnClassifier::recommendedParams());
    EncryptedCnnClassifier cnn(ctx);
    Rng rng(91);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cnn.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);

    Rng ir(501);
    const auto &meta = cnn.inputMeta();
    std::vector<double> img(cnn.config().inChannels
                            * cnn.config().height
                            * cnn.config().width);
    for (auto &v : img)
        v = ir.uniformReal();
    auto image = nn::encryptTensor(ctx, enc, rng, img, meta.shape,
                                   meta.levelCount);

    auto g = compileSequential(ctx, cnn.net());
    GraphExecutor ex(g, scheduleGraph(g));
    std::vector<Cts> inputs{flatten({image})};
    auto ref = ex.run(engine, inputs).outputs;

    std::vector<resilience::Checkpoint> log;
    ExecOptions opt;
    opt.paranoid = true;
    opt.checkpointEvery = 8;
    opt.checkpointLog = &log;
    auto res = ex.run(engine, inputs, opt);
    expectAllBitIdentical(res.outputs, ref);
    ASSERT_GE(log.size(), 1u);
    auto resumed = ex.resumeFrom(engine, log.back(), opt);
    expectAllBitIdentical(resumed.outputs, ref);
}

TEST(Resilience, CheckpointResumeBitIdenticalAcrossBootstrap)
{
    ckks::CkksContext ctx(
        EncryptedCnnClassifier::recommendedDeepParams());
    EncryptedCnnClassifier cnn(ctx,
                               EncryptedCnnClassifier::deepConfig());
    Rng rng(97);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cnn.requiredRotations(),
                                 cnn.requiredConjRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);
    ASSERT_GE(cnn.net().bootstrapCount(), 1u);

    Rng ir(701);
    const auto &meta = cnn.inputMeta();
    std::vector<double> img(cnn.config().inChannels
                            * cnn.config().height
                            * cnn.config().width);
    for (auto &v : img)
        v = ir.uniformReal();
    auto image = nn::encryptTensor(ctx, enc, rng, img, meta.shape,
                                   meta.levelCount);

    auto g = compileSequential(ctx, cnn.net());
    GraphExecutor ex(g, scheduleGraph(g));
    std::vector<Cts> inputs{flatten({image})};
    auto ref = ex.run(engine, inputs).outputs;

    std::vector<resilience::Checkpoint> log;
    ExecOptions opt;
    opt.checkpointEvery = 6;
    opt.checkpointLog = &log;
    auto res = ex.run(engine, inputs, opt);
    expectAllBitIdentical(res.outputs, ref);
    ASSERT_GE(log.size(), 2u);
    // Resume both from the earliest cut (re-executes the spliced
    // bootstrap LayerApply) and from the last one.
    auto early = ex.resumeFrom(engine, log.front());
    expectAllBitIdentical(early.outputs, ref);
    auto late = ex.resumeFrom(engine, log.back());
    expectAllBitIdentical(late.outputs, ref);
}

} // namespace
} // namespace tensorfhe::graph
