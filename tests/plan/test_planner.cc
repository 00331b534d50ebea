/**
 * @file
 * Global execution planner tests: the planned schedule never costs
 * more than the greedy baseline (and strictly beats it when a
 * drop is available), the rebuilt stack runs correctly end to end
 * with executed ops exactly matching the plan's model, graph and
 * eager execution of a planner-built net stay bit-identical, the
 * plan.* metrics are populated, and infeasibility errors name the
 * first infeasible layer next to the best plan found.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/builder.hh"
#include "graph/executor.hh"
#include "nn/sequential.hh"
#include "trace/metrics.hh"
#include "workloads/cnn.hh"

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

std::vector<std::vector<double>>
randomMatrix(std::size_t rows, std::size_t cols, double mag, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> w(rows,
                                       std::vector<double>(cols));
    for (auto &row : w)
        for (auto &v : row)
            v = mag * (2 * rng.uniformReal() - 1);
    return w;
}

/** The bootstrap-forcing stack of the auto-bootstrap tests: cost 7
    against a 5-limb input, so a refresh must land mid-walk. */
void
buildDeepNet(Sequential &net)
{
    net.emplace<Dense>(randomMatrix(8, 8, 0.1, 21));
    net.emplace<PolyActivation>(reluApprox(2));
    net.emplace<Dense>(randomMatrix(8, 8, 0.1, 22));
    net.emplace<PolyActivation>(reluApprox(2));
    net.emplace<Dense>(randomMatrix(4, 8, 0.1, 23));
}

void
expectStepsChain(const plan::ExecutionPlan &plan, const TensorMeta &in,
                 const TensorMeta &out)
{
    ASSERT_FALSE(plan.steps().empty());
    const TensorMeta *prev = &in;
    for (const auto &st : plan.steps()) {
        EXPECT_EQ(st.in.levelCount, prev->levelCount) << st.name;
        EXPECT_EQ(st.in.chunkCount, prev->chunkCount) << st.name;
        EXPECT_GE(st.work, 0.0) << st.name;
        prev = &st.out;
    }
    EXPECT_EQ(prev->levelCount, out.levelCount);
    EXPECT_GE(prev->levelCount, 1u);
}

TEST(Planner, PlannedScheduleNeverCostsMoreThanGreedy)
{
    ckks::CkksContext ctx(bootParams());
    TensorMeta in = freshMeta(ctx, {{8}}, 5);

    // The greedy baseline: buildDeepNet's stack, refreshed by hand
    // where the budget runs out (before the second Dense).
    Sequential greedy;
    greedy.emplace<Dense>(randomMatrix(8, 8, 0.1, 21));
    greedy.emplace<PolyActivation>(reluApprox(2));
    greedy.emplace<Bootstrap>();
    greedy.emplace<Dense>(randomMatrix(8, 8, 0.1, 22));
    greedy.emplace<PolyActivation>(reluApprox(2));
    greedy.emplace<Dense>(randomMatrix(4, 8, 0.1, 23));
    greedy.compile(ctx, in);
    double greedy_work = greedy.executionPlan().plannedWork();
    // The unplanned path's plan IS its own baseline.
    EXPECT_DOUBLE_EQ(greedy.executionPlan().greedyWork(), greedy_work);

    Sequential net;
    buildDeepNet(net);
    net.enablePlanner();
    auto out = net.compile(ctx, in);

    const auto &plan = net.executionPlan();
    // The planner's internal greedy survey must price the identical
    // schedule exactly like the unplanned compile path did.
    EXPECT_NEAR(plan.greedyWork(), greedy_work, 1e-6 * greedy_work);
    EXPECT_LE(plan.plannedWork(), plan.greedyWork() * (1 + 1e-9));
    EXPECT_GE(plan.bootstrapCount(), 1u);
    EXPECT_GE(net.bootstrapCount(), 1u);
    expectStepsChain(plan, in, out);
    EXPECT_EQ(plan.steps().size(), net.layers().size());
    EXPECT_FALSE(plan.summary().empty());
}

TEST(Planner, HighInputLevelGetsDroppedForAStrictWin)
{
    // A 7-cost stack handed a full 21-limb tower: greedy burns the
    // head layers at 21 active limbs, the planner drops straight to
    // the cheapest feasible entry level. No bootstrap can pay for
    // itself here, so the win comes purely from LevelDrop.
    ckks::CkksContext ctx(bootParams());
    TensorMeta in = freshMeta(ctx, {{8}}, ctx.tower().numQ());

    Sequential net;
    buildDeepNet(net);
    net.enablePlanner();
    net.compile(ctx, in);

    const auto &plan = net.executionPlan();
    EXPECT_LT(plan.plannedWork(), plan.greedyWork());
    EXPECT_EQ(plan.bootstrapCount(), 0u);
    bool has_drop = false;
    for (const auto &st : plan.steps())
        has_drop |= st.kind == plan::PlanStep::Kind::LevelDrop;
    EXPECT_TRUE(has_drop);
}

TEST(Planner, PlannedNetRunsCorrectlyWithExactOpAccounting)
{
    ckks::CkksContext ctx(bootParams());
    TensorMeta in = freshMeta(ctx, {{8}}, 5);

    Sequential net;
    buildDeepNet(net);
    net.enablePlanner();
    net.compile(ctx, in);

    Rng rng(24);
    auto sk = ctx.generateSecretKey(rng);
    // The rebuilt stack reports its exact post-plan key needs —
    // generating precisely that set suffices even with the
    // root-pattern restriction lifted.
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    ckks::Decryptor dec(ctx, sk);
    nn::NnEngine engine(ctx, keys);

    std::vector<double> x(8);
    for (auto &v : x)
        v = rng.uniformReal() - 0.5;
    auto t = encryptTensor(ctx, enc, rng, x, {{8}}, in.levelCount);
    auto y = net.run(engine, t);
    auto got = decryptTensor(ctx, dec, y);
    auto want = net.runPlain(x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-2) << "element " << i;

    // Executed ops through the planned schedule (bootstrap, drops,
    // re-strided matvecs) match the stack model EXACTLY, per kind.
    EvalOpStats::instance().reset();
    (void)net.run(engine, t);
    auto snap = EvalOpStats::instance().snapshot();
    auto model = net.modeledOps();
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(snap.get(kind), model.get(kind))
            << evalOpKindName(kind);
    }
    EvalOpStats::instance().reset();

    // Graph lowering of the planner-built stack (LevelDrop becomes a
    // Drop node, Bootstrap stays opaque) is bit-identical to eager.
    auto g = graph::compileSequential(ctx, net);
    auto sched = graph::scheduleGraph(g);
    auto eager = net.run(engine, t);
    auto res = graph::GraphExecutor(g, sched).run(
        engine, {std::vector<ckks::Ciphertext>(
                    t.chunks().begin(), t.chunks().end())});
    ASSERT_EQ(res.outputs.size(), 1u);
    const auto &gout = res.outputs[0];
    const auto &echunks = eager.chunks();
    ASSERT_EQ(gout.size(), echunks.size());
    for (std::size_t c = 0; c < gout.size(); ++c) {
        ASSERT_EQ(gout[c].levelCount(), echunks[c].levelCount());
        ASSERT_EQ(gout[c].scale, echunks[c].scale);
        for (std::size_t l = 0; l < gout[c].c0.numLimbs(); ++l)
            for (std::size_t k = 0; k < gout[c].c0.n(); ++k) {
                ASSERT_EQ(gout[c].c0.limb(l)[k],
                          echunks[c].c0.limb(l)[k])
                    << "chunk " << c << " limb " << l;
                ASSERT_EQ(gout[c].c1.limb(l)[k],
                          echunks[c].c1.limb(l)[k])
                    << "chunk " << c << " limb " << l;
            }
    }
}

TEST(Planner, SearchPopulatesThePlanMetrics)
{
    auto &metrics = trace::MetricsRegistry::instance();
    metrics.resetCustom();

    ckks::CkksContext ctx(bootParams());
    Sequential net;
    buildDeepNet(net);
    net.enablePlanner();
    net.compile(ctx, freshMeta(ctx, {{8}}, 5));

    auto snap = metrics.snapshot();
    EXPECT_GT(snap.at("custom.plan.candidates_explored"), 0.0);
    EXPECT_GE(snap.at("custom.plan.plans_pruned"), 0.0);
    double chosen = snap.at("custom.plan.chosen_cost");
    double greedy = snap.at("custom.plan.greedy_cost");
    EXPECT_GT(chosen, 0.0);
    EXPECT_LE(chosen, greedy);
    EXPECT_DOUBLE_EQ(chosen, net.executionPlan().plannedWork());
    EXPECT_DOUBLE_EQ(greedy, net.executionPlan().greedyWork());
    metrics.resetCustom();
}

TEST(Planner, InfeasibilityNamesTheFirstInfeasibleLayerAndBestPlan)
{
    // x^(2^top) costs top + 1 levels (a depth-top ladder and its
    // steering), more than the highest refresh landing, top, offers:
    // no placement can fit it. The error must carry the best plan
    // found (the surveyed ledger) and point at the infeasible layer.
    ckks::CkksContext ctx(bootParams());
    std::size_t top = boot::Bootstrapper::maxLanding(ctx, {});
    std::size_t degree = std::size_t(1) << top;
    Sequential net;
    net.emplace<PolyActivation>(reluApprox(2));
    PolyApprox monster{"x" + std::to_string(degree),
                       std::vector<double>(degree + 1, 0.0)};
    monster.coeffs[degree] = 1.0;
    net.emplace<PolyActivation>(monster);
    ASSERT_GT(net.layers().back()->levelCost(), top);
    net.enablePlanner();
    try {
        net.compile(ctx, freshMeta(ctx, {{8}}, 4));
        FAIL() << "expected rejection";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no feasible plan"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("best plan found"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("PolyActivation"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("layer 1"), std::string::npos) << msg;
    }
}

TEST(Planner, DeepCnnBootstrapLandsWhereItsTailRuns)
{
    // The deep CNN's one refresh lands at the level the layers after
    // it run at: ModRaise lifts onto exactly landing +
    // postRaiseLevelCost limbs, below the whole chain, and no drop
    // follows the refresh.
    using workloads::EncryptedCnnClassifier;
    ckks::CkksContext ctx(EncryptedCnnClassifier::recommendedDeepParams());
    EncryptedCnnClassifier cnn(ctx, EncryptedCnnClassifier::deepConfig());
    const auto &net = cnn.net();
    const auto &steps = net.executionPlan().steps();
    ASSERT_EQ(net.executionPlan().bootstrapCount(), 1u);
    ASSERT_EQ(steps.size(), net.layers().size());
    std::size_t boots = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        if (steps[i].kind != plan::PlanStep::Kind::Bootstrap)
            continue;
        ++boots;
        const auto &b =
            dynamic_cast<const Bootstrap &>(*net.layers()[i])
                .bootstrapper();
        EXPECT_EQ(steps[i].out.levelCount, b.landing());
        EXPECT_EQ(b.raisedLevelCount(),
                  b.landing() + boot::Bootstrapper::postRaiseLevelCost(
                                    b.sine()));
        EXPECT_LT(b.raisedLevelCount(), ctx.tower().numQ());
        ASSERT_LT(i + 1, steps.size());
        EXPECT_NE(steps[i + 1].kind, plan::PlanStep::Kind::LevelDrop)
            << net.executionPlan().summary();
    }
    EXPECT_EQ(boots, 1u);
}

TEST(Planner, GreedyCompilePathAlsoRecordsAPlan)
{
    // Sequential::run always replays an ExecutionPlan — the unplanned
    // path records its in-order walk with plannedWork == greedyWork.
    auto p = ckks::Presets::tiny();
    p.levels = 5;
    ckks::CkksContext ctx(p);
    Sequential net;
    net.emplace<Dense>(randomMatrix(8, 8, 0.3, 5));
    net.emplace<PolyActivation>(reluApprox(2));
    auto out = net.compile(ctx, freshMeta(ctx, {{8}},
                                          ctx.tower().numQ()));

    const auto &plan = net.executionPlan();
    EXPECT_EQ(plan.steps().size(), net.layers().size());
    EXPECT_DOUBLE_EQ(plan.plannedWork(), plan.greedyWork());
    EXPECT_GT(plan.plannedWork(), 0.0);
    EXPECT_EQ(plan.bootstrapCount(), 0u);
    expectStepsChain(plan, net.inputMeta(), out);
}

} // namespace
} // namespace tensorfhe::nn
