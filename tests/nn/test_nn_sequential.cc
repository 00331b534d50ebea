/**
 * @file
 * Sequential model-runner tests: up-front budget validation, the
 * deduplicated union rotation-key set, per-layer level/scale
 * invariants at runtime, batched-vs-single bit identity, and
 * multi-chunk elementwise stacks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "nn/sequential.hh"

namespace tensorfhe::nn
{
namespace
{

ckks::CkksParams
testParams(int levels)
{
    auto p = ckks::Presets::tiny();
    p.levels = levels;
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

TEST(Sequential, BudgetValidationFailsUpFront)
{
    ckks::CkksContext ctx(testParams(3)); // 4 level counts
    Sequential net;
    net.emplace<Dense>(randomMatrix(4, 4, 0.2, 1));
    net.emplace<PolyActivation>(sigmoidApprox(3)); // needs 3 levels
    net.emplace<Dense>(randomMatrix(2, 4, 0.2, 2));
    // Total cost 5 > 3 available: compile must throw before any
    // plan is built, naming the per-layer ledger.
    try {
        net.compile(ctx, freshMeta(ctx, {{4}}));
        FAIL() << "expected budget rejection";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("level budget"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("Dense"),
                  std::string::npos);
    }
}

TEST(Sequential, RequiredRotationsAreDedupedUnion)
{
    ckks::CkksContext ctx(testParams(5));
    Sequential net;
    auto &d1 = net.emplace<Dense>(randomMatrix(16, 16, 0.2, 3));
    auto &d2 = net.emplace<Dense>(randomMatrix(16, 16, 0.2, 4));
    net.compile(ctx, freshMeta(ctx, {{16}}));

    auto steps = net.requiredRotations();
    EXPECT_TRUE(std::is_sorted(steps.begin(), steps.end()));
    EXPECT_EQ(std::adjacent_find(steps.begin(), steps.end()),
              steps.end());
    // Both layers' needs are covered, nothing duplicated.
    for (const auto *layer : {&d1, &d2})
        for (s64 s : layer->requiredRotations())
            EXPECT_TRUE(std::binary_search(steps.begin(), steps.end(),
                                           s))
                << "missing step " << s;
    // The union is exactly the set union of the layers' steps. The
    // layers are not interchangeable: the first one's square output
    // is zero past its span, so the second may take the tall form and
    // add a replication step of its own.
    auto s1 = d1.requiredRotations();
    auto s2 = d2.requiredRotations();
    std::vector<s64> both;
    std::set_union(s1.begin(), s1.end(), s2.begin(), s2.end(),
                   std::back_inserter(both));
    EXPECT_EQ(steps, both);
}

TEST(Sequential, BatchedRunIsBitIdenticalToSingleRuns)
{
    ckks::CkksContext ctx(testParams(5));
    Sequential net;
    net.emplace<Dense>(randomMatrix(8, 8, 0.3, 5));
    net.emplace<PolyActivation>(reluApprox(2));
    net.compile(ctx, freshMeta(ctx, {{8}}));

    Rng rng(6);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);

    std::vector<CipherTensor> batch;
    for (std::size_t s = 0; s < 3; ++s) {
        std::vector<double> x(8);
        for (auto &v : x)
            v = rng.uniformReal() - 0.5;
        batch.push_back(encryptTensor(ctx, enc, rng, x, {{8}},
                                      ctx.tower().numQ()));
    }

    auto expectPolyEq = [](const rns::RnsPolynomial &x,
                           const rns::RnsPolynomial &y) {
        ASSERT_EQ(x.numLimbs(), y.numLimbs());
        for (std::size_t i = 0; i < x.numLimbs(); ++i)
            for (std::size_t c = 0; c < x.n(); ++c)
                ASSERT_EQ(x.limb(i)[c], y.limb(i)[c])
                    << "limb " << i << " coeff " << c;
    };
    auto together = net.run(engine, batch);
    for (std::size_t s = 0; s < batch.size(); ++s) {
        auto alone = net.run(engine, batch[s]);
        const auto &a = alone.chunks()[0];
        const auto &b = together[s].chunks()[0];
        expectPolyEq(a.c0, b.c0);
        expectPolyEq(a.c1, b.c1);
    }
}

TEST(Sequential, SteadyStateRunsReuseTheWorkspaceArena)
{
    // After one warm-up inference, repeated Sequential runs must
    // cycle the exec::Workspace arena instead of the allocator
    // (> 90% checkout reuse): the plan caches are hot and every
    // hoist/tail/BSGS buffer shape recurs.
    ckks::CkksContext ctx(testParams(5));
    Sequential net;
    net.emplace<Dense>(randomMatrix(8, 8, 0.3, 7));
    net.emplace<PolyActivation>(reluApprox(2));
    net.compile(ctx, freshMeta(ctx, {{8}}));

    Rng rng(8);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);

    std::vector<double> x(8);
    for (auto &v : x)
        v = rng.uniformReal() - 0.5;
    auto ct = encryptTensor(ctx, enc, rng, x, {{8}},
                            ctx.tower().numQ());

    (void)net.run(engine, ct); // warm-up populates the arena
    auto &ws = engine.dispatcher().workspace();
    ws.resetStats();
    for (int round = 0; round < 3; ++round)
        (void)net.run(engine, ct);
    auto s = ws.stats();
    ASSERT_GT(s.allocs + s.reuses, 0u);
    EXPECT_GT(s.reuseRate(), 0.9)
        << "allocs " << s.allocs << " reuses " << s.reuses;
}

TEST(Sequential, ElementwiseStackHandlesMultiChunkTensors)
{
    ckks::CkksContext ctx(testParams(4));
    Sequential net;
    net.emplace<PolyActivation>(reluApprox(2));
    std::size_t n = ctx.slots() + 4; // forces two chunks
    TensorMeta in = freshMeta(ctx, {{n}});
    in.chunkCount = 2;
    auto out = net.compile(ctx, in);
    EXPECT_EQ(out.chunkCount, 2u);

    Rng rng(7);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng);
    ckks::Encryptor enc(ctx, keys.pk);
    ckks::Decryptor dec(ctx, sk);
    nn::NnEngine engine(ctx, keys);

    std::vector<double> x(n);
    for (auto &v : x)
        v = 2 * rng.uniformReal() - 1;
    auto t = encryptTensor(ctx, enc, rng, x, {{n}},
                           ctx.tower().numQ());
    ASSERT_EQ(t.chunkCount(), 2u);
    auto y = net.run(engine, t);
    auto got = decryptTensor(ctx, dec, y);
    auto want = net.runPlain(x);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_NEAR(got[i], want[i], 1e-3) << "element " << i;
}

TEST(Sequential, AutoBootstrapInsertsRefreshWhenLedgerGoesNegative)
{
    // A bootstrappable chain (N = 2^8, sparse key) and a stack whose
    // cost exceeds the input budget: without the planner compile
    // throws; with it, a Bootstrap layer is placed mid-stack and
    // the encrypted run matches the plaintext reference.
    auto params = ckks::Presets::bootTest();
    params.levels = 20;
    params.secretHamming = 8;
    ckks::CkksContext ctx(params);

    auto buildNet = [](Sequential &net) {
        net.emplace<Dense>(randomMatrix(8, 8, 0.1, 21));
        net.emplace<PolyActivation>(reluApprox(2));
        net.emplace<Dense>(randomMatrix(8, 8, 0.1, 22));
        net.emplace<PolyActivation>(reluApprox(2));
        net.emplace<Dense>(randomMatrix(4, 8, 0.1, 23));
    };

    TensorMeta in = freshMeta(ctx, {{8}});
    in.levelCount = 5; // stack costs 8: goes negative mid-walk

    Sequential rejected;
    buildNet(rejected);
    EXPECT_THROW(rejected.compile(ctx, in), std::invalid_argument);

    Sequential net;
    buildNet(net);
    net.enablePlanner();
    auto out = net.compile(ctx, in);
    EXPECT_GE(net.bootstrapCount(), 1u);
    EXPECT_GE(out.levelCount, 1u);

    // The bootstrap's CoeffToSlot split conjugates with the bundle's
    // conjugation key: the run needs no conjugate-rotation key.
    Rng rng(24);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    EXPECT_TRUE(keys.conjRot.empty());
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

    // Executed ops through the refresh match the stack model exactly.
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
}

TEST(Sequential, AutoBootstrapRejectsLayersTooDeepForTheChain)
{
    // A single layer deeper than the refreshed budget can never fit,
    // bootstrap or not — compile must say so, not loop.
    auto params = ckks::Presets::bootTest();
    params.levels = 20;
    params.secretHamming = 8;
    ckks::CkksContext ctx(params);

    Sequential net;
    net.emplace<PolyActivation>(reluApprox(2));
    // x^(2^top): ladder depth top, cost top + 1 — beyond the highest
    // refresh landing, top, this chain can offer.
    std::size_t top = boot::Bootstrapper::maxLanding(ctx, {});
    std::size_t degree = std::size_t(1) << top;
    PolyApprox monster{"x" + std::to_string(degree),
                       std::vector<double>(degree + 1, 0.0)};
    monster.coeffs[degree] = 1.0;
    net.emplace<PolyActivation>(monster);
    ASSERT_GT(net.layers().back()->levelCost(), top);
    net.enablePlanner();
    TensorMeta in = freshMeta(ctx, {{8}});
    in.levelCount = 4;
    try {
        net.compile(ctx, in);
        FAIL() << "expected rejection";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bootstrap refreshes only to"),
                  std::string::npos)
            << msg;
    }
}

/** Dense, relu, Bootstrap, Dense, relu, Dense: the refresh is
    placed by hand where the 5-limb budget runs out. */
void
buildHandPlacedNet(Sequential &net)
{
    net.emplace<Dense>(randomMatrix(8, 8, 0.1, 41));
    net.emplace<PolyActivation>(reluApprox(2));
    net.emplace<Bootstrap>();
    net.emplace<Dense>(randomMatrix(8, 8, 0.1, 42));
    net.emplace<PolyActivation>(reluApprox(2));
    net.emplace<Dense>(randomMatrix(4, 8, 0.1, 43));
}

TEST(Sequential, HandPlacedBootstrapCompilesAndRuns)
{
    // The stack costs 7 against a 5-limb input, but the layers after
    // the hand-placed refresh compile at its refreshed level: the
    // budget is checked per layer, not summed over the stack.
    auto params = ckks::Presets::bootTest();
    params.levels = 20;
    params.secretHamming = 8;
    ckks::CkksContext ctx(params);

    Sequential net;
    buildHandPlacedNet(net);
    TensorMeta in = freshMeta(ctx, {{8}});
    in.levelCount = 5;
    auto out = net.compile(ctx, in);
    EXPECT_EQ(net.executionPlan().bootstrapCount(), 1u);
    EXPECT_EQ(net.bootstrapCount(), 1u);
    EXPECT_GE(out.levelCount, 1u);

    Rng rng(44);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    ckks::Decryptor dec(ctx, sk);
    nn::NnEngine engine(ctx, keys);

    std::vector<double> x(8);
    for (auto &v : x)
        v = rng.uniformReal() - 0.5;
    auto t = encryptTensor(ctx, enc, rng, x, {{8}}, in.levelCount);
    EvalOpStats::instance().reset();
    auto y = net.run(engine, t);
    auto snap = EvalOpStats::instance().snapshot();
    auto got = decryptTensor(ctx, dec, y);
    auto want = net.runPlain(x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-2) << "element " << i;

    auto model = net.modeledOps();
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(snap.get(kind), model.get(kind))
            << evalOpKindName(kind);
    }
    EvalOpStats::instance().reset();
}

TEST(Sequential, PlannerRejectsHandPlacedRefreshes)
{
    // The planner places every Bootstrap and LevelDrop itself; one
    // already in the stack is named and rejected before planning.
    auto params = ckks::Presets::bootTest();
    params.levels = 20;
    params.secretHamming = 8;
    ckks::CkksContext ctx(params);
    TensorMeta in = freshMeta(ctx, {{8}});
    in.levelCount = 5;

    Sequential boot;
    buildHandPlacedNet(boot);
    boot.enablePlanner();
    try {
        boot.compile(ctx, in);
        FAIL() << "expected rejection";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("layer 2 (Bootstrap)"),
                  std::string::npos)
            << e.what();
    }

    Sequential drop;
    drop.emplace<LevelDrop>(4);
    drop.emplace<Dense>(randomMatrix(8, 8, 0.1, 45));
    drop.enablePlanner();
    try {
        drop.compile(ctx, in);
        FAIL() << "expected rejection";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("layer 0 (LevelDrop)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sequential, RunRejectsMismatchedInputMeta)
{
    ckks::CkksContext ctx(testParams(4));
    Sequential net;
    net.emplace<Dense>(randomMatrix(4, 4, 0.2, 8));
    net.compile(ctx, freshMeta(ctx, {{4}}));

    Rng rng(9);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);

    // Encrypted at a lower level than compiled: rejected up front.
    auto t = encryptTensor(ctx, enc, rng, {1, 2, 3, 4}, {{4}},
                           ctx.tower().numQ() - 1);
    EXPECT_THROW(net.run(engine, t), std::invalid_argument);
}

} // namespace
} // namespace tensorfhe::nn
