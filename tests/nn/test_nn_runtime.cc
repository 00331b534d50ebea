/**
 * @file
 * The graph runtime under nn: Sequential::run and the LSTM step
 * execute their lowered graphs. Pins the observability contract (one
 * "nn" span per compiled layer, in stack order, nested under the
 * run and around the graph node spans — the trace.nn.* per-layer
 * metrics read these) and the typed failures of that runtime
 * (IntegrityError naming the node on meta drift, std::invalid_argument
 * before any op on a mismatched input).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/errors.hh"
#include "common/stats.hh"
#include "fault/fault.hh"
#include "trace/trace.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace tensorfhe::nn
{
namespace
{

using workloads::EncryptedCnnClassifier;
using workloads::EncryptedLstmCell;

/** A span name as the tracer stores it (dynamic names truncate). */
std::string
recordedName(const std::string &name)
{
    return name.substr(0, trace::SpanRecord::kDynName - 1);
}

bool
within(const trace::SpanRecord &inner, const trace::SpanRecord &outer)
{
    return inner.startNs >= outer.startNs
        && inner.startNs + inner.durNs
        <= outer.startNs + outer.durNs;
}

/**
 * Run `cnn` once on one encrypted image with the tracer armed and
 * check the per-layer span contract; returns the nn layer span names
 * in stack order.
 */
std::vector<std::string>
expectOneNnSpanPerLayer(const ckks::CkksContext &ctx,
                        const EncryptedCnnClassifier &cnn,
                        const std::vector<s64> &conj_rotations)
{
    Rng rng(5);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cnn.requiredRotations(),
                                 conj_rotations);
    ckks::Encryptor enc(ctx, keys.pk);
    NnEngine engine(ctx, keys);
    const auto &meta = cnn.inputMeta();
    std::vector<double> img(meta.shape.numel(), 0.5);
    auto t = encryptTensor(ctx, enc, rng, img, meta.shape,
                           meta.levelCount);

    trace::Tracer::instance().arm();
    (void)cnn.net().run(engine, t);
    trace::Tracer::instance().disarm();

    // The nn spans record on the calling thread.
    std::vector<trace::SpanRecord> recs;
    for (const auto &th : trace::Tracer::instance().collect())
        for (const auto &r : th.records)
            if (std::string(r.cat) == "nn")
                recs = th.records;
    const trace::SpanRecord *run = nullptr;
    std::vector<const trace::SpanRecord *> layers;
    std::vector<const trace::SpanRecord *> nodes;
    for (const auto &r : recs) {
        std::string cat = r.cat;
        std::string name = r.displayName();
        if (cat == "nn" && name == "sequential-run")
            run = &r;
        else if (cat == "nn")
            layers.push_back(&r);
        else if (cat == "graph" && name != "graph-run")
            nodes.push_back(&r);
    }
    EXPECT_NE(run, nullptr);
    if (run == nullptr)
        return {};

    // One span per compiled layer, in stack order, named after the
    // layer, with the layer's output chunks/level as args.
    const auto &stack = cnn.net().layers();
    EXPECT_EQ(layers.size(), stack.size());
    std::vector<std::string> names;
    for (std::size_t i = 0; i < layers.size() && i < stack.size(); ++i) {
        const auto &r = *layers[i];
        names.push_back(r.displayName());
        EXPECT_EQ(names.back(), recordedName(stack[i]->name()));
        EXPECT_GT(r.depth, run->depth) << names.back();
        EXPECT_TRUE(within(r, *run)) << names.back();
        EXPECT_EQ(r.numArgs, 2) << names.back();
        EXPECT_STREQ(r.args[0].key, "chunks");
        EXPECT_EQ(r.args[0].value,
                  static_cast<s64>(stack[i]->outputMeta().chunkCount));
        EXPECT_STREQ(r.args[1].key, "level");
        EXPECT_EQ(r.args[1].value,
                  static_cast<s64>(stack[i]->outputMeta().levelCount));
        // Each layer span wraps its graph node spans, one level down.
        bool wraps_nodes = false;
        for (const auto *n : nodes)
            wraps_nodes |= n->depth == r.depth + 1 && within(*n, r);
        EXPECT_TRUE(wraps_nodes) << names.back();
    }
    // Every executed node belongs to some layer span.
    for (const auto *n : nodes) {
        bool inside = false;
        for (const auto *l : layers)
            inside |= within(*n, *l);
        EXPECT_TRUE(inside) << n->displayName();
    }
    return names;
}

class NnRuntimeTrace : public ::testing::Test
{
  protected:
    void TearDown() override { trace::Tracer::instance().disarm(); }
};

TEST_F(NnRuntimeTrace, SequentialRunEmitsOneNnSpanPerLayer)
{
    ckks::CkksContext ctx(EncryptedCnnClassifier::recommendedParams());
    EncryptedCnnClassifier cnn(ctx);
    auto names = expectOneNnSpanPerLayer(ctx, cnn, {});
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names.front(), "Conv2d");
    EXPECT_EQ(names.back(), "Dense");
}

TEST_F(NnRuntimeTrace, DeepRunSpansIncludeTheBootstrap)
{
    ckks::CkksContext ctx(
        EncryptedCnnClassifier::recommendedDeepParams());
    EncryptedCnnClassifier cnn(ctx,
                               EncryptedCnnClassifier::deepConfig());
    ASSERT_GE(cnn.net().bootstrapCount(), 1u);
    auto names =
        expectOneNnSpanPerLayer(ctx, cnn, cnn.requiredConjRotations());
    EXPECT_EQ(std::count(names.begin(), names.end(), "Bootstrap"),
              static_cast<std::ptrdiff_t>(cnn.net().bootstrapCount()));
}

// ------------------------------------------------------------------
// Typed failures.

struct PlanGuard
{
    ~PlanGuard() { fault::FaultPlan::instance().disarm(); }
};

void
expectBitIdentical(const CipherTensor &a, const CipherTensor &b)
{
    ASSERT_EQ(a.chunkCount(), b.chunkCount());
    for (std::size_t c = 0; c < a.chunkCount(); ++c) {
        const auto &x = a.chunks()[c];
        const auto &y = b.chunks()[c];
        ASSERT_EQ(x.levelCount(), y.levelCount());
        ASSERT_EQ(x.scale, y.scale);
        for (std::size_t l = 0; l < x.c0.numLimbs(); ++l)
            for (std::size_t k = 0; k < x.c0.n(); ++k) {
                ASSERT_EQ(x.c0.limb(l)[k], y.c0.limb(l)[k]);
                ASSERT_EQ(x.c1.limb(l)[k], y.c1.limb(l)[k]);
            }
    }
}

ckks::CkksParams
smallParams()
{
    auto p = ckks::Presets::tiny();
    p.levels = 5;
    return p;
}

/** Dense + ReLU over 8 values: a cheap compiled net. */
Sequential
smallNet(const ckks::CkksContext &ctx)
{
    Sequential net;
    Rng wrng(3);
    std::vector<std::vector<double>> w(8, std::vector<double>(8));
    for (auto &row : w)
        for (auto &v : row)
            v = 0.3 * (2 * wrng.uniformReal() - 1);
    net.emplace<Dense>(w);
    net.emplace<PolyActivation>(reluApprox(2));
    TensorMeta in;
    in.shape = {{8}};
    in.layout = SlotLayout::contiguous(in.shape);
    in.levelCount = ctx.tower().numQ();
    in.scale = ctx.params().scale();
    net.compile(ctx, in);
    return net;
}

CipherTensor
encryptInput(const ckks::CkksContext &ctx, const ckks::Encryptor &enc,
             Rng &rng, const Sequential &net)
{
    return encryptTensor(ctx, enc, rng,
                         {0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8},
                         net.inputMeta().shape,
                         net.inputMeta().levelCount);
}

TEST(NnRuntime, MovedSequentialStillRunsItsGraph)
{
    // The compiled graph points into the layers the Sequential owns;
    // both sit on the heap, so moving the model keeps them valid.
    ckks::CkksContext ctx(smallParams());
    auto net = smallNet(ctx);
    Rng rng(4);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    NnEngine engine(ctx, keys);
    auto t = encryptInput(ctx, enc, rng, net);

    auto ref = net.run(engine, t);
    Sequential moved(std::move(net));
    expectBitIdentical(moved.run(engine, t), ref);
}

TEST(NnRuntime, NodeMetaDriftRaisesIntegrityErrorNamingTheNode)
{
    ckks::CkksContext ctx(smallParams());
    auto net = smallNet(ctx);
    Rng rng(4);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, net.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    NnEngine engine(ctx, keys);
    auto &ws = engine.dispatcher().workspace();
    ws.setLeaseTracking(true);
    auto t = encryptInput(ctx, enc, rng, net);

    auto &plan = fault::FaultPlan::instance();
    PlanGuard guard;
    plan.startCounting();
    auto ref = net.run(engine, t);
    auto hits = plan.stopCounting()["graph/node-output"];
    ASSERT_GT(hits, 0u);

    // A scale nudge on a mid-run node output (seed 2 draws the scale
    // branch of MetaCorrupt), with paranoid checks off: the runtime's
    // per-node meta check still catches it.
    plan.arm({"graph/node-output", fault::FaultKind::MetaCorrupt,
              hits / 2, 2});
    try {
        (void)net.run(engine, t);
        FAIL() << "meta drift completed silently";
    } catch (const IntegrityError &e) {
        EXPECT_EQ(e.site(), "graph/node-output");
        EXPECT_TRUE(e.hasNode());
        EXPECT_NE(e.message().find("scale"), std::string::npos)
            << e.message();
    }
    EXPECT_EQ(ws.outstandingLeases(), 0u);

    plan.disarm();
    expectBitIdentical(net.run(engine, t), ref);
}

TEST(NnRuntime, LstmStepRejectsOffMetaInputsBeforeAnyOp)
{
    ckks::CkksContext ctx(EncryptedLstmCell::recommendedParams());
    EncryptedLstmCell cell(ctx);
    Rng rng(6);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng);
    ckks::Encryptor enc(ctx, keys.pk);
    NnEngine engine(ctx, keys);
    const auto &meta = cell.inputMeta();
    std::vector<double> v(cell.config().dim, 0.25);
    auto encryptAt = [&](std::size_t lc) {
        return encryptTensor(ctx, enc, rng, v, meta.shape, lc);
    };
    auto x = encryptAt(meta.levelCount);
    auto c = encryptAt(meta.levelCount);

    auto expectRejectedBeforeAnyOp = [&](const CipherTensor &h) {
        EvalOpStats::instance().reset();
        EXPECT_THROW(cell.step(engine, x, {h, c}),
                     std::invalid_argument);
        auto ops = EvalOpStats::instance().snapshot();
        for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
            auto kind = static_cast<EvalOpKind>(k);
            EXPECT_EQ(ops.get(kind), 0.0) << evalOpKindName(kind);
        }
    };

    // h one level short of the cell's input meta.
    expectRejectedBeforeAnyOp(encryptAt(meta.levelCount - 1));

    // h at the right level but a nudged scale.
    auto h = encryptAt(meta.levelCount);
    std::vector<ckks::Ciphertext> nudged = h.chunks();
    nudged[0].scale *= 1.0 + 1e-3;
    expectRejectedBeforeAnyOp(
        CipherTensor(meta.shape, meta.layout, std::move(nudged)));
}

} // namespace
} // namespace tensorfhe::nn
