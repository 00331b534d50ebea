/**
 * @file
 * Functional encrypted CNN tests: layer-by-layer agreement with the
 * plaintext reference, argmax prediction agreement, and executed-op
 * statistics against the layer plans' predictions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../nn/run_layer.hh"
#include "workloads/cnn.hh"

namespace tensorfhe::workloads
{
namespace
{

struct CnnFixture
{
    CnnFixture()
        : ctx(EncryptedCnnClassifier::recommendedParams()), cnn(ctx),
          rng(77), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cnn.requiredRotations())),
          enc(ctx, keys.pk), dec(ctx, sk), engine(ctx, keys)
    {}

    std::vector<double>
    randomImage(u64 seed)
    {
        Rng r(seed);
        std::vector<double> img(cnn.config().inChannels
                                * cnn.config().height
                                * cnn.config().width);
        for (auto &v : img)
            v = r.uniformReal();
        return img;
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

CnnFixture &
fx()
{
    static CnnFixture f;
    return f;
}

TEST(EncryptedCnn, LayerByLayerMatchesPlainReference)
{
    auto &f = fx();
    auto img = f.randomImage(101);
    const auto &meta = f.cnn.inputMeta();
    auto t = nn::encryptTensor(f.ctx, f.enc, f.rng, img, meta.shape,
                               meta.levelCount);

    nn::Cts cts = t.chunks();
    std::vector<double> plain = img;
    for (const auto &layer : f.cnn.net().layers()) {
        cts = nn::runLayer(f.engine, *layer, cts);
        plain = layer->applyPlain(plain);
        const auto &m = layer->outputMeta();
        // Level/scale invariants after each layer.
        ASSERT_EQ(cts[0].levelCount(), m.levelCount) << layer->name();
        ASSERT_NEAR(cts[0].scale, m.scale, 1e-6 * m.scale)
            << layer->name();
        // Values track the reference at Table V-style scales.
        nn::CipherTensor stage(m.shape, m.layout, cts);
        auto got = nn::decryptTensor(f.ctx, f.dec, stage);
        ASSERT_EQ(got.size(), plain.size()) << layer->name();
        for (std::size_t i = 0; i < plain.size(); ++i)
            ASSERT_NEAR(got[i], plain[i], 1e-2)
                << layer->name() << " element " << i;
    }
}

TEST(EncryptedCnn, ArgmaxAgreesWithPlainOnABatch)
{
    auto &f = fx();
    std::vector<std::vector<double>> images;
    for (u64 s = 0; s < 4; ++s)
        images.push_back(f.randomImage(200 + s));

    auto preds =
        f.cnn.classifyEncrypted(f.engine, f.enc, f.dec, f.rng, images);
    ASSERT_EQ(preds.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
        auto plain = f.cnn.classifyPlain(images[i]);
        EXPECT_EQ(preds[i].argmax, plain.argmax) << "image " << i;
        for (std::size_t j = 0; j < plain.logits.size(); ++j)
            EXPECT_NEAR(preds[i].logits[j], plain.logits[j], 1e-2);
    }
}

TEST(EncryptedCnn, ExecutedOpsMatchLayerPlans)
{
    auto &f = fx();
    std::vector<std::vector<double>> images = {f.randomImage(301),
                                               f.randomImage(302)};
    EvalOpStats::instance().reset();
    f.cnn.classifyEncrypted(f.engine, f.enc, f.dec, f.rng, images);
    auto got = EvalOpStats::instance().snapshot();
    auto want = static_cast<double>(images.size())
        * f.cnn.modeledOps();
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(got.get(kind), want.get(kind))
            << evalOpKindName(kind);
    }
}

TEST(EncryptedCnn, ModeledCountsConvertToModelVocabulary)
{
    auto &f = fx();
    auto counts = f.cnn.modeledCounts();
    auto ops = f.cnn.modeledOps();
    EXPECT_EQ(counts.hrotate, ops.hrotate);
    EXPECT_EQ(counts.cmult, ops.cmult);
    EXPECT_EQ(counts.conjugate, 0.0);
}

// ------------------------------------------------------------------
// Deep bootstrap-in-the-loop CNN (Table X ResNet scenario): the
// input spans two ciphertexts, the convs run as block BSGS matvecs,
// and the level ledger goes negative mid-network so Sequential
// splices a bootstrap over both chunks.

struct DeepCnnFixture
{
    DeepCnnFixture()
        : ctx(EncryptedCnnClassifier::recommendedDeepParams()),
          cnn(ctx, EncryptedCnnClassifier::deepConfig()), rng(88),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cnn.requiredRotations(),
                                cnn.requiredConjRotations())),
          enc(ctx, keys.pk), dec(ctx, sk), engine(ctx, keys)
    {}

    std::vector<double>
    randomImage(u64 seed)
    {
        Rng r(seed);
        std::vector<double> img(cnn.config().inChannels
                                * cnn.config().height
                                * cnn.config().width);
        for (auto &v : img)
            v = r.uniformReal();
        return img;
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

DeepCnnFixture &
dfx()
{
    static DeepCnnFixture f;
    return f;
}

TEST(DeepCnn, CompilesWithAMidNetworkBootstrapOverTwoChunks)
{
    auto &f = dfx();
    const auto &net = f.cnn.net();
    EXPECT_GE(net.bootstrapCount(), 1u);
    EXPECT_EQ(f.cnn.inputMeta().chunkCount, 2u);
    // The refresh sits mid-stack (not first, not last) and refreshes
    // a multi-chunk tensor.
    bool found_mid = false;
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
        const auto *b = dynamic_cast<const nn::Bootstrap *>(
            net.layers()[i].get());
        if (b == nullptr)
            continue;
        EXPECT_GT(i, 0u);
        EXPECT_LT(i + 1, net.layers().size());
        EXPECT_EQ(b->inputMeta().chunkCount, 2u);
        EXPECT_GT(b->outputMeta().levelCount,
                  b->inputMeta().levelCount);
        found_mid = true;
    }
    EXPECT_TRUE(found_mid);
    // The bootstrap's conjugate-rotation needs surface on the stack.
    EXPECT_FALSE(f.cnn.requiredConjRotations().empty());
}

TEST(DeepCnn, EndToEndMatchesPlainReferenceThroughBootstrap)
{
    auto &f = dfx();
    auto img = f.randomImage(401);
    std::vector<std::vector<double>> images = {img};
    auto preds =
        f.cnn.classifyEncrypted(f.engine, f.enc, f.dec, f.rng, images);
    auto plain = f.cnn.classifyPlain(img);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0].argmax, plain.argmax);
    for (std::size_t j = 0; j < plain.logits.size(); ++j)
        EXPECT_NEAR(preds[0].logits[j], plain.logits[j], 1e-2)
            << "logit " << j;
}

TEST(DeepCnn, BatchedRunIsBitIdenticalToSingleRunsThroughBootstrap)
{
    auto &f = dfx();
    const auto &meta = f.cnn.inputMeta();
    std::vector<nn::CipherTensor> batch;
    for (u64 s = 0; s < 2; ++s)
        batch.push_back(nn::encryptTensor(f.ctx, f.enc, f.rng,
                                          f.randomImage(500 + s),
                                          meta.shape,
                                          meta.levelCount));

    auto together = f.cnn.net().run(f.engine, batch);
    for (std::size_t s = 0; s < batch.size(); ++s) {
        auto alone = f.cnn.net().run(f.engine, batch[s]);
        ASSERT_EQ(alone.chunkCount(), together[s].chunkCount());
        for (std::size_t c = 0; c < alone.chunkCount(); ++c) {
            const auto &a = alone.chunks()[c];
            const auto &b = together[s].chunks()[c];
            for (std::size_t l = 0; l < a.c0.numLimbs(); ++l)
                for (std::size_t k = 0; k < a.c0.n(); ++k) {
                    ASSERT_EQ(a.c0.limb(l)[k], b.c0.limb(l)[k])
                        << "sample " << s << " chunk " << c;
                    ASSERT_EQ(a.c1.limb(l)[k], b.c1.limb(l)[k])
                        << "sample " << s << " chunk " << c;
                }
        }
    }
}

TEST(DeepCnn, ExecutedOpsMatchModeledIncludingBootstrap)
{
    auto &f = dfx();
    std::vector<std::vector<double>> images = {f.randomImage(601)};
    EvalOpStats::instance().reset();
    f.cnn.classifyEncrypted(f.engine, f.enc, f.dec, f.rng, images);
    auto got = EvalOpStats::instance().snapshot();
    auto want = f.cnn.modeledOps();
    EXPECT_GT(want.conjugate, 0.0); // the fused C2S split's steps
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(got.get(kind), want.get(kind))
            << evalOpKindName(kind);
    }
    EvalOpStats::instance().reset();
}

} // namespace
} // namespace tensorfhe::workloads
