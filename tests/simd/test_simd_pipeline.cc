/**
 * @file
 * End-to-end per-backend identity: the SAME encrypted inputs pushed
 * through the evaluator pipeline (CMULT, rescale, HADD, HMULT+relin
 * key-switch, rotation key-switch) and through the full CNN workload
 * must produce bit-identical ciphertexts and identical executed-op
 * statistics under every backend the host supports. This is the
 * workload-level face of the SIMD contract: switching TFHE_SIMD can
 * change nanoseconds only, never a residue and never a counter.
 */

#include <gtest/gtest.h>

#include <vector>

#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "common/stats.hh"
#include "simd/simd.hh"
#include "workloads/cnn.hh"

namespace tensorfhe::simd
{
namespace
{

using Cts = std::vector<ckks::Ciphertext>;

struct BackendGuard
{
    Backend saved;
    explicit BackendGuard(Backend b) : saved(activeBackend())
    {
        EXPECT_TRUE(setBackend(b));
    }
    ~BackendGuard() { setBackend(saved); }
};

void
expectBitIdentical(const Cts &a, const Cts &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].levelCount(), b[s].levelCount()) << what;
        ASSERT_EQ(a[s].scale, b[s].scale) << what;
        for (std::size_t l = 0; l < a[s].c0.numLimbs(); ++l)
            for (std::size_t k = 0; k < a[s].c0.n(); ++k) {
                ASSERT_EQ(a[s].c0.limb(l)[k], b[s].c0.limb(l)[k])
                    << what << " ct " << s << " limb " << l;
                ASSERT_EQ(a[s].c1.limb(l)[k], b[s].c1.limb(l)[k])
                    << what << " ct " << s << " limb " << l;
            }
    }
}

void
expectSameRawDelta(const EvalOpStats::RawCounts &a,
                   const EvalOpStats::RawCounts &b, const char *what)
{
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k)
        EXPECT_EQ(a.ops[k], b.ops[k])
            << what << ": "
            << evalOpKindName(static_cast<EvalOpKind>(k));
    EXPECT_EQ(a.modUps, b.modUps) << what;
    EXPECT_EQ(a.modDowns, b.modDowns) << what;
}

EvalOpStats::RawCounts
rawDelta(const EvalOpStats::RawCounts &before)
{
    auto after = EvalOpStats::instance().rawSnapshot();
    EvalOpStats::RawCounts d;
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k)
        d.ops[k] = after.ops[k] - before.ops[k];
    d.modUps = after.modUps - before.modUps;
    d.modDowns = after.modDowns - before.modDowns;
    return d;
}

// ------------------------------------------------------------------
// Primitive-op pipeline: inputs encrypted ONCE (under the default
// backend), then the op sequence replayed per forced backend.

struct PipelineFixture
{
    PipelineFixture()
        : ctx(ckks::Presets::tiny()), rng(4242),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1})), enc(ctx, keys.pk)
    {
        for (u64 seed : {u64(1), u64(2), u64(3)})
            xs.push_back(encryptSlots(seed, 3));
        Rng r(99);
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

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    Cts xs;
    ckks::Plaintext pt;
};

struct PipelineRun
{
    Cts mulPlain, rescaled, added, multiplied, rotated;
    EvalOpStats::RawCounts opDelta;
};

PipelineRun
runPipeline(const PipelineFixture &f, Backend b)
{
    BackendGuard g(b);
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    PipelineRun out;
    auto before = EvalOpStats::instance().rawSnapshot();
    out.mulPlain = beval.multiplyPlain(f.xs, f.pt);
    out.rescaled = beval.rescale(out.mulPlain);
    out.added = beval.add(out.rescaled, out.rescaled);
    out.multiplied = beval.multiply(out.added, out.added);
    out.rotated = beval.rotate(out.multiplied, 1);
    out.opDelta = rawDelta(before);
    return out;
}

PipelineFixture &
pfx()
{
    static PipelineFixture f;
    return f;
}

TEST(SimdPipeline, EveryBackendMatchesScalarBitsAndOpStats)
{
    auto &f = pfx();
    auto scalar = runPipeline(f, Backend::Scalar);

    for (Backend b : supportedBackends()) {
        if (b == Backend::Scalar)
            continue;
        auto run = runPipeline(f, b);
        const char *n = backendName(b);
        expectBitIdentical(run.mulPlain, scalar.mulPlain, n);
        expectBitIdentical(run.rescaled, scalar.rescaled, n);
        expectBitIdentical(run.added, scalar.added, n);
        expectBitIdentical(run.multiplied, scalar.multiplied, n);
        expectBitIdentical(run.rotated, scalar.rotated, n);
        expectSameRawDelta(run.opDelta, scalar.opDelta, n);
    }
}

// ------------------------------------------------------------------
// Workload level: one CNN inference per backend over the same
// encrypted images.

struct CnnFixture
{
    CnnFixture()
        : ctx(workloads::EncryptedCnnClassifier::recommendedParams()),
          cnn(ctx), rng(77), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cnn.requiredRotations())),
          enc(ctx, keys.pk), engine(ctx, keys)
    {
        Rng r(55);
        const auto &meta = cnn.inputMeta();
        std::vector<double> img(cnn.config().inChannels
                                * cnn.config().height
                                * cnn.config().width);
        for (auto &v : img)
            v = r.uniformReal();
        batch.push_back(nn::encryptTensor(ctx, enc, rng, img,
                                          meta.shape,
                                          meta.levelCount));
    }

    ckks::CkksContext ctx;
    workloads::EncryptedCnnClassifier cnn;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    nn::NnEngine engine;
    std::vector<nn::CipherTensor> batch;
};

Cts
flatten(const std::vector<nn::CipherTensor> &samples)
{
    Cts flat;
    for (const auto &t : samples)
        for (const auto &ct : t.chunks())
            flat.push_back(ct);
    return flat;
}

TEST(SimdPipeline, CnnWorkloadIsBitIdenticalAcrossBackends)
{
    CnnFixture f;
    Cts ref;
    EvalOpStats::RawCounts refDelta;
    {
        BackendGuard g(Backend::Scalar);
        auto before = EvalOpStats::instance().rawSnapshot();
        ref = flatten(f.cnn.net().run(f.engine, f.batch));
        refDelta = rawDelta(before);
    }
    for (Backend b : supportedBackends()) {
        if (b == Backend::Scalar)
            continue;
        BackendGuard g(b);
        auto before = EvalOpStats::instance().rawSnapshot();
        auto out = flatten(f.cnn.net().run(f.engine, f.batch));
        auto delta = rawDelta(before);
        expectBitIdentical(out, ref, backendName(b));
        expectSameRawDelta(delta, refDelta, backendName(b));
    }
}

} // namespace
} // namespace tensorfhe::simd
