/**
 * @file
 * Parallel batched execution engine tests: every slot of a batched
 * operation must be bit-identical to the same operation on a
 * one-element batch of the same evaluator, for every NTT variant, at
 * one-limb and multi-limb key-switching digits, on a 1-thread pool
 * and a wider pool, and for batch sizes that do not divide evenly
 * across lanes (non-power-of-two).
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "../ct_eq.hh"
#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "common/primes.hh"
#include "common/thread_pool.hh"
#include "ntt/ntt.hh"
#include "rns/conv.hh"

namespace tensorfhe::batch
{
namespace
{

using test::expectCtEq;
using test::expectPolyEq;

// ------------------------------------------------------------------
// Raw batched NTT dispatch, all four variants.

class NttBatch : public ::testing::TestWithParam<ntt::NttVariant>
{};

TEST_P(NttBatch, MatchesSerialTransforms)
{
    ntt::NttVariant v = GetParam();
    std::size_t n = 256;
    u64 q = generateNttPrimes(30, 1, 2 * n)[0];
    ntt::NttContext ctx(n, q);
    Rng rng(42);

    // Non-power-of-two batch.
    std::size_t batch = 7;
    std::vector<std::vector<u64>> serial(batch), batched(batch);
    std::vector<u64 *> ptrs(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        serial[b].resize(n);
        for (auto &c : serial[b])
            c = rng.uniform(q);
        batched[b] = serial[b];
        ptrs[b] = batched[b].data();
    }

    for (std::size_t b = 0; b < batch; ++b)
        ctx.forward(serial[b].data(), v);
    ctx.forwardBatch(ptrs.data(), batch, v);
    for (std::size_t b = 0; b < batch; ++b)
        ASSERT_EQ(batched[b], serial[b]) << "forward slot " << b;

    for (std::size_t b = 0; b < batch; ++b)
        ctx.inverse(serial[b].data(), v);
    ctx.inverseBatch(ptrs.data(), batch, v);
    for (std::size_t b = 0; b < batch; ++b)
        ASSERT_EQ(batched[b], serial[b]) << "inverse slot " << b;
}

TEST_P(NttBatch, OneThreadPoolMatches)
{
    ntt::NttVariant v = GetParam();
    std::size_t n = 128;
    u64 q = generateNttPrimes(30, 1, 2 * n)[0];
    ntt::NttContext ctx(n, q);
    Rng rng(5);
    ThreadPool pool1(1);

    std::size_t batch = 3;
    std::vector<std::vector<u64>> serial(batch), batched(batch);
    std::vector<u64 *> ptrs(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        serial[b].resize(n);
        for (auto &c : serial[b])
            c = rng.uniform(q);
        batched[b] = serial[b];
        ptrs[b] = batched[b].data();
    }
    for (std::size_t b = 0; b < batch; ++b)
        ctx.forward(serial[b].data(), v);
    ctx.forwardBatch(ptrs.data(), batch, v, &pool1);
    for (std::size_t b = 0; b < batch; ++b)
        ASSERT_EQ(batched[b], serial[b]);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, NttBatch,
    ::testing::Values(ntt::NttVariant::Reference,
                      ntt::NttVariant::Butterfly, ntt::NttVariant::Gemm,
                      ntt::NttVariant::Tensor),
    [](const auto &info) {
        switch (info.param) {
          case ntt::NttVariant::Reference: return "Reference";
          case ntt::NttVariant::Butterfly: return "Butterfly";
          case ntt::NttVariant::Gemm: return "Gemm";
          case ntt::NttVariant::Tensor: return "Tensor";
          default: return "Other";
        }
    });

TEST(NttBatchJobs, MixedPrimeJobQueueMatchesSerial)
{
    // A (slot x tower) queue across contexts with different primes.
    std::size_t n = 128;
    auto qs = generateNttPrimes(30, 3, 2 * n);
    std::vector<ntt::NttContext> ctxs;
    for (u64 q : qs)
        ctxs.emplace_back(n, q);
    Rng rng(11);

    std::size_t slots = 5;
    std::vector<std::vector<u64>> serial, batched;
    std::vector<ntt::NttJob> jobs;
    for (std::size_t s = 0; s < slots; ++s) {
        for (std::size_t t = 0; t < ctxs.size(); ++t) {
            std::vector<u64> poly(n);
            for (auto &c : poly)
                c = rng.uniform(qs[t]);
            serial.push_back(poly);
            batched.push_back(poly);
        }
    }
    for (std::size_t i = 0; i < batched.size(); ++i)
        jobs.push_back({&ctxs[i % ctxs.size()], batched[i].data()});

    for (std::size_t i = 0; i < serial.size(); ++i)
        ctxs[i % ctxs.size()].forward(serial[i].data());
    ntt::forwardBatch(jobs);
    for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(batched[i], serial[i]);
}

// ------------------------------------------------------------------
// Batched RNS conversions.

TEST(ConvBatch, FastBaseConvBatchMatchesSerial)
{
    rns::TowerConfig cfg;
    cfg.n = 64;
    cfg.levels = 3;
    cfg.special = 1;
    rns::RnsTower tower(cfg);
    Rng rng(3);

    std::vector<std::size_t> src_limbs = {0, 1, 2};
    std::vector<std::size_t> targets = {3, tower.specialIndex(0)};
    std::size_t batch = 5;
    std::vector<rns::RnsPolynomial> as;
    for (std::size_t b = 0; b < batch; ++b)
        as.push_back(rns::sampleUniform(tower, src_limbs,
                                        rns::Domain::Coeff, rng));
    std::vector<const rns::RnsPolynomial *> ptrs;
    for (const auto &a : as)
        ptrs.push_back(&a);

    auto got = rns::fastBaseConvBatch(ptrs, targets);
    ASSERT_EQ(got.size(), batch);
    for (std::size_t b = 0; b < batch; ++b)
        expectPolyEq(got[b], rns::fastBaseConv(as[b], targets));
}

TEST(ConvBatch, RescaleByLastLimbBatchMatchesSerial)
{
    rns::TowerConfig cfg;
    cfg.n = 64;
    cfg.levels = 3;
    cfg.special = 1;
    rns::RnsTower tower(cfg);
    Rng rng(4);

    std::vector<std::size_t> limbs = {0, 1, 2, 3};
    std::size_t batch = 6;
    std::vector<rns::RnsPolynomial> as;
    for (std::size_t b = 0; b < batch; ++b)
        as.push_back(rns::sampleUniform(tower, limbs, rns::Domain::Coeff,
                                        rng));

    // The in-place batch must leave each polynomial equal to the
    // out-of-place single-poly rescale of its old value, on a 1-lane
    // and a wider pool.
    ThreadPool pool1(1), pool4(3);
    for (ThreadPool *pool : {&pool1, &pool4}) {
        std::vector<rns::RnsPolynomial> got = as;
        std::vector<rns::RnsPolynomial *> ptrs;
        for (auto &g : got)
            ptrs.push_back(&g);
        rns::rescaleByLastLimbBatchInPlace(ptrs, pool);
        for (std::size_t b = 0; b < batch; ++b)
            expectPolyEq(got[b], rns::rescaleByLastLimb(as[b]));
    }
}

// ------------------------------------------------------------------
// Full batched evaluator vs the scalar path, per NTT variant and
// key-switching decomposition.

/** One engine configuration: NTT variant and dnum (0 = L + 1). */
struct EngineCase
{
    ntt::NttVariant variant;
    int dnum;
};

void
PrintTo(const EngineCase &c, std::ostream *os)
{
    *os << ntt::nttVariantName(c.variant) << " dnum " << c.dnum;
}

struct VariantFixture
{
    explicit VariantFixture(EngineCase c, ThreadPool *pool)
        : params(makeParams(c)), ctx(params), rng(7),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(
              sk, rng,
              {1, 2, static_cast<s64>(params.slots()) - 1})),
          enc(ctx, keys.pk), batched(ctx, keys, pool)
    {}

    static ckks::CkksParams
    makeParams(EngineCase c)
    {
        auto p = ckks::Presets::tiny();
        p.nttVariant = c.variant;
        p.dnum = c.dnum;
        p.special = p.minSpecial();
        return p;
    }

    ckks::Ciphertext
    encryptValue(double v, std::size_t levels)
    {
        auto pt = ctx.encoder().encodeConstant(
            ckks::Complex(v, 0), ctx.params().scale(), levels);
        return enc.encrypt(pt, rng);
    }

    ckks::CkksParams params;
    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    BatchedEvaluator batched;
};

class ParallelExecutor : public ::testing::TestWithParam<EngineCase>
{};

void
runAllOpsBitIdentical(EngineCase c, ThreadPool *pool, std::size_t batch)
{
    VariantFixture f(c, pool);
    std::vector<ckks::Ciphertext> a, b;
    for (std::size_t i = 0; i < batch; ++i) {
        a.push_back(f.encryptValue(0.1 * double(i + 1), 3));
        b.push_back(f.encryptValue(0.05 * double(i + 1), 3));
    }
    const auto &ev = f.batched;

    auto sum = f.batched.add(a, b);
    auto diff = f.batched.sub(a, b);
    auto prod = f.batched.multiply(a, b);
    auto dropped = f.batched.rescale(prod);
    auto pt = f.ctx.encoder().encodeConstant(
        ckks::Complex(0.3, 0), f.ctx.params().scale(), 3);
    auto cmult = f.batched.multiplyPlain(a, pt);
    auto rot = f.batched.rotate(a, 1);

    for (std::size_t i = 0; i < batch; ++i) {
        expectCtEq(sum[i], ev.add({a[i]}, {b[i]})[0]);
        expectCtEq(diff[i], ev.sub({a[i]}, {b[i]})[0]);
        auto sprod = ev.multiply({a[i]}, {b[i]});
        expectCtEq(prod[i], sprod[0]);
        expectCtEq(dropped[i], ev.rescale(sprod)[0]);
        expectCtEq(cmult[i], ev.multiplyPlain({a[i]}, pt)[0]);
        expectCtEq(rot[i], ev.rotate({a[i]}, 1)[0]);
    }
}

void
runRotateManyBatchBitIdentical(EngineCase c, ThreadPool *pool,
                               std::size_t batch)
{
    VariantFixture f(c, pool);
    std::vector<ckks::Ciphertext> a;
    for (std::size_t i = 0; i < batch; ++i)
        a.push_back(f.encryptValue(0.1 * double(i + 1), 3));
    const auto &ev = f.batched;

    // Positive, zero, negative and wrap-around steps; the hoisted
    // head is shared across all of them and the whole batch.
    s64 slots = static_cast<s64>(f.ctx.slots());
    std::vector<s64> steps = {1, 0, -1, slots + 2, 1};
    auto many = f.batched.rotateManyBatch(a, steps);
    ASSERT_EQ(many.size(), steps.size());
    for (std::size_t r = 0; r < steps.size(); ++r) {
        ASSERT_EQ(many[r].size(), batch) << "step " << steps[r];
        for (std::size_t s = 0; s < batch; ++s) {
            SCOPED_TRACE("step " + std::to_string(steps[r]) + " slot "
                         + std::to_string(s));
            expectCtEq(many[r][s], ev.rotate({a[s]}, steps[r])[0]);
        }
    }
}

TEST_P(ParallelExecutor, RotateManyBatchBitIdenticalOnGlobalPool)
{
    runRotateManyBatchBitIdentical(GetParam(), nullptr, 5);
}

TEST_P(ParallelExecutor, RotateManyBatchBitIdenticalOnOneThreadPool)
{
    ThreadPool pool1(1);
    runRotateManyBatchBitIdentical(GetParam(), &pool1, 3);
}

TEST(RotateManyBatch, EmptyBatchYieldsEmptyPerStep)
{
    VariantFixture f({ntt::NttVariant::Butterfly, 0}, nullptr);
    auto many = f.batched.rotateManyBatch({}, {1, 2});
    ASSERT_EQ(many.size(), 2u);
    EXPECT_TRUE(many[0].empty());
    EXPECT_TRUE(many[1].empty());
}

TEST_P(ParallelExecutor, BitIdenticalOnGlobalPool)
{
    // Non-power-of-two batch on the process-global pool.
    runAllOpsBitIdentical(GetParam(), nullptr, 5);
}

TEST_P(ParallelExecutor, BitIdenticalOnOneThreadPool)
{
    ThreadPool pool1(1);
    runAllOpsBitIdentical(GetParam(), &pool1, 3);
}

TEST_P(ParallelExecutor, BitIdenticalOnWidePoolNonPowerOfTwoBatch)
{
    // More lanes than a small machine has cores, batch of 7.
    ThreadPool pool(5);
    runAllOpsBitIdentical(GetParam(), &pool, 7);
}

// Tiny (L = 3) at its default 4 one-limb digits over one special
// prime, and at dnum 2: 2 two-limb digits over the 2 special primes
// the K rule derives.
INSTANTIATE_TEST_SUITE_P(
    EngineVariants, ParallelExecutor,
    ::testing::Values(EngineCase{ntt::NttVariant::Butterfly, 0},
                      EngineCase{ntt::NttVariant::Gemm, 0},
                      EngineCase{ntt::NttVariant::Tensor, 0},
                      EngineCase{ntt::NttVariant::Butterfly, 2},
                      EngineCase{ntt::NttVariant::Gemm, 2},
                      EngineCase{ntt::NttVariant::Tensor, 2}),
    [](const auto &info) {
        std::string name;
        switch (info.param.variant) {
          case ntt::NttVariant::Butterfly: name = "Butterfly"; break;
          case ntt::NttVariant::Gemm: name = "Gemm"; break;
          case ntt::NttVariant::Tensor: name = "Tensor"; break;
          default: name = "Other";
        }
        if (info.param.dnum != 0)
            name += "_Dnum" + std::to_string(info.param.dnum);
        return name;
    });

} // namespace
} // namespace tensorfhe::batch
