/**
 * @file
 * CMULT + RESCALE contract tests. The two-step multiplyPlain ->
 * rescale pair is the only CMULT + RESCALE: each slot of a batch must
 * be bit-identical (including the exact scale double) to a
 * one-element batch, land on ct.scale * pt.scale / q_last,
 * record one CMult and one Rescale per ciphertext, and keep the
 * aggregate kernel counters equal to the launch queue the breakdown
 * benches replay. multiplyConstToScale is the same pair with the
 * plaintext scale steered so the output lands on the exact target.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "../ct_eq.hh"
#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "common/stats.hh"

namespace tensorfhe::exec
{
namespace
{

using Cts = std::vector<ckks::Ciphertext>;

std::vector<ckks::Complex>
randomSlots(std::size_t slots, u64 seed)
{
    Rng r(seed);
    std::vector<ckks::Complex> z(slots);
    for (auto &v : z)
        v = ckks::Complex(r.uniformReal() - 0.5, r.uniformReal() - 0.5);
    return z;
}

struct Fixture
{
    Fixture()
        : ctx(ckks::Presets::tiny()), rng(4242),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng)), enc(ctx, keys.pk),
          dec(ctx, sk), beval(ctx, keys)
    {}

    ckks::Ciphertext
    encryptSlots(u64 seed, std::size_t lc)
    {
        return enc.encrypt(ctx.encoder().encode(randomSlots(ctx.slots(),
                                                            seed),
                                                ctx.params().scale(), lc),
                           rng);
    }

    ckks::Plaintext
    encodeMask(u64 seed, std::size_t lc)
    {
        return ctx.encoder().encode(randomSlots(ctx.slots(), seed),
                                    ctx.params().scale(), lc);
    }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    ckks::Decryptor dec;
    batch::BatchedEvaluator beval;
};

Fixture &
fx()
{
    static Fixture f;
    return f;
}

using test::expectCtEq;

TEST(CmultRescale, BatchedPairBitIdenticalToSerialPerBatchSize)
{
    auto &f = fx();
    const auto &eval = f.beval;
    for (std::size_t batch : {std::size_t(1), std::size_t(3)}) {
        Cts cts;
        for (std::size_t s = 0; s < batch; ++s)
            cts.push_back(f.encryptSlots(500 + s, 3));
        auto pt = f.encodeMask(7, 3);

        auto batched = f.beval.rescale(f.beval.multiplyPlain(cts, pt));
        ASSERT_EQ(batched.size(), batch);
        for (std::size_t s = 0; s < batch; ++s)
            expectCtEq(batched[s],
                       eval.rescale(eval.multiplyPlain({cts[s]}, pt))[0]);
    }
}

TEST(CmultRescale, OutputScaleIsProductOverDroppedPrime)
{
    // The exact double the graph builder and the nn layers predict at
    // compile time: (ct.scale * pt.scale) / q_{L-1}, left to right.
    auto &f = fx();
    Cts cts{f.encryptSlots(550, 3), f.encryptSlots(551, 3)};
    auto pt = f.encodeMask(11, 3);
    std::size_t L = cts[0].levelCount();
    double q_last = static_cast<double>(f.ctx.tower().prime(L - 1));

    auto out = f.beval.rescale(f.beval.multiplyPlain(cts, pt));
    ASSERT_EQ(out.size(), cts.size());
    for (std::size_t s = 0; s < out.size(); ++s) {
        EXPECT_EQ(out[s].levelCount(), L - 1);
        EXPECT_EQ(out[s].scale, cts[s].scale * pt.scale / q_last);
    }
}

TEST(CmultRescale, RecordsOneCmultAndOneRescalePerCiphertext)
{
    auto &f = fx();
    constexpr std::size_t kBatch = 3;
    Cts cts;
    for (std::size_t s = 0; s < kBatch; ++s)
        cts.push_back(f.encryptSlots(600 + s, 3));
    auto pt = f.encodeMask(8, 3);

    auto before = EvalOpStats::instance().rawSnapshot();
    (void)f.beval.rescale(f.beval.multiplyPlain(cts, pt));
    auto after = EvalOpStats::instance().rawSnapshot();

    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        u64 expect = kind == EvalOpKind::CMult || kind == EvalOpKind::Rescale
            ? kBatch
            : 0;
        EXPECT_EQ(after.ops[k] - before.ops[k], expect)
            << evalOpKindName(kind);
    }
    // No key switching: the pair never converts bases.
    EXPECT_EQ(after.modUps, before.modUps);
    EXPECT_EQ(after.modDowns, before.modDowns);
}

TEST(CmultRescale, AggregateCountersMatchCapturedQueue)
{
    // The counter face of the launch model: per-kind invocation and
    // element deltas equal the launches the queue captured, so the
    // benches that read counters and the ones that replay the queue
    // see the same work.
    auto &f = fx();
    Cts cts{f.encryptSlots(800, 3), f.encryptSlots(801, 3)};
    auto pt = f.encodeMask(10, 3);

    using Totals = std::array<std::pair<u64, u64>, kNumKernelKinds>;
    auto grab = [] {
        Totals out;
        for (std::size_t k = 0; k < kNumKernelKinds; ++k) {
            const auto &c = KernelStats::instance().counter(
                static_cast<KernelKind>(k));
            out[k] = {c.invocations.load(), c.elements.load()};
        }
        return out;
    };

    auto before = grab();
    KernelStats::QueueCapture cap;
    (void)f.beval.rescale(f.beval.multiplyPlain(cts, pt));
    auto queue = cap.take();
    auto after = grab();

    ASSERT_FALSE(queue.empty());
    Totals queued{};
    for (const auto &launch : queue) {
        auto &t = queued[static_cast<std::size_t>(launch.kind)];
        t.first += 1;
        t.second += launch.elements;
    }
    for (std::size_t k = 0; k < kNumKernelKinds; ++k) {
        auto kind = static_cast<KernelKind>(k);
        EXPECT_EQ(after[k].first - before[k].first, queued[k].first)
            << kernelKindName(kind) << " invocations";
        EXPECT_EQ(after[k].second - before[k].second, queued[k].second)
            << kernelKindName(kind) << " elements";
    }
}

TEST(CmultRescale, MultiplyConstToScaleIsThePairAtExactTarget)
{
    // multiplyConstToScale encodes the constant at
    // target * q_last / ct.scale and runs the same CMULT + RESCALE:
    // the residues equal that pair spelled out, the scale is the
    // target exactly, and the slots decrypt to c * z.
    auto &f = fx();
    constexpr u64 kSeed = 900;
    constexpr double kConst = 0.375;
    Cts cts{f.encryptSlots(kSeed, 3), f.encryptSlots(kSeed + 1, 3)};
    double target = f.ctx.params().scale();

    auto got = f.beval.multiplyConstToScale(cts, kConst, target);

    u64 q_last = f.ctx.tower().prime(2);
    double pt_scale =
        target * static_cast<double>(q_last) / cts[0].scale;
    auto pt = f.ctx.encoder().encodeConstant(ckks::Complex(kConst, 0),
                                             pt_scale, 3);
    auto pair = f.beval.rescale(f.beval.multiplyPlain(cts, pt));

    ASSERT_EQ(got.size(), cts.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
        EXPECT_EQ(got[s].scale, target);
        pair[s].scale = target;
        expectCtEq(got[s], pair[s]);
    }

    auto z = randomSlots(f.ctx.slots(), kSeed);
    auto dec = f.dec.decryptAndDecode(got[0]);
    ASSERT_EQ(dec.size(), z.size());
    double worst = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
        worst = std::max(worst, std::abs(dec[i] - kConst * z[i]));
    EXPECT_LT(worst, 5e-3);
}

} // namespace
} // namespace tensorfhe::exec
