/**
 * @file
 * Batching tests: layout gather/scatter semantics, batched ==
 * sequential results, and the API layer's VRAM-driven batch sizing.
 */

#include <gtest/gtest.h>

#include "../ct_eq.hh"
#include "batch/executor.hh"
#include "batch/layout.hh"
#include "ckks/crypto.hh"

namespace tensorfhe::batch
{
namespace
{

TEST(Layout, EntryRoundTripBothLayouts)
{
    for (Layout lay : {Layout::BLN, Layout::LBN}) {
        BatchStore s(3, 4, 8, lay);
        for (std::size_t b = 0; b < 3; ++b)
            for (std::size_t l = 0; l < 4; ++l)
                s.entry(b, l)[0] = b * 100 + l;
        for (std::size_t b = 0; b < 3; ++b)
            for (std::size_t l = 0; l < 4; ++l)
                ASSERT_EQ(s.entry(b, l)[0], b * 100 + l);
    }
}

TEST(Layout, GatherContiguityMatchesPaperClaim)
{
    // (B,L,N): one discontiguous run per batch entry; (L,B,N): one
    // contiguous slab (paper Fig. 9).
    BatchStore bln(16, 4, 32, Layout::BLN);
    BatchStore lbn(16, 4, 32, Layout::LBN);
    std::vector<u64> buf(16 * 32);
    EXPECT_EQ(bln.gatherLevel(2, buf.data()), 16u);
    EXPECT_EQ(lbn.gatherLevel(2, buf.data()), 1u);
}

TEST(Layout, GatherScatterRoundTrip)
{
    BatchStore s(4, 3, 16, Layout::BLN);
    for (std::size_t b = 0; b < 4; ++b)
        for (std::size_t l = 0; l < 3; ++l)
            for (std::size_t c = 0; c < 16; ++c)
                s.entry(b, l)[c] = b * 1000 + l * 100 + c;
    std::vector<u64> slab(4 * 16);
    s.gatherLevel(1, slab.data());
    for (std::size_t b = 0; b < 4; ++b)
        for (std::size_t c = 0; c < 16; ++c)
            ASSERT_EQ(slab[b * 16 + c], b * 1000 + 100 + c);
    for (auto &v : slab)
        v += 7;
    s.scatterLevel(1, slab.data());
    EXPECT_EQ(s.entry(2, 1)[5], 2105u + 7u);
}

TEST(Layout, RepackPreservesEntries)
{
    BatchStore s(5, 3, 8, Layout::BLN);
    for (std::size_t b = 0; b < 5; ++b)
        for (std::size_t l = 0; l < 3; ++l)
            s.entry(b, l)[3] = b * 10 + l;
    s.repack(Layout::LBN);
    EXPECT_EQ(s.layout(), Layout::LBN);
    for (std::size_t b = 0; b < 5; ++b)
        for (std::size_t l = 0; l < 3; ++l)
            ASSERT_EQ(s.entry(b, l)[3], b * 10 + l);
    EXPECT_EQ(s.repack(Layout::LBN), 0u); // no-op
}

struct BatchFixture
{
    BatchFixture()
        : ctx(ckks::Presets::tiny()), rng(7),
          sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1})), enc(ctx, keys.pk),
          dec(ctx, sk), batched(ctx, keys)
    {}

    ckks::Ciphertext
    encryptValue(double v, std::size_t levels)
    {
        auto pt = ctx.encoder().encodeConstant(
            ckks::Complex(v, 0), ctx.params().scale(), levels);
        return enc.encrypt(pt, rng);
    }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    ckks::Decryptor dec;
    BatchedEvaluator batched;
};

TEST(BatchedEvaluator, BatchedEqualsSequential)
{
    // Every slot of a batched call carries the bits of the same call
    // on a one-element batch.
    BatchFixture f;
    std::vector<ckks::Ciphertext> a, b;
    for (int i = 0; i < 6; ++i) {
        a.push_back(f.encryptValue(0.1 * (i + 1), 3));
        b.push_back(f.encryptValue(0.2 * (i + 1), 3));
    }
    auto batch_sum = f.batched.add(a, b);
    auto batch_prod = f.batched.rescale(f.batched.multiply(a, b));
    for (int i = 0; i < 6; ++i) {
        test::expectCtEq(batch_sum[i], f.batched.add({a[i]}, {b[i]})[0]);
        test::expectCtEq(
            batch_prod[i],
            f.batched.rescale(f.batched.multiply({a[i]}, {b[i]}))[0]);
        auto got_p = f.dec.decryptAndDecode(batch_prod[i]);
        EXPECT_NEAR(got_p[0].real(), 0.1 * 0.2 * (i + 1) * (i + 1),
                    5e-3);
    }
}

TEST(BatchedEvaluator, BatchedRotate)
{
    BatchFixture f;
    std::vector<ckks::Complex> z(f.ctx.slots(), {0, 0});
    z[1] = ckks::Complex(3.5, 0);
    auto pt = f.ctx.encoder().encode(z, f.ctx.params().scale(), 2);
    std::vector<ckks::Ciphertext> cts(4, f.enc.encrypt(pt, f.rng));
    auto rotated = f.batched.rotate(cts, 1);
    for (const auto &ct : rotated) {
        auto got = f.dec.decryptAndDecode(ct);
        EXPECT_NEAR(got[0].real(), 3.5, 5e-3);
    }
}

TEST(ApiLayer, BatchSizeBoundedByVram)
{
    auto params = ckks::Presets::paperDefault();
    auto dev = gpu::DeviceModel::a100();
    // Paper default: batch 128 fits the A100's 40 GB.
    EXPECT_EQ(bestBatchSize(params, dev, 128), 128u);
    // A device with tiny VRAM caps the batch.
    auto small_dev = dev;
    small_dev.vramBytes = 1.0 * (1ull << 30);
    EXPECT_LT(bestBatchSize(params, small_dev, 128), 128u);
    EXPECT_GE(bestBatchSize(params, small_dev, 128), 1u);
    // Requests below the cap are honored.
    EXPECT_EQ(bestBatchSize(params, dev, 16), 16u);
}

TEST(ApiLayer, WorkingSetGrowsWithParams)
{
    auto small = ckks::Presets::tiny();
    auto big = ckks::Presets::paperDefault();
    EXPECT_GT(workingSetBytesPerOp(big), workingSetBytesPerOp(small));
}

} // namespace
} // namespace tensorfhe::batch
