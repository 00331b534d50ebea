/**
 * @file
 * End-to-end homomorphic operation tests: every Table II operation is
 * executed on encrypted data, one ciphertext as a one-element batch,
 * and checked against plaintext math.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "batch/executor.hh"
#include "ckks/crypto.hh"

namespace tensorfhe::ckks
{
namespace
{

struct Fixture
{
    Fixture()
        : ctx(Presets::tiny()), rng(42), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1, 2, 4})),
          enc(ctx, keys.pk), dec(ctx, sk), eval(ctx, keys)
    {}

    std::vector<Complex>
    randomSlots(double mag, u64 seed)
    {
        Rng r(seed);
        std::vector<Complex> v(ctx.slots());
        for (auto &z : v)
            z = Complex(mag * (2 * r.uniformReal() - 1),
                        mag * (2 * r.uniformReal() - 1));
        return v;
    }

    Ciphertext
    encryptSlots(const std::vector<Complex> &z, std::size_t levels)
    {
        auto pt = ctx.encoder().encode(z, ctx.params().scale(), levels);
        return enc.encrypt(pt, rng);
    }

    double
    maxErrorVs(const Ciphertext &ct, const std::vector<Complex> &expect)
    {
        auto got = dec.decryptAndDecode(ct);
        double err = 0;
        for (std::size_t i = 0; i < expect.size(); ++i)
            err = std::max(err, std::abs(got[i] - expect[i]));
        return err;
    }

    CkksContext ctx;
    Rng rng;
    SecretKey sk;
    KeyBundle keys;
    Encryptor enc;
    Decryptor dec;
    batch::BatchedEvaluator eval;
};

Fixture &
fx()
{
    static Fixture f;
    return f;
}

TEST(CkksEvaluator, EncryptDecryptRoundTrip)
{
    auto z = fx().randomSlots(1.0, 1);
    auto ct = fx().encryptSlots(z, 2);
    EXPECT_LT(fx().maxErrorVs(ct, z), 1e-3);
}

TEST(CkksEvaluator, EncryptionIsRandomized)
{
    auto z = fx().randomSlots(1.0, 2);
    auto pt = fx().ctx.encoder().encode(z, fx().ctx.params().scale(), 2);
    auto ct1 = fx().enc.encrypt(pt, fx().rng);
    auto ct2 = fx().enc.encrypt(pt, fx().rng);
    bool differ = false;
    for (std::size_t j = 0; j < fx().ctx.n() && !differ; ++j)
        differ = ct1.c0.limb(0)[j] != ct2.c0.limb(0)[j];
    EXPECT_TRUE(differ);
}

TEST(CkksEvaluator, HAdd)
{
    auto z1 = fx().randomSlots(1.0, 3);
    auto z2 = fx().randomSlots(1.0, 4);
    auto ct = fx().eval.add({fx().encryptSlots(z1, 2)},
                            {fx().encryptSlots(z2, 2)})[0];
    std::vector<Complex> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i)
        expect[i] = z1[i] + z2[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 2e-3);
}

TEST(CkksEvaluator, HSub)
{
    auto z1 = fx().randomSlots(1.0, 5);
    auto z2 = fx().randomSlots(1.0, 6);
    auto ct = fx().eval.sub({fx().encryptSlots(z1, 2)},
                            {fx().encryptSlots(z2, 2)})[0];
    std::vector<Complex> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i)
        expect[i] = z1[i] - z2[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 2e-3);
}

TEST(CkksEvaluator, CMultWithRescale)
{
    auto z = fx().randomSlots(1.0, 7);
    auto w = fx().randomSlots(1.0, 8);
    auto pt = fx().ctx.encoder().encode(w, fx().ctx.params().scale(), 2);
    auto ct = fx().eval.rescale(
        fx().eval.multiplyPlain({fx().encryptSlots(z, 2)}, pt))[0];
    std::vector<Complex> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = z[i] * w[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 5e-3);
}

TEST(CkksEvaluator, HMultWithRelinearization)
{
    auto z1 = fx().randomSlots(1.0, 9);
    auto z2 = fx().randomSlots(1.0, 10);
    auto ct = fx().eval.rescale(fx().eval.multiply(
        {fx().encryptSlots(z1, 3)}, {fx().encryptSlots(z2, 3)}))[0];
    std::vector<Complex> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i)
        expect[i] = z1[i] * z2[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 1e-2);
}

TEST(CkksEvaluator, MultiplicationDepthTwo)
{
    auto z = fx().randomSlots(1.0, 11);
    auto ct = fx().encryptSlots(z, 3);
    auto sq = fx().eval.rescale(fx().eval.multiply({ct}, {ct}));
    auto quad = fx().eval.rescale(fx().eval.multiply(sq, sq));
    std::vector<Complex> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = z[i] * z[i] * z[i] * z[i];
    EXPECT_LT(fx().maxErrorVs(quad[0], expect), 5e-2);
}

TEST(CkksEvaluator, HRotate)
{
    auto z = fx().randomSlots(1.0, 12);
    std::size_t slots = fx().ctx.slots();
    for (s64 step : {s64(1), s64(2), s64(4)}) {
        auto ct = fx().eval.rotate({fx().encryptSlots(z, 2)}, step)[0];
        std::vector<Complex> expect(slots);
        for (std::size_t i = 0; i < slots; ++i)
            expect[i] = z[(i + static_cast<std::size_t>(step)) % slots];
        EXPECT_LT(fx().maxErrorVs(ct, expect), 5e-3) << "step " << step;
    }
}

TEST(CkksEvaluator, RotateByZeroIsIdentity)
{
    auto z = fx().randomSlots(1.0, 13);
    auto ct = fx().encryptSlots(z, 2);
    auto rot = fx().eval.rotate({ct}, 0)[0];
    EXPECT_LT(fx().maxErrorVs(rot, z), 1e-3);
}

TEST(CkksEvaluator, RotateRequiresKey)
{
    auto z = fx().randomSlots(1.0, 14);
    auto ct = fx().encryptSlots(z, 2);
    EXPECT_THROW(fx().eval.rotate({ct}, 3), std::invalid_argument);
}

TEST(CkksEvaluator, Conjugate)
{
    auto z = fx().randomSlots(1.0, 15);
    auto in = fx().encryptSlots(z, 2);
    auto ct = fx().eval.dispatcher().conjugate(&in, 1)[0];
    std::vector<Complex> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = std::conj(z[i]);
    EXPECT_LT(fx().maxErrorVs(ct, expect), 5e-3);
}

TEST(CkksEvaluator, NegateAndConstOps)
{
    auto z = fx().randomSlots(1.0, 16);
    auto ct = fx().encryptSlots(z, 2);
    std::vector<Complex> expect(z.size());

    auto neg = fx().eval.negate({ct})[0];
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = -z[i];
    EXPECT_LT(fx().maxErrorVs(neg, expect), 1e-3);

    auto plus = fx().eval.addConst({ct}, 1.5)[0];
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = z[i] + 1.5;
    EXPECT_LT(fx().maxErrorVs(plus, expect), 1e-3);

    auto minus_two = fx().ctx.encoder().encodeConstant(
        Complex(-2.0, 0), fx().ctx.params().scale(), ct.levelCount());
    auto scaled =
        fx().eval.rescale(fx().eval.multiplyPlain({ct}, minus_two))[0];
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = -2.0 * z[i];
    EXPECT_LT(fx().maxErrorVs(scaled, expect), 5e-3);
}

TEST(CkksEvaluator, ScaleTracksThroughRescale)
{
    auto z = fx().randomSlots(1.0, 17);
    auto ct = fx().encryptSlots(z, 3);
    double scale0 = ct.scale;
    auto prod = fx().eval.multiply({ct}, {ct})[0];
    EXPECT_DOUBLE_EQ(prod.scale, scale0 * scale0);
    auto rescaled = fx().eval.rescale({prod})[0];
    u64 q_last = fx().ctx.tower().prime(2);
    EXPECT_DOUBLE_EQ(rescaled.scale,
                     scale0 * scale0 / static_cast<double>(q_last));
    EXPECT_EQ(rescaled.levelCount(), 2u);
}

TEST(CkksEvaluator, LevelMismatchRejected)
{
    auto z = fx().randomSlots(1.0, 18);
    auto a = fx().encryptSlots(z, 3);
    auto b = fx().encryptSlots(z, 2);
    EXPECT_THROW(fx().eval.add({a}, {b}), std::invalid_argument);
    auto dropped = fx().eval.dropToLevelCount({a}, 2);
    EXPECT_NO_THROW(fx().eval.add(dropped, {b}));
}

TEST(CkksEvaluator, MultiplyAtLevelZeroRejected)
{
    auto z = fx().randomSlots(1.0, 19);
    auto a = fx().encryptSlots(z, 1);
    EXPECT_THROW(fx().eval.multiply({a}, {a}), std::invalid_argument);
}

TEST(CkksEvaluator, HomomorphicDotProductViaRotations)
{
    // Rotate-and-add reduction over 4 packed values — the primitive
    // the paper's HROTATE serves (SII-B).
    std::vector<Complex> z(fx().ctx.slots(), Complex(0, 0));
    z[0] = Complex(1, 0);
    z[1] = Complex(2, 0);
    z[2] = Complex(3, 0);
    z[3] = Complex(4, 0);
    std::vector<Ciphertext> sum{fx().encryptSlots(z, 2)};
    for (s64 step : {s64(2), s64(1)})
        sum = fx().eval.add(sum, fx().eval.rotate(sum, step));
    auto got = fx().dec.decryptAndDecode(sum[0]);
    EXPECT_NEAR(got[0].real(), 10.0, 1e-2);
}

} // namespace
} // namespace tensorfhe::ckks
