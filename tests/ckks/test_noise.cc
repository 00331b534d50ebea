/**
 * @file
 * Noise-budget behaviour: CKKS error must stay within predictable
 * envelopes as operations compose — the property that determines a
 * parameter set's usable depth.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "batch/executor.hh"
#include "ckks/crypto.hh"

namespace tensorfhe::ckks
{
namespace
{

struct NoiseFixture
{
    NoiseFixture()
        : ctx(Presets::small()), rng(77), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1})), enc(ctx, keys.pk),
          dec(ctx, sk), eval(ctx, keys)
    {}

    /** Max slot error of ct against reference values. */
    double
    error(const Ciphertext &ct, const std::vector<Complex> &ref)
    {
        auto got = dec.decryptAndDecode(ct);
        double e = 0;
        for (std::size_t i = 0; i < ref.size(); ++i)
            e = std::max(e, std::abs(got[i] - ref[i]));
        return e;
    }

    std::vector<Complex>
    slots(double v)
    {
        return std::vector<Complex>(ctx.slots(), Complex(v, 0));
    }

    Ciphertext
    encrypt(const std::vector<Complex> &z, std::size_t lc)
    {
        return enc.encrypt(
            ctx.encoder().encode(z, ctx.params().scale(), lc), rng);
    }

    CkksContext ctx;
    Rng rng;
    SecretKey sk;
    KeyBundle keys;
    Encryptor enc;
    Decryptor dec;
    batch::BatchedEvaluator eval;
};

NoiseFixture &
fx()
{
    static NoiseFixture f;
    return f;
}

TEST(Noise, FreshEncryptionErrorBounded)
{
    auto z = fx().slots(0.5);
    auto ct = fx().encrypt(z, 3);
    // Fresh noise: encryption noise plus the encode-rounding floor
    // at a 25-bit scale lands around 2e-3 for full random slots.
    EXPECT_LT(fx().error(ct, z), 5e-3);
}

TEST(Noise, AdditionGrowsErrorSubLinearly)
{
    auto z = fx().slots(0.01);
    auto ct = fx().encrypt(z, 3);
    std::vector<Ciphertext> acc{ct};
    std::vector<Complex> ref = z;
    for (int i = 0; i < 64; ++i) {
        fx().eval.addInPlace(acc, {ct});
        for (std::size_t j = 0; j < ref.size(); ++j)
            ref[j] += z[j];
    }
    // 64 additions add at most 64 independent fresh-noise terms;
    // measured growth is linear in the count, not multiplicative.
    EXPECT_LT(fx().error(acc[0], ref), 64 * 5e-3);
}

TEST(Noise, EveryLevelOfTheChainIsUsable)
{
    // Squaring down the entire chain keeps relative error under 1%
    // at every level — the contract the presets promise.
    auto z = fx().slots(0.9);
    std::vector<Ciphertext> ct{fx().encrypt(z, fx().ctx.tower().numQ())};
    double expect = 0.9;
    while (ct[0].levelCount() >= 2) {
        ct = fx().eval.rescale(fx().eval.multiply(ct, ct));
        expect *= expect;
        auto got = fx().dec.decryptAndDecode(ct[0])[0].real();
        ASSERT_LT(std::abs(got - expect), 0.01 * expect + 1e-4)
            << "at level count " << ct[0].levelCount();
    }
}

TEST(Noise, KeySwitchNoiseSmallerThanRescaleUnit)
{
    // HMULT noise (keyswitch) must be far below the scale, or depth
    // would be unusable: compare multiply-then-decrypt against the
    // plaintext product.
    auto z = fx().slots(0.25);
    auto a = fx().encrypt(z, 4);
    auto b = fx().encrypt(z, 4);
    auto prod = fx().eval.rescale(fx().eval.multiply({a}, {b}))[0];
    EXPECT_LT(fx().error(prod, fx().slots(0.0625)), 1e-3);
}

TEST(Noise, RotationPreservesErrorScale)
{
    auto z = fx().slots(0.3);
    std::vector<Ciphertext> rot{fx().encrypt(z, 3)};
    // Eight chained rotations: keyswitch noise accumulates additively
    // and stays well below 1% of the payload.
    for (int i = 0; i < 8; ++i)
        rot = fx().eval.rotate(rot, 1);
    EXPECT_LT(fx().error(rot[0], z), 3e-2);
}

TEST(Noise, ScaleMismatchIsRejectedNotAbsorbed)
{
    // Mislabeled scales corrupt values silently in naive libraries;
    // ours refuses them.
    auto a = fx().encrypt(fx().slots(0.5), 3);
    auto b = a;
    b.scale *= 1.01;
    EXPECT_THROW(fx().eval.add({a}, {b}), std::invalid_argument);
}

TEST(Noise, MultiplyConstToScaleIsExact)
{
    auto a = fx().encrypt(fx().slots(0.5), 3);
    double target = fx().ctx.params().scale();
    auto out = fx().eval.multiplyConstToScale({a}, 0.4, target)[0];
    EXPECT_DOUBLE_EQ(out.scale, target);
    EXPECT_LT(fx().error(out, fx().slots(0.2)), 1e-3);
}

} // namespace
} // namespace tensorfhe::ckks
