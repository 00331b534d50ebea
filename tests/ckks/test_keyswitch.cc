/**
 * @file
 * Key-switching internals: the generalized (dnum) decomposition of
 * paper SII-B, across dnum settings, levels, and NTT variants.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "batch/executor.hh"
#include "ckks/crypto.hh"

namespace tensorfhe::ckks
{
namespace
{

double
multiplyAndMeasure(const CkksParams &params, u64 seed)
{
    CkksContext ctx(params);
    Rng rng(seed);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, {1});
    Encryptor enc(ctx, keys.pk);
    Decryptor dec(ctx, sk);
    batch::BatchedEvaluator eval(ctx, keys);

    std::vector<Complex> z(ctx.slots());
    Rng zr(seed + 1);
    for (auto &v : z)
        v = Complex(2 * zr.uniformReal() - 1, 2 * zr.uniformReal() - 1);
    auto pt = ctx.encoder().encode(z, params.scale(), 3);
    std::vector<Ciphertext> ct{enc.encrypt(pt, rng)};
    auto prod = eval.rescale(eval.multiply(ct, ct));
    auto got = dec.decryptAndDecode(prod[0]);
    double err = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
        err = std::max(err, std::abs(got[i] - z[i] * z[i]));
    return err;
}

class KeySwitchDnum : public ::testing::TestWithParam<int>
{};

TEST_P(KeySwitchDnum, MultiplicationCorrectAcrossDnum)
{
    CkksParams p = Presets::tiny(); // L = 3, 4 q-primes
    p.dnum = GetParam();
    // Digits of alpha > 1 limbs need a wider special modulus.
    p.special = static_cast<int>(
        (p.alpha() * 25 + p.firstBits + 29) / 30);
    if (p.dnum != 0 && p.dnum <= 2)
        p.special = 4; // worst digit: 30 + 25 = 55 -> 2; q0 digit wider
    EXPECT_LT(multiplyAndMeasure(p, 100 + GetParam()), 2e-2)
        << "dnum=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Dnum, KeySwitchDnum, ::testing::Values(2, 4, 0));

TEST(KeySwitch, WorksAtLowerLevels)
{
    CkksParams p = Presets::tiny();
    CkksContext ctx(p);
    Rng rng(7);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, {});
    Encryptor enc(ctx, keys.pk);
    Decryptor dec(ctx, sk);
    batch::BatchedEvaluator eval(ctx, keys);

    std::vector<Complex> z(ctx.slots(), Complex(0.5, -0.25));
    // Encrypt at full level, multiply down the whole chain.
    std::vector<Ciphertext> ct{enc.encrypt(
        ctx.encoder().encode(z, p.scale(), ctx.tower().numQ()), rng)};
    Complex expect(0.5, -0.25);
    while (ct[0].levelCount() >= 2) {
        ct = eval.rescale(eval.multiply(ct, ct));
        expect *= expect;
        auto got = dec.decryptAndDecode(ct[0]);
        ASSERT_LT(std::abs(got[0] - expect), 5e-2)
            << "level count " << ct[0].levelCount();
    }
}

TEST(KeySwitch, RawKeySwitchRelation)
{
    // The key switch of d by key_t (hoist, then keySwitchTail) must
    // return (ks0, ks1) with ks0 + ks1*s ~ d*t: check with t = s^2 by
    // comparing against the directly computed d * s^2.
    CkksParams p = Presets::tiny();
    CkksContext ctx(p);
    Rng rng(8);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, {});
    exec::Dispatcher disp(ctx, keys);

    std::size_t lc = 2;
    auto limbs = ctx.qLimbs(lc);
    auto d = rns::sampleUniform(ctx.tower(), limbs, rns::Domain::Eval,
                                rng);
    const rns::RnsPolynomial *dp = &d;
    auto [ks0s, ks1s] = disp.keySwitchTail(disp.hoistCopy(&dp, 1),
                                           keys.relin);
    const auto &ks0 = ks0s[0];
    const auto &ks1 = ks1s[0];

    // lhs = ks0 + ks1 * s over the active limbs.
    rns::RnsPolynomial s_restricted(ctx.tower(), limbs,
                                    rns::Domain::Eval);
    for (std::size_t i = 0; i < limbs.size(); ++i)
        std::copy(sk.eval.limb(limbs[i]), sk.eval.limb(limbs[i])
                  + ctx.n(), s_restricted.limb(i));
    auto lhs = ks1;
    rns::hadaMultInPlace(lhs, s_restricted);
    rns::eleAddInPlace(lhs, ks0);

    // rhs = d * s^2.
    auto rhs = d;
    rns::hadaMultInPlace(rhs, s_restricted);
    rns::hadaMultInPlace(rhs, s_restricted);

    // Difference must be small noise: check in coefficient domain.
    rns::eleSubInPlace(lhs, rhs);
    lhs.toCoeff();
    for (std::size_t i = 0; i < lhs.numLimbs(); ++i) {
        u64 q = lhs.limbModulus(i).value();
        for (std::size_t c = 0; c < ctx.n(); ++c) {
            u64 v = lhs.limb(i)[c];
            u64 mag = std::min(v, q - v);
            // Noise bound: N * sigma * max|digit| / P plus conv slack;
            // generous envelope for the test.
            ASSERT_LT(mag, u64(1) << 22) << "limb " << i << " coeff " << c;
        }
    }
}

} // namespace
} // namespace tensorfhe::ckks
