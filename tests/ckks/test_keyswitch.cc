/**
 * @file
 * Key-switching internals: the generalized (dnum) decomposition of
 * paper SII-B, across dnum settings, levels, and NTT variants, and
 * the storage format of the generated keys: its permutation, its
 * per-seed determinism, and that storing it records no kernel launch.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "common/stats.hh"

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

void
expectKeyDigitsEqual(const SwitchKey &got, const SwitchKey &want)
{
    ASSERT_EQ(got.digits(), want.digits());
    for (std::size_t j = 0; j < want.digits(); ++j)
        for (auto [g, w] : {std::pair{&got.b[j], &want.b[j]},
                            std::pair{&got.a[j], &want.a[j]}}) {
            ASSERT_EQ(g->limbIndices(), w->limbIndices());
            ASSERT_EQ(g->domain(), w->domain());
            for (std::size_t i = 0; i < w->numLimbs(); ++i)
                for (std::size_t c = 0; c < w->n(); ++c)
                    ASSERT_EQ(g->limb(i)[c], w->limb(i)[c])
                        << "digit " << j << " limb " << i;
        }
}

/** `key` with every digit mapped by the automorphism `galois`. */
SwitchKey
automorphKey(const SwitchKey &key, u64 galois)
{
    SwitchKey out;
    for (std::size_t j = 0; j < key.digits(); ++j) {
        out.b.push_back(rns::applyAutomorphism(key.b[j], galois));
        out.a.push_back(rns::applyAutomorphism(key.a[j], galois));
    }
    return out;
}

TEST(KeySwitch, GaloisKeysAreStoredPermutedByTheInverse)
{
    // The bundle's rotation and conjugation keys are the same-seed
    // generateSwitchKey of their target with every digit permuted by
    // g^-1; the relinearization key is stored as generated.
    CkksContext ctx(Presets::tiny());
    Rng sk_rng(31);
    auto sk = ctx.generateSecretKey(sk_rng);
    std::vector<s64> steps = {1, 3, static_cast<s64>(ctx.slots()) - 1};
    Rng rng(32);
    auto keys = ctx.generateKeys(sk, rng, steps);

    // Replay generateKeys' draws: pk, relin, the rotations in order,
    // then the conjugation key.
    Rng replay(32);
    (void)ctx.generatePublicKey(sk, replay);
    auto s2 = sk.eval;
    rns::hadaMultInPlace(s2, sk.eval);
    expectKeyDigitsEqual(keys.relin,
                         ctx.generateSwitchKey(s2, sk, replay));
    auto expectStoredPermuted = [&](const SwitchKey &stored, u64 g) {
        auto generated = ctx.generateSwitchKey(
            rns::applyAutomorphism(sk.eval, g), sk, replay);
        expectKeyDigitsEqual(stored,
                             automorphKey(generated, ctx.galoisInverse(g)));
        // The permutation is not the identity on these digits.
        EXPECT_NE(stored.b[0].limb(0)[1], generated.b[0].limb(0)[1]);
    };
    for (s64 step : steps) {
        SCOPED_TRACE("rotation step " + std::to_string(step));
        expectStoredPermuted(keys.rot.at(step),
                             ctx.galoisForRotation(step));
    }
    SCOPED_TRACE("conjugation");
    expectStoredPermuted(keys.conj, ctx.galoisForConjugation());

    u64 m = 2 * ctx.n();
    std::vector<u64> elements = {ctx.galoisForConjugation()};
    for (s64 step : steps) {
        elements.push_back(ctx.galoisForRotation(step));
        elements.push_back(ctx.galoisForConjRotation(step));
    }
    for (u64 e : elements)
        EXPECT_EQ(e * ctx.galoisInverse(e) % m, 1u) << "element " << e;
}

TEST(KeySwitch, GaloisKeyGenerationIsDeterministicPerSeed)
{
    // A key regenerates bit for bit from the same secret and seed, so
    // a bundle is reproducible rather than something to cache; a
    // different seed draws a different key.
    CkksContext ctx(Presets::tiny());
    Rng sk_rng(41);
    auto sk = ctx.generateSecretKey(sk_rng);
    auto head = [](const SwitchKey &k) {
        const u64 *p = k.a[0].limb(0);
        return std::vector<u64>(p, p + 4);
    };
    for (s64 step : {s64{1}, s64{6}, s64{-1}}) {
        SCOPED_TRACE("rotation step " + std::to_string(step));
        Rng r1(42), r2(42), r3(43);
        auto key = ctx.generateRotationKey(sk, step, r1);
        expectKeyDigitsEqual(key, ctx.generateRotationKey(sk, step, r2));
        EXPECT_NE(head(key), head(ctx.generateRotationKey(sk, step, r3)));
    }
    Rng c1(44), c2(44);
    expectKeyDigitsEqual(ctx.generateConjugationKey(sk, c1),
                         ctx.generateConjugationKey(sk, c2));

    std::vector<s64> steps = {1, 3, static_cast<s64>(ctx.slots()) - 2};
    Rng b1(45), b2(45);
    auto x = ctx.generateKeys(sk, b1, steps);
    auto y = ctx.generateKeys(sk, b2, steps);
    expectKeyDigitsEqual(x.relin, y.relin);
    expectKeyDigitsEqual(x.conj, y.conj);
    ASSERT_EQ(x.rot.size(), steps.size());
    for (s64 step : steps) {
        SCOPED_TRACE("bundle step " + std::to_string(step));
        expectKeyDigitsEqual(x.rot.at(step), y.rot.at(step));
    }
}

TEST(KeySwitch, GaloisKeyPermutationRecordsNoKernelLaunch)
{
    // Storing a Galois key permuted by g^-1 prepares keys rather than
    // evaluating: generating one records exactly the launches of the
    // automorphism of s and the generateSwitchKey of its image, of
    // every kernel kind, so a workload's kernel counters do not
    // depend on how its keys are stored.
    CkksContext ctx(Presets::tiny());
    Rng sk_rng(51);
    auto sk = ctx.generateSecretKey(sk_rng);
    using Counts = std::vector<std::pair<u64, u64>>; // launches, elements
    auto delta = [](const std::function<void()> &run) {
        auto &ks = KernelStats::instance();
        auto read = [&] {
            Counts out;
            for (std::size_t k = 0; k < kNumKernelKinds; ++k) {
                const auto &c = ks.counter(static_cast<KernelKind>(k));
                out.emplace_back(c.invocations.load(), c.elements.load());
            }
            return out;
        };
        auto before = read();
        run();
        auto after = read();
        for (std::size_t k = 0; k < after.size(); ++k) {
            after[k].first -= before[k].first;
            after[k].second -= before[k].second;
        }
        return after;
    };
    auto expectSameLaunches = [&](u64 galois,
                                  const std::function<SwitchKey(Rng &)>
                                      &stored) {
        Rng r1(52), r2(52);
        SwitchKey got, want;
        auto stored_counts = delta([&] { got = stored(r1); });
        auto plain_counts = delta([&] {
            want = ctx.generateSwitchKey(
                rns::applyAutomorphism(sk.eval, galois), sk, r2);
        });
        EXPECT_EQ(stored_counts, plain_counts);
        std::size_t frob = static_cast<std::size_t>(KernelKind::FrobeniusMap);
        EXPECT_EQ(stored_counts[frob].first, 1u);
        expectKeyDigitsEqual(got,
                             automorphKey(want, ctx.galoisInverse(galois)));
    };
    {
        SCOPED_TRACE("rotation");
        expectSameLaunches(ctx.galoisForRotation(3), [&](Rng &r) {
            return ctx.generateRotationKey(sk, 3, r);
        });
    }
    SCOPED_TRACE("conjugation");
    expectSameLaunches(ctx.galoisForConjugation(), [&](Rng &r) {
        return ctx.generateConjugationKey(sk, r);
    });
}

} // namespace
} // namespace tensorfhe::ckks
