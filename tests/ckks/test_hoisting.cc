/**
 * @file
 * Hoisted key-switching tests: hoist + keySwitchTail must compose to
 * keySwitch bit for bit, rotateHoisted must be bit-identical to the
 * serial rotate for every step shape (negative, wrap-around, zero,
 * repeated), rotations and conjugation (serial and batched) must
 * equal the generic tail over the explicitly permuted head bit for
 * bit, and sharing one decompose+ModUp head across steps must
 * actually shrink the NTT / Conv work (checked via kernel counters).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "ckks/evaluator.hh"
#include "common/stats.hh"

namespace tensorfhe::ckks
{
namespace
{

void
expectPolyEq(const rns::RnsPolynomial &x, const rns::RnsPolynomial &y)
{
    ASSERT_EQ(x.numLimbs(), y.numLimbs());
    ASSERT_EQ(x.limbIndices(), y.limbIndices());
    ASSERT_EQ(x.domain(), y.domain());
    for (std::size_t i = 0; i < x.numLimbs(); ++i) {
        const u64 *px = x.limb(i);
        const u64 *py = y.limb(i);
        for (std::size_t c = 0; c < x.n(); ++c)
            ASSERT_EQ(px[c], py[c]) << "limb " << i << " coeff " << c;
    }
}

void
expectCtEq(const Ciphertext &x, const Ciphertext &y)
{
    expectPolyEq(x.c0, y.c0);
    expectPolyEq(x.c1, y.c1);
    EXPECT_DOUBLE_EQ(x.scale, y.scale);
}

struct HoistFixture
{
    HoistFixture()
        : ctx(Presets::tiny()), rng(77), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(
              sk, rng,
              {1, 2, 3, 5, static_cast<s64>(ctx.slots()) - 1,
               static_cast<s64>(ctx.slots()) - 2})),
          enc(ctx, keys.pk), dec(ctx, sk), eval(ctx, keys)
    {}

    Ciphertext
    encryptRandom(double mag, u64 seed, std::size_t levels)
    {
        Rng r(seed);
        std::vector<Complex> z(ctx.slots());
        for (auto &v : z)
            v = Complex(mag * (2 * r.uniformReal() - 1),
                        mag * (2 * r.uniformReal() - 1));
        auto pt = ctx.encoder().encode(z, ctx.params().scale(), levels);
        return enc.encrypt(pt, rng);
    }

    CkksContext ctx;
    Rng rng;
    SecretKey sk;
    KeyBundle keys;
    Encryptor enc;
    Decryptor dec;
    Evaluator eval;
};

HoistFixture &
fx()
{
    static HoistFixture f;
    return f;
}

TEST(Hoisting, KeySwitchEqualsHoistPlusTail)
{
    auto &f = fx();
    Rng rng(5);
    for (std::size_t lc : {std::size_t(2), std::size_t(3)}) {
        auto d = rns::sampleUniform(f.ctx.tower(), f.ctx.qLimbs(lc),
                                    rns::Domain::Eval, rng);
        auto [s0, s1] = f.eval.keySwitch(d, f.keys.relin);
        auto h = f.eval.hoist(d);
        EXPECT_EQ(h.levelCount, lc);
        auto [t0, t1] = f.eval.keySwitchTail(h, f.keys.relin);
        expectPolyEq(s0, t0);
        expectPolyEq(s1, t1);
    }
}

/**
 * The automorphism `galois` of `ct` composed from generic parts: the
 * digits of hoist(c1), each permuted by the FrobeniusMap, through the
 * plain keySwitchTail, plus the permuted c0. The dispatcher permutes
 * only the inner product's result instead; both must agree bit for
 * bit.
 */
Ciphertext
permutedHeadComposition(const HoistFixture &f, const Ciphertext &ct,
                        u64 galois, const SwitchKey &key)
{
    auto h = f.eval.hoist(ct.c1);
    for (auto &digit : h.digits)
        digit = rns::applyAutomorphism(digit, galois);
    auto [ks0, ks1] = f.eval.keySwitchTail(h, key);
    Ciphertext out;
    out.c0 = std::move(ks0);
    rns::eleAddInPlace(out.c0, rns::applyAutomorphism(ct.c0, galois));
    out.c1 = std::move(ks1);
    out.scale = ct.scale;
    return out;
}

/** Rotation steps with their normalized key steps: positive,
    negative and wrap-around. */
std::vector<std::pair<s64, s64>>
compositionSteps(std::size_t slots)
{
    s64 n = static_cast<s64>(slots);
    return {{1, 1}, {5, 5}, {-1, n - 1}, {n + 3, 3}};
}

TEST(Hoisting, RotationsMatchThePermutedHeadComposition)
{
    auto &f = fx();
    for (std::size_t lc : {std::size_t(2), std::size_t(3)}) {
        auto ct = f.encryptRandom(1.0, 60 + lc, lc);
        for (auto [step, key_step] : compositionSteps(f.ctx.slots())) {
            SCOPED_TRACE("level count " + std::to_string(lc) + ", step "
                         + std::to_string(step));
            expectCtEq(f.eval.rotate(ct, step),
                       permutedHeadComposition(
                           f, ct, f.ctx.galoisForRotation(key_step),
                           f.keys.rot.at(key_step)));
        }
        SCOPED_TRACE("conjugation at level count " + std::to_string(lc));
        expectCtEq(f.eval.conjugate(ct),
                   permutedHeadComposition(
                       f, ct, f.ctx.galoisForConjugation(), f.keys.conj));
    }
}

TEST(Hoisting, BatchedRotationsMatchThePermutedHeadComposition)
{
    auto &f = fx();
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    auto steps = compositionSteps(f.ctx.slots());
    std::vector<s64> plain_steps;
    for (auto [step, key_step] : steps)
        plain_steps.push_back(step);
    for (std::size_t lc : {std::size_t(2), std::size_t(3)}) {
        std::vector<Ciphertext> cts;
        for (std::size_t s = 0; s < 3; ++s)
            cts.push_back(f.encryptRandom(1.0, 70 + 10 * lc + s, lc));
        auto rotated = beval.rotateManyBatch(cts, plain_steps);
        ASSERT_EQ(rotated.size(), steps.size());
        for (std::size_t i = 0; i < steps.size(); ++i)
            for (std::size_t s = 0; s < cts.size(); ++s) {
                SCOPED_TRACE("level count " + std::to_string(lc)
                             + ", step " + std::to_string(steps[i].first)
                             + ", slot " + std::to_string(s));
                expectCtEq(rotated[i][s],
                           permutedHeadComposition(
                               f, cts[s],
                               f.ctx.galoisForRotation(steps[i].second),
                               f.keys.rot.at(steps[i].second)));
            }
    }
}

TEST(Hoisting, RotateHoistedBitIdenticalToSerialRotate)
{
    auto &f = fx();
    auto ct = f.encryptRandom(1.0, 11, 3);
    s64 slots = static_cast<s64>(f.ctx.slots());
    // Positive, repeated, zero, negative and wrap-around steps; all
    // normalize onto granted keys.
    std::vector<s64> steps = {1, 2, 5, 1, 0, -1, -2, slots + 3};
    steps.push_back(2 * slots + 1);
    steps.push_back(-slots);
    auto hoisted = f.eval.rotateHoisted(ct, steps);
    ASSERT_EQ(hoisted.size(), steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(steps[i]));
        expectCtEq(hoisted[i], f.eval.rotate(ct, steps[i]));
    }
}

TEST(Hoisting, RotateHoistedDecryptsToRotatedSlots)
{
    auto &f = fx();
    Rng r(21);
    std::vector<Complex> z(f.ctx.slots());
    for (auto &v : z)
        v = Complex(2 * r.uniformReal() - 1, 2 * r.uniformReal() - 1);
    auto pt = f.ctx.encoder().encode(z, f.ctx.params().scale(), 2);
    auto ct = f.enc.encrypt(pt, f.rng);

    std::size_t slots = f.ctx.slots();
    std::vector<s64> steps = {1, 2, 5, static_cast<s64>(slots) - 1};
    auto rotated = f.eval.rotateHoisted(ct, steps);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        auto got = f.dec.decryptAndDecode(rotated[i]);
        double err = 0;
        for (std::size_t j = 0; j < slots; ++j) {
            auto expect =
                z[(j + static_cast<std::size_t>(steps[i])) % slots];
            err = std::max(err, std::abs(got[j] - expect));
        }
        EXPECT_LT(err, 5e-3) << "step " << steps[i];
    }
}

TEST(Hoisting, ZeroStepsReturnCopies)
{
    auto &f = fx();
    auto ct = f.encryptRandom(0.5, 31, 2);
    auto out = f.eval.rotateHoisted(ct, {0, 0});
    ASSERT_EQ(out.size(), 2u);
    expectCtEq(out[0], ct);
    expectCtEq(out[1], ct);
}

TEST(Hoisting, MissingKeyRejected)
{
    auto &f = fx();
    auto ct = f.encryptRandom(0.5, 32, 2);
    EXPECT_THROW(f.eval.rotateHoisted(ct, {1, 7}),
                 std::invalid_argument);
}

TEST(Hoisting, OneHeadServesAllSteps)
{
    // The hoisted path must do one decompose+ModUp (Conv head) and
    // one set of forward union-basis NTTs for R rotations, where the
    // serial path pays them R times; compare processed elements.
    auto &f = fx();
    auto ct = f.encryptRandom(1.0, 41, 3);
    std::vector<s64> steps = {1, 2, 3, 5};

    auto &stats = KernelStats::instance();
    stats.reset();
    for (s64 s : steps)
        (void)f.eval.rotate(ct, s);
    u64 serial_ntt = stats.counter(KernelKind::Ntt).elements
        + stats.counter(KernelKind::Intt).elements;
    u64 serial_conv = stats.counter(KernelKind::Conv).elements;

    stats.reset();
    auto out = f.eval.rotateHoisted(ct, steps);
    u64 hoisted_ntt = stats.counter(KernelKind::Ntt).elements
        + stats.counter(KernelKind::Intt).elements;
    u64 hoisted_conv = stats.counter(KernelKind::Conv).elements;
    stats.reset();

    ASSERT_EQ(out.size(), steps.size());
    EXPECT_LT(hoisted_ntt, serial_ntt);
    EXPECT_LT(hoisted_conv, serial_conv);
    // The serial path repeats the whole head per rotation; with 4
    // rotations the hoisted path must save at least the 3 repeats of
    // the ModUp Conv work serial pays beyond the shared tail.
    EXPECT_LE(4 * hoisted_conv, 3 * serial_conv);
}

} // namespace
} // namespace tensorfhe::ckks
