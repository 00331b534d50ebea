/**
 * @file
 * Hoisted key-switching tests: HMULT's relinearization must equal the
 * tensor terms plus hoist + keySwitchTail of d2 bit for bit, a batched
 * hoist + keySwitchTail must give every slot the bits of a
 * one-polynomial hoist + tail, a
 * multi-step rotateManyBatch must be bit-identical to rotating one
 * step at a time for every step shape (negative, wrap-around, zero,
 * repeated), rotations and conjugation (one ciphertext and batched,
 * from the lowest level to the top) must equal the generic tail over
 * the explicitly permuted head bit for bit and decrypt to the moved
 * slots, and sharing one decompose+ModUp head across steps must
 * actually shrink the NTT / Conv work (checked via kernel counters).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "../ct_eq.hh"
#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "common/stats.hh"

namespace tensorfhe::ckks
{
namespace
{

using test::expectCtEq;
using test::expectPolyEq;

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

    std::vector<Complex>
    randomSlots(double mag, u64 seed) const
    {
        Rng r(seed);
        std::vector<Complex> z(ctx.slots());
        for (auto &v : z)
            v = Complex(mag * (2 * r.uniformReal() - 1),
                        mag * (2 * r.uniformReal() - 1));
        return z;
    }

    Ciphertext
    encryptSlots(const std::vector<Complex> &z, std::size_t levels)
    {
        auto pt = ctx.encoder().encode(z, ctx.params().scale(), levels);
        return enc.encrypt(pt, rng);
    }

    Ciphertext
    encryptRandom(double mag, u64 seed, std::size_t levels)
    {
        return encryptSlots(randomSlots(mag, seed), levels);
    }

    CkksContext ctx;
    Rng rng;
    SecretKey sk;
    KeyBundle keys;
    Encryptor enc;
    Decryptor dec;
    batch::BatchedEvaluator eval;
};

HoistFixture &
fx()
{
    static HoistFixture f;
    return f;
}

/**
 * HMULT's relinearization is a key switch of d2 = a1*b1 under the
 * relinearization key: the product must equal the tensor terms plus
 * hoistCopy(d2) + keySwitchTail, bit for bit, and hoisting a Coeff
 * copy of d2 must build the same digits as the Eval original.
 */
TEST(Hoisting, KeySwitchEqualsHoistPlusTail)
{
    auto &f = fx();
    const auto &disp = f.eval.dispatcher();
    for (std::size_t lc : {std::size_t(2), std::size_t(3)}) {
        SCOPED_TRACE("level count " + std::to_string(lc));
        auto a = f.encryptRandom(0.5, 40 + lc, lc);
        auto b = f.encryptRandom(0.5, 50 + lc, lc);
        auto product = f.eval.multiply({a}, {b})[0];

        auto d0 = a.c0;
        rns::hadaMultInPlace(d0, b.c0);
        auto d1 = a.c0;
        rns::hadaMultInPlace(d1, b.c1);
        auto a1b0 = a.c1;
        rns::hadaMultInPlace(a1b0, b.c0);
        rns::eleAddInPlace(d1, a1b0);
        auto d2 = a.c1;
        rns::hadaMultInPlace(d2, b.c1);

        const rns::RnsPolynomial *d2p = &d2;
        auto h = disp.hoistCopy(&d2p, 1);
        EXPECT_EQ(h.levelCount, lc);
        auto [t0, t1] = disp.keySwitchTail(h, f.keys.relin);

        auto d2coeff = d2;
        rns::toCoeffBatch({&d2coeff});
        const rns::RnsPolynomial *d2cp = &d2coeff;
        auto hc = disp.hoistCopy(&d2cp, 1);
        ASSERT_EQ(hc.numDigits(), h.numDigits());
        for (std::size_t j = 0; j < h.numDigits(); ++j)
            expectPolyEq(*hc.digits[j][0], *h.digits[j][0]);

        Ciphertext composed;
        composed.c0 = std::move(d0);
        rns::eleAddInPlace(composed.c0, t0[0]);
        composed.c1 = std::move(d1);
        rns::eleAddInPlace(composed.c1, t1[0]);
        composed.scale = a.scale * b.scale;
        expectCtEq(product, composed);
    }
}

TEST(Hoisting, BatchedHoistPlusTailMatchesOnePolynomialAtATime)
{
    auto &f = fx();
    const auto &disp = f.eval.dispatcher();
    Rng rng(5);
    for (std::size_t lc : {std::size_t(2), std::size_t(3)}) {
        std::vector<rns::RnsPolynomial> ds;
        for (std::size_t s = 0; s < 3; ++s)
            ds.push_back(rns::sampleUniform(f.ctx.tower(), f.ctx.qLimbs(lc),
                                            rns::Domain::Eval, rng));
        std::vector<const rns::RnsPolynomial *> ptrs;
        for (const auto &d : ds)
            ptrs.push_back(&d);
        auto h = disp.hoistCopy(ptrs.data(), ptrs.size());
        EXPECT_EQ(h.levelCount, lc);
        EXPECT_EQ(h.batch(), ds.size());
        auto [t0, t1] = disp.keySwitchTail(h, f.keys.relin);
        for (std::size_t s = 0; s < ds.size(); ++s) {
            auto [s0, s1] = disp.keySwitchTail(disp.hoistCopy(&ptrs[s], 1),
                                               f.keys.relin);
            expectPolyEq(t0[s], s0[0]);
            expectPolyEq(t1[s], s1[0]);
        }
    }
}

/**
 * The automorphism `galois` of `ct` composed from generic parts: the
 * digits of the hoisted c1, each permuted by the FrobeniusMap, through
 * the plain keySwitchTail against the key as generated, plus the
 * permuted c0. The bundle stores a Galois key's digits permuted by
 * galois^-1, so permuting `stored` by galois rebuilds that key. The
 * dispatcher permutes only the inner product's result instead; both
 * must agree bit for bit.
 */
Ciphertext
permutedHeadComposition(const HoistFixture &f, const Ciphertext &ct,
                        u64 galois, const SwitchKey &stored)
{
    const auto &disp = f.eval.dispatcher();
    SwitchKey key;
    for (std::size_t j = 0; j < stored.digits(); ++j) {
        key.b.push_back(rns::applyAutomorphism(stored.b[j], galois));
        key.a.push_back(rns::applyAutomorphism(stored.a[j], galois));
    }
    const rns::RnsPolynomial *c1 = &ct.c1;
    auto h = disp.hoistCopy(&c1, 1);
    for (auto &row : h.digits)
        *row[0] = rns::applyAutomorphism(*row[0], galois);
    auto [ks0, ks1] = disp.keySwitchTail(h, key);
    Ciphertext out;
    out.c0 = std::move(ks0[0]);
    rns::eleAddInPlace(out.c0, rns::applyAutomorphism(ct.c0, galois));
    out.c1 = std::move(ks1[0]);
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

/** Every composition step and the conjugation of a fresh ciphertext
    at level count `lc`, against permutedHeadComposition. */
void
expectRotationsMatchComposition(HoistFixture &f, std::size_t lc)
{
    auto ct = f.encryptRandom(1.0, 60 + lc, lc);
    for (auto [step, key_step] : compositionSteps(f.ctx.slots())) {
        SCOPED_TRACE("level count " + std::to_string(lc) + ", step "
                     + std::to_string(step));
        expectCtEq(f.eval.rotate({ct}, step)[0],
                   permutedHeadComposition(
                       f, ct, f.ctx.galoisForRotation(key_step),
                       f.keys.rot.at(key_step)));
    }
    SCOPED_TRACE("conjugation at level count " + std::to_string(lc));
    expectCtEq(f.eval.dispatcher().conjugate(&ct, 1)[0],
               permutedHeadComposition(
                   f, ct, f.ctx.galoisForConjugation(), f.keys.conj));
}

TEST(Hoisting, RotationsMatchThePermutedHeadComposition)
{
    for (std::size_t lc : {std::size_t(2), std::size_t(3)})
        expectRotationsMatchComposition(fx(), lc);
}

TEST(Hoisting, RotationsAtTheEndLevelsMatchThePermutedHeadComposition)
{
    // The tail reads the full-tower key in place, by tower index: at
    // one level it skips every q-limb but the first to reach the
    // special limbs, at the top it reads every limb of the key. Each
    // output matches the composition bit for bit and decrypts to the
    // rotated (or conjugated) slots.
    auto &f = fx();
    std::size_t slots = f.ctx.slots();
    for (std::size_t lc : {std::size_t(1), f.ctx.tower().numQ()}) {
        expectRotationsMatchComposition(f, lc);
        auto z = f.randomSlots(1.0, 90 + lc);
        auto ct = f.encryptSlots(z, lc);
        auto maxError = [&](const Ciphertext &out,
                            const std::function<Complex(std::size_t)>
                                &want) {
            auto got = f.dec.decryptAndDecode(out);
            double err = 0;
            for (std::size_t j = 0; j < slots; ++j)
                err = std::max(err, std::abs(got[j] - want(j)));
            return err;
        };
        for (auto [step, key_step] : compositionSteps(slots)) {
            auto shift = static_cast<std::size_t>(key_step);
            EXPECT_LT(maxError(f.eval.rotate({ct}, step)[0],
                               [&](std::size_t j) {
                                   return z[(j + shift) % slots];
                               }),
                      5e-3)
                << "level count " << lc << ", step " << step;
        }
        EXPECT_LT(maxError(f.eval.dispatcher().conjugate(&ct, 1)[0],
                           [&](std::size_t j) { return std::conj(z[j]); }),
                  5e-3)
            << "conjugation at level count " << lc;
    }
}

TEST(Hoisting, BatchedRotationsMatchThePermutedHeadComposition)
{
    auto &f = fx();
    auto steps = compositionSteps(f.ctx.slots());
    std::vector<s64> plain_steps;
    for (auto [step, key_step] : steps)
        plain_steps.push_back(step);
    for (std::size_t lc : {std::size_t(2), std::size_t(3)}) {
        std::vector<Ciphertext> cts;
        for (std::size_t s = 0; s < 3; ++s)
            cts.push_back(f.encryptRandom(1.0, 70 + 10 * lc + s, lc));
        auto rotated = f.eval.rotateManyBatch(cts, plain_steps);
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
    auto hoisted = f.eval.rotateManyBatch({ct}, steps);
    ASSERT_EQ(hoisted.size(), steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(steps[i]));
        expectCtEq(hoisted[i][0], f.eval.rotate({ct}, steps[i])[0]);
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
    auto rotated = f.eval.rotateManyBatch({ct}, steps);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        auto got = f.dec.decryptAndDecode(rotated[i][0]);
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
    auto out = f.eval.rotateManyBatch({ct}, {0, 0});
    ASSERT_EQ(out.size(), 2u);
    expectCtEq(out[0][0], ct);
    expectCtEq(out[1][0], ct);
}

TEST(Hoisting, MissingKeyRejected)
{
    auto &f = fx();
    auto ct = f.encryptRandom(0.5, 32, 2);
    EXPECT_THROW(f.eval.rotateManyBatch({ct}, {1, 7}),
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
        (void)f.eval.rotate({ct}, s);
    u64 serial_ntt = stats.counter(KernelKind::Ntt).elements
        + stats.counter(KernelKind::Intt).elements;
    u64 serial_conv = stats.counter(KernelKind::Conv).elements;

    stats.reset();
    auto out = f.eval.rotateManyBatch({ct}, steps);
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
