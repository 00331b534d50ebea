/**
 * @file
 * Canonical-embedding encoder tests: roundtrip precision and, most
 * importantly, the ring homomorphism — negacyclic polynomial
 * multiplication of encodings must equal slotwise multiplication of
 * values. That property is what every CKKS operation relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ckks/context.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace tensorfhe::ckks
{
namespace
{

CkksContext &
ctx()
{
    static CkksContext c(Presets::tiny());
    return c;
}

std::vector<Complex>
randomSlots(std::size_t count, double mag, u64 seed)
{
    Rng rng(seed);
    std::vector<Complex> v(count);
    for (auto &z : v)
        z = Complex(mag * (2 * rng.uniformReal() - 1),
                    mag * (2 * rng.uniformReal() - 1));
    return v;
}

double
maxError(const std::vector<Complex> &a, const std::vector<Complex> &b,
         std::size_t count)
{
    double err = 0;
    for (std::size_t i = 0; i < count; ++i)
        err = std::max(err, std::abs(a[i] - b[i]));
    return err;
}

TEST(Encoder, FftRoundTrip)
{
    auto vals = randomSlots(ctx().slots(), 1.0, 1);
    auto saved = vals;
    ctx().encoder().fftSpecialInv(vals);
    ctx().encoder().fftSpecial(vals);
    EXPECT_LT(maxError(vals, saved, vals.size()), 1e-9);
}

TEST(Encoder, EncodeDecodeRoundTrip)
{
    auto slots = randomSlots(ctx().slots(), 1.0, 2);
    auto pt = ctx().encoder().encode(slots, ctx().params().scale(), 2);
    auto decoded = ctx().encoder().decode(pt);
    // Rounding to integers at scale 2^25 gives ~2^-20 worst case
    // after accumulation across N coefficients.
    EXPECT_LT(maxError(decoded, slots, slots.size()), 1e-4);
}

TEST(Encoder, PartialSlotVectorZeroPads)
{
    std::vector<Complex> three = {Complex(1, 0), Complex(2, -1),
                                  Complex(-0.5, 0.25)};
    auto pt = ctx().encoder().encode(three, ctx().params().scale(), 1);
    auto decoded = ctx().encoder().decode(pt);
    EXPECT_LT(std::abs(decoded[0] - three[0]), 1e-4);
    EXPECT_LT(std::abs(decoded[2] - three[2]), 1e-4);
    for (std::size_t i = 3; i < ctx().slots(); ++i)
        EXPECT_LT(std::abs(decoded[i]), 1e-4);
}

TEST(Encoder, EncodeConstant)
{
    auto pt = ctx().encoder().encodeConstant(Complex(2.5, 0),
                                             ctx().params().scale(), 2);
    auto decoded = ctx().encoder().decode(pt);
    for (std::size_t i = 0; i < ctx().slots(); ++i)
        ASSERT_LT(std::abs(decoded[i] - Complex(2.5, 0)), 1e-4);
}

TEST(Encoder, RealConstantMatchesEncodeWithoutAnNtt)
{
    // A real constant skips the FFT and the NTT: its residues must be
    // exactly those of encode() of the constant vector, on every
    // level count, and no NTT may run. A complex constant keeps the
    // full path.
    const auto &enc = ctx().encoder();
    const auto &ntt = KernelStats::instance().counter(KernelKind::Ntt);
    double pts = ctx().params().scale();
    for (double c : {0.0, 1.0, -1.0, 2.5, -0.3, 1e-3, -M_PI, 123.456,
                     -7.25, 0.5 / 3.0})
        for (double scale : {1.0, pts, 3.0 * pts, std::exp2(40)})
            for (std::size_t lc = 1; lc <= ctx().tower().numQ();
                 ++lc) {
                auto full = enc.encode(
                    std::vector<Complex>(ctx().slots(), Complex(c, 0)),
                    scale, lc);
                u64 ntts = ntt.invocations.load();
                auto fast = enc.encodeConstant(Complex(c, 0), scale, lc);
                ASSERT_EQ(ntt.invocations.load(), ntts)
                    << c << " at scale " << scale;
                ASSERT_EQ(fast.scale, full.scale);
                ASSERT_EQ(fast.poly.domain(), full.poly.domain());
                ASSERT_EQ(fast.levelCount(), lc);
                for (std::size_t l = 0; l < lc; ++l)
                    for (std::size_t k = 0; k < ctx().n(); ++k)
                        ASSERT_EQ(fast.poly.limb(l)[k],
                                  full.poly.limb(l)[k])
                            << c << " at scale " << scale << ", limb "
                            << l << " of " << lc;
            }
    auto minus_i = enc.encodeConstant(Complex(0, -1), 1.0, 2);
    auto decoded = enc.decode(minus_i);
    EXPECT_LT(std::abs(decoded[0] - Complex(0, -1)), 1e-9);
}

TEST(Encoder, MultiplicationHomomorphism)
{
    // decode(encode(z1) * encode(z2)) == z1 had z2 at scale^2 —
    // validates the embedding against the ring structure.
    auto z1 = randomSlots(ctx().slots(), 1.0, 3);
    auto z2 = randomSlots(ctx().slots(), 1.0, 4);
    double scale = ctx().params().scale();
    auto p1 = ctx().encoder().encode(z1, scale, 2);
    auto p2 = ctx().encoder().encode(z2, scale, 2);
    rns::hadaMultInPlace(p1.poly, p2.poly);
    p1.scale = scale * scale;
    auto decoded = ctx().encoder().decode(p1);
    std::vector<Complex> expect(ctx().slots());
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect[i] = z1[i] * z2[i];
    EXPECT_LT(maxError(decoded, expect, expect.size()), 1e-3);
}

TEST(Encoder, AdditionHomomorphism)
{
    auto z1 = randomSlots(ctx().slots(), 1.0, 5);
    auto z2 = randomSlots(ctx().slots(), 1.0, 6);
    double scale = ctx().params().scale();
    auto p1 = ctx().encoder().encode(z1, scale, 1);
    auto p2 = ctx().encoder().encode(z2, scale, 1);
    rns::eleAddInPlace(p1.poly, p2.poly);
    auto decoded = ctx().encoder().decode(p1);
    std::vector<Complex> expect(ctx().slots());
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect[i] = z1[i] + z2[i];
    EXPECT_LT(maxError(decoded, expect, expect.size()), 1e-4);
}

TEST(Encoder, FrobeniusMapRotatesSlots)
{
    // applyAutomorphism with galois 5^r rotates the slot vector —
    // the plaintext-side mirror of HROTATE.
    auto z = randomSlots(ctx().slots(), 1.0, 7);
    auto pt = ctx().encoder().encode(z, ctx().params().scale(), 1);
    auto rotated = rns::applyAutomorphism(pt.poly,
                                          ctx().galoisForRotation(1));
    auto decoded = ctx().encoder().decode(Plaintext{rotated, pt.scale});
    for (std::size_t i = 0; i < ctx().slots(); ++i) {
        ASSERT_LT(std::abs(decoded[i] - z[(i + 1) % ctx().slots()]),
                  1e-4)
            << "slot " << i;
    }
}

TEST(Encoder, ConjugationMapConjugatesSlots)
{
    auto z = randomSlots(ctx().slots(), 1.0, 8);
    auto pt = ctx().encoder().encode(z, ctx().params().scale(), 1);
    auto conj = rns::applyAutomorphism(pt.poly,
                                       ctx().galoisForConjugation());
    auto decoded = ctx().encoder().decode(Plaintext{conj, pt.scale});
    for (std::size_t i = 0; i < ctx().slots(); ++i)
        ASSERT_LT(std::abs(decoded[i] - std::conj(z[i])), 1e-4);
}

TEST(Encoder, RejectsBadInput)
{
    std::vector<Complex> too_many(ctx().slots() + 1);
    EXPECT_THROW(ctx().encoder().encode(too_many, 1024.0, 1),
                 std::invalid_argument);
    std::vector<Complex> ok(4);
    EXPECT_THROW(ctx().encoder().encode(ok, -1.0, 1),
                 std::invalid_argument);
    EXPECT_THROW(ctx().encoder().encode(ok, 1024.0, 99),
                 std::invalid_argument);
}

} // namespace
} // namespace tensorfhe::ckks
