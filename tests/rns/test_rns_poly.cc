/**
 * @file
 * Tests for RnsPolynomial: domain moves, elementwise kernels, the
 * FrobeniusMap / automorphism kernel and the key-generation gather.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/rng.hh"
#include "common/stats.hh"
#include "rns/rns_poly.hh"

namespace tensorfhe::rns
{
namespace
{

RnsTower &
tower()
{
    static RnsTower t([] {
        TowerConfig cfg;
        cfg.n = 1 << 7;
        cfg.levels = 3;
        cfg.special = 1;
        return cfg;
    }());
    return t;
}

RnsPolynomial
randomPoly(std::size_t limbs, Domain d, u64 seed)
{
    Rng rng(seed);
    std::vector<std::size_t> idx(limbs);
    for (std::size_t i = 0; i < limbs; ++i)
        idx[i] = i;
    return sampleUniform(tower(), idx, d, rng);
}

TEST(RnsPoly, DomainRoundTrip)
{
    for (auto v : {ntt::NttVariant::Butterfly, ntt::NttVariant::Gemm,
                   ntt::NttVariant::Tensor}) {
        auto a = randomPoly(3, Domain::Coeff, 1);
        auto saved = a;
        a.toEval(v);
        EXPECT_EQ(a.domain(), Domain::Eval);
        a.toCoeff(v);
        for (std::size_t i = 0; i < a.numLimbs(); ++i) {
            for (std::size_t j = 0; j < a.n(); ++j)
                ASSERT_EQ(a.limb(i)[j], saved.limb(i)[j]);
        }
    }
}

TEST(RnsPoly, ToEvalIsIdempotent)
{
    auto a = randomPoly(2, Domain::Coeff, 2);
    a.toEval();
    auto snapshot = a;
    a.toEval(); // no-op
    for (std::size_t i = 0; i < a.numLimbs(); ++i)
        for (std::size_t j = 0; j < a.n(); ++j)
            ASSERT_EQ(a.limb(i)[j], snapshot.limb(i)[j]);
}

TEST(RnsPoly, ElementwiseKernelsMatchScalarMath)
{
    auto a = randomPoly(4, Domain::Eval, 3);
    auto b = randomPoly(4, Domain::Eval, 4);
    auto add = a, sub = a, mul = a;
    eleAddInPlace(add, b);
    eleSubInPlace(sub, b);
    hadaMultInPlace(mul, b);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        u64 q = a.limbModulus(i).value();
        for (std::size_t j = 0; j < a.n(); ++j) {
            EXPECT_EQ(add.limb(i)[j], addMod(a.limb(i)[j], b.limb(i)[j], q));
            EXPECT_EQ(sub.limb(i)[j], subMod(a.limb(i)[j], b.limb(i)[j], q));
            EXPECT_EQ(mul.limb(i)[j], mulMod(a.limb(i)[j], b.limb(i)[j], q));
        }
    }
}

TEST(RnsPoly, NegateIsAdditiveInverse)
{
    auto a = randomPoly(3, Domain::Coeff, 8);
    auto neg = a;
    negateInPlace(neg);
    eleAddInPlace(neg, a);
    for (std::size_t i = 0; i < neg.numLimbs(); ++i)
        for (std::size_t j = 0; j < neg.n(); ++j)
            ASSERT_EQ(neg.limb(i)[j], 0u);
}

TEST(RnsPoly, LiftSignedCentersNegatives)
{
    std::vector<s64> coeffs(tower().n(), 0);
    coeffs[0] = -1;
    coeffs[1] = 1;
    coeffs[2] = -12345;
    auto a = liftSigned(tower(), {0, 1}, coeffs);
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        u64 q = a.limbModulus(i).value();
        EXPECT_EQ(a.limb(i)[0], q - 1);
        EXPECT_EQ(a.limb(i)[1], 1u);
        EXPECT_EQ(a.limb(i)[2], q - 12345);
    }
}

TEST(RnsPoly, AutomorphismCoeffMatchesEvalFrobenius)
{
    // sigma_k in coefficient domain, conjugated through the NTT, must
    // equal the FrobeniusMap permutation in Eval domain.
    auto a = randomPoly(2, Domain::Coeff, 9);
    u64 galois = 5; // generator step used by rotations
    auto coeff_path = applyAutomorphism(a, galois);
    coeff_path.toEval();
    auto eval_path = a;
    eval_path.toEval();
    eval_path = applyAutomorphism(eval_path, galois);
    for (std::size_t i = 0; i < a.numLimbs(); ++i)
        for (std::size_t j = 0; j < a.n(); ++j)
            ASSERT_EQ(coeff_path.limb(i)[j], eval_path.limb(i)[j]);
}

TEST(RnsPoly, AutomorphismComposition)
{
    auto a = randomPoly(2, Domain::Eval, 10);
    u64 m = 2 * tower().n();
    u64 g1 = 5, g2 = 25;
    auto ab = applyAutomorphism(applyAutomorphism(a, g1), g2);
    auto combined = applyAutomorphism(a, (g1 * g2) % m);
    for (std::size_t i = 0; i < a.numLimbs(); ++i)
        for (std::size_t j = 0; j < a.n(); ++j)
            ASSERT_EQ(ab.limb(i)[j], combined.limb(i)[j]);
}

TEST(RnsPoly, AutomorphismIdentity)
{
    auto a = randomPoly(2, Domain::Eval, 11);
    auto id = applyAutomorphism(a, 1);
    for (std::size_t i = 0; i < a.numLimbs(); ++i)
        for (std::size_t j = 0; j < a.n(); ++j)
            ASSERT_EQ(id.limb(i)[j], a.limb(i)[j]);
}

TEST(RnsPoly, PermuteEvalIsTheFrobeniusGatherWithoutALaunch)
{
    // Key generation stores Galois-key digits permuted with
    // permuteEval: the FrobeniusMap gather over the full tower,
    // special limbs included, recorded as no kernel launch. Permuting
    // by the inverse element restores the digits exactly.
    auto a = randomPoly(tower().numTotal(), Domain::Eval, 14);
    u64 m = 2 * tower().n();
    const auto &frob =
        KernelStats::instance().counter(KernelKind::FrobeniusMap);
    for (u64 galois : {u64{5}, u64{25}, m - 1}) {
        SCOPED_TRACE("galois " + std::to_string(galois));
        u64 inverse = 1;
        while (galois * inverse % m != 1)
            inverse += 2;
        u64 calls = frob.invocations.load();
        auto want = applyAutomorphism(a, galois);
        ASSERT_EQ(frob.invocations.load(), calls + 1);
        auto got = permuteEval(a, galois);
        auto back = permuteEval(got, inverse);
        EXPECT_EQ(frob.invocations.load(), calls + 1);
        for (auto [x, y] : {std::pair{&got, &want}, std::pair{&back, &a}}) {
            ASSERT_EQ(x->limbIndices(), y->limbIndices());
            ASSERT_EQ(x->domain(), Domain::Eval);
            for (std::size_t i = 0; i < y->numLimbs(); ++i)
                for (std::size_t j = 0; j < y->n(); ++j)
                    ASSERT_EQ(x->limb(i)[j], y->limb(i)[j])
                        << "limb " << i << " slot " << j;
        }
    }
}

TEST(RnsPoly, DropLimbs)
{
    auto a = randomPoly(4, Domain::Coeff, 12);
    auto saved = a;
    a.dropLastLimbs(2);
    EXPECT_EQ(a.numLimbs(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < a.n(); ++j)
            ASSERT_EQ(a.limb(i)[j], saved.limb(i)[j]);
}

} // namespace
} // namespace tensorfhe::rns
