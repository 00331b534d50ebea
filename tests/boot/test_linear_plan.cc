/**
 * @file
 * LinearTransformPlan tests: BSGS evaluation against the plain
 * reference, the baby/giant shape of the required rotation keys, and
 * the per-level encoded-diagonal cache.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "batch/executor.hh"
#include "boot/linear.hh"

namespace tensorfhe::boot
{
namespace
{

/** A sparse test matrix touching a representative set of diagonals. */
SlotMatrix
sparseMatrix(std::size_t slots, u64 seed)
{
    std::vector<std::size_t> ds = {0, 1, 5, 17, 100, slots - 1};
    Rng r(seed);
    SlotMatrix m(slots, std::vector<Complex>(slots, Complex(0, 0)));
    for (std::size_t d : ds) {
        if (d >= slots)
            continue;
        for (std::size_t j = 0; j < slots; ++j)
            m[j][(j + d) % slots] =
                Complex(r.uniformReal() - 0.5, r.uniformReal() - 0.5);
    }
    return m;
}

struct PlanFixture
{
    PlanFixture()
        : ctx(ckks::Presets::tiny()), rng(91),
          sk(ctx.generateSecretKey(rng)),
          plan(ctx, sparseMatrix(ctx.slots(), 4)),
          keys(ctx.generateKeys(sk, rng, plan.requiredRotations())),
          enc(ctx, keys.pk), dec(ctx, sk), eval(ctx, keys)
    {}

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    LinearTransformPlan plan;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    ckks::Decryptor dec;
    batch::BatchedEvaluator eval;
};

PlanFixture &
fx()
{
    static PlanFixture f;
    return f;
}

std::vector<Complex>
randomSlots(std::size_t n, double mag, u64 seed)
{
    Rng r(seed);
    std::vector<Complex> z(n);
    for (auto &v : z)
        v = Complex(mag * (2 * r.uniformReal() - 1),
                    mag * (2 * r.uniformReal() - 1));
    return z;
}

TEST(LinearPlan, MatchesApplyPlainReference)
{
    auto &f = fx();
    std::size_t slots = f.ctx.slots();
    auto z = randomSlots(slots, 0.5, 7);
    auto ct = f.enc.encrypt(
        f.ctx.encoder().encode(z, f.ctx.params().scale(), 3), f.rng);

    auto got_ct = f.plan.applyBatch(f.eval, {ct});
    auto got = f.dec.decryptAndDecode(got_ct[0]);
    auto expect = applyPlain(sparseMatrix(slots, 4), z);
    double mag = 0;
    for (const auto &v : expect)
        mag = std::max(mag, std::abs(v));
    for (std::size_t j = 0; j < slots; ++j)
        ASSERT_LT(std::abs(got[j] - expect[j]), 2e-2 * mag)
            << "slot " << j;
}

TEST(LinearPlan, RequiredRotationsAreBabyOrGiantSteps)
{
    auto &f = fx();
    std::size_t g = f.plan.giantStride();
    std::size_t slots = f.ctx.slots();
    auto steps = f.plan.requiredRotations();
    EXPECT_FALSE(steps.empty());
    // BSGS needs O(sqrt(slots)) keys, not one per diagonal.
    EXPECT_LE(steps.size(), 2 * g);
    for (s64 s : steps) {
        ASSERT_GT(s, 0);
        ASSERT_LT(static_cast<std::size_t>(s), slots);
        EXPECT_TRUE(static_cast<std::size_t>(s) < g
                    || static_cast<std::size_t>(s) % g == 0)
            << "step " << s;
    }
}

TEST(LinearPlan, DiagonalCountSkipsEmptyDiagonals)
{
    auto &f = fx();
    EXPECT_EQ(f.plan.diagonalCount(), 6u);
}

TEST(LinearPlan, EncodedDiagonalsCachedPerLevel)
{
    // A fresh plan so earlier tests' cache entries don't interfere.
    auto &f = fx();
    LinearTransformPlan plan(f.ctx, sparseMatrix(f.ctx.slots(), 4));
    EXPECT_EQ(plan.cachedLevelCount(), 0u);

    auto z = randomSlots(f.ctx.slots(), 0.5, 9);
    auto ct3 = f.enc.encrypt(
        f.ctx.encoder().encode(z, f.ctx.params().scale(), 3), f.rng);
    (void)plan.applyBatch(f.eval, {ct3});
    EXPECT_EQ(plan.cachedLevelCount(), 1u);
    (void)plan.applyBatch(f.eval, {ct3}); // same level: no new encodings
    EXPECT_EQ(plan.cachedLevelCount(), 1u);

    auto ct2 = f.enc.encrypt(
        f.ctx.encoder().encode(z, f.ctx.params().scale(), 2), f.rng);
    (void)plan.applyBatch(f.eval, {ct2});
    EXPECT_EQ(plan.cachedLevelCount(), 2u);
}

} // namespace
} // namespace tensorfhe::boot
