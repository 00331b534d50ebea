/**
 * @file
 * Context-cached conversion plans: the memoized ModUpPlan/ModDownPlan
 * shapes and result stability across cached reuse.
 */

#include <gtest/gtest.h>

#include "batch/executor.hh"
#include "ckks/crypto.hh"

namespace tensorfhe::ckks
{
namespace
{

struct CacheFixture
{
    CacheFixture()
        : ctx(Presets::tiny()), rng(55), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1, 2, 3})), enc(ctx, keys.pk),
          dec(ctx, sk), eval(ctx, keys)
    {}

    CkksContext ctx;
    Rng rng;
    SecretKey sk;
    KeyBundle keys;
    Encryptor enc;
    Decryptor dec;
    batch::BatchedEvaluator eval;
};

TEST(PlanCache, PlansAreBuiltOnceAndReused)
{
    CacheFixture f;
    EXPECT_EQ(f.ctx.modUpPlanCacheSize(), 0u);
    EXPECT_EQ(f.ctx.modDownPlanCacheSize(), 0u);

    std::vector<Complex> z(f.ctx.slots(), Complex(0.25, 0));
    auto ct = f.enc.encrypt(
        f.ctx.encoder().encode(z, f.ctx.params().scale(),
                               f.ctx.tower().numQ()),
        f.rng);

    (void)f.eval.rotate({ct}, 1);
    std::size_t up_after_one = f.ctx.modUpPlanCacheSize();
    std::size_t down_after_one = f.ctx.modDownPlanCacheSize();
    EXPECT_GT(up_after_one, 0u);
    EXPECT_GT(down_after_one, 0u);

    // Same shapes again: the caches must not grow.
    (void)f.eval.rotate({ct}, 2);
    (void)f.eval.multiply({ct}, {ct}); // relin shares the plans
    EXPECT_EQ(f.ctx.modUpPlanCacheSize(), up_after_one);
    EXPECT_EQ(f.ctx.modDownPlanCacheSize(), down_after_one);

    // A different level introduces new shapes.
    auto dropped = f.eval.dropToLevelCount({ct}, 2);
    (void)f.eval.rotate(dropped, 1);
    EXPECT_GT(f.ctx.modUpPlanCacheSize(), up_after_one);
    EXPECT_GT(f.ctx.modDownPlanCacheSize(), down_after_one);
}

TEST(PlanCache, CachedRotationsAreDeterministic)
{
    CacheFixture f;
    std::vector<Complex> z(f.ctx.slots());
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = Complex(0.001 * static_cast<double>(i % 97), 0);
    auto ct = f.enc.encrypt(
        f.ctx.encoder().encode(z, f.ctx.params().scale(),
                               f.ctx.tower().numQ()),
        f.rng);

    // First call populates every cache; the second must reproduce it
    // bit for bit.
    auto r1 = f.eval.rotate({ct}, 3)[0];
    auto r2 = f.eval.rotate({ct}, 3)[0];
    for (std::size_t i = 0; i < r1.c0.numLimbs(); ++i)
        for (std::size_t c = 0; c < r1.c0.n(); ++c) {
            ASSERT_EQ(r1.c0.limb(i)[c], r2.c0.limb(i)[c]);
            ASSERT_EQ(r1.c1.limb(i)[c], r2.c1.limb(i)[c]);
        }
}

} // namespace
} // namespace tensorfhe::ckks
