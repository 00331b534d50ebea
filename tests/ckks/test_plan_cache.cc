/**
 * @file
 * Context-cached conversion plans and key restrictions: the memoized
 * ModUpPlan/ModDownPlan shapes, the (key, level, Galois element)
 * restriction cache, switch-key identities, and result stability
 * across cached reuse.
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

TEST(PlanCache, SwitchKeysCarryUniqueIds)
{
    CacheFixture f;
    EXPECT_NE(f.keys.relin.id, 0u);
    EXPECT_NE(f.keys.conj.id, 0u);
    EXPECT_NE(f.keys.relin.id, f.keys.conj.id);
    for (const auto &[step, key] : f.keys.rot) {
        EXPECT_NE(key.id, 0u);
        EXPECT_NE(key.id, f.keys.relin.id);
    }
}

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

TEST(PlanCache, KeyRestrictionsAreMemoizedPerKeyAndLevel)
{
    CacheFixture f;
    std::size_t lc = f.ctx.tower().numQ();
    auto a = f.ctx.restrictedKey(f.keys.relin, lc);
    auto b = f.ctx.restrictedKey(f.keys.relin, lc);
    EXPECT_EQ(a.get(), b.get()); // cache hit returns the same object
    EXPECT_EQ(f.ctx.keyRestrictionCacheSize(), 1u);

    auto c = f.ctx.restrictedKey(f.keys.relin, lc - 1);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(f.ctx.keyRestrictionCacheSize(), 2u);

    // An id-less key is never cached.
    SwitchKey anon;
    anon.b = f.keys.relin.b;
    anon.a = f.keys.relin.a;
    auto d = f.ctx.restrictedKey(anon, lc);
    EXPECT_EQ(f.ctx.keyRestrictionCacheSize(), 2u);
    ASSERT_EQ(d->b.size(), a->b.size());
}

TEST(PlanCache, KeyRestrictionsArePrePermutedPerGaloisElement)
{
    CacheFixture f;
    std::size_t lc = f.ctx.tower().numQ();
    const SwitchKey &key = f.keys.rot.at(3);
    u64 g = f.ctx.galoisForRotation(3);
    u64 g_inv = f.ctx.galoisInverse(g);

    auto plain = f.ctx.restrictedKey(key, lc, 1);
    auto permuted = f.ctx.restrictedKey(key, lc, g);
    EXPECT_NE(plain.get(), permuted.get());
    EXPECT_EQ(f.ctx.keyRestrictionCacheSize(), 2u);
    EXPECT_EQ(f.ctx.restrictedKey(key, lc).get(), plain.get());
    EXPECT_EQ(f.ctx.restrictedKey(key, lc, g).get(), permuted.get());
    EXPECT_EQ(f.ctx.keyRestrictionCacheSize(), 2u);

    // The g entry holds the galois-1 digits permuted by g^-1.
    ASSERT_EQ(permuted->b.size(), plain->b.size());
    for (std::size_t j = 0; j < plain->b.size(); ++j) {
        for (auto [got, base] :
             {std::pair{&permuted->b[j], &plain->b[j]},
              std::pair{&permuted->a[j], &plain->a[j]}}) {
            auto want = rns::applyAutomorphism(*base, g_inv);
            ASSERT_EQ(got->limbIndices(), want.limbIndices());
            for (std::size_t i = 0; i < want.numLimbs(); ++i)
                for (std::size_t c = 0; c < want.n(); ++c)
                    ASSERT_EQ(got->limb(i)[c], want.limb(i)[c])
                        << "digit " << j << " limb " << i;
        }
    }

    u64 m = 2 * f.ctx.n();
    std::vector<u64> elements = {f.ctx.galoisForConjugation()};
    for (const auto &[step, rot] : f.keys.rot) {
        elements.push_back(f.ctx.galoisForRotation(step));
        elements.push_back(f.ctx.galoisForConjRotation(step));
    }
    for (u64 e : elements)
        EXPECT_EQ(e * f.ctx.galoisInverse(e) % m, 1u) << "element " << e;
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
