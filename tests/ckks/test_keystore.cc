/**
 * @file
 * KeyStore tests: the static view serves exactly its bundle, the
 * on-demand store generates rotation keys lazily with LRU eviction
 * under a tight cap, regeneration after eviction is bit-identical
 * (including the SwitchKey id that keys the context's restricted-key
 * cache), generation is deterministic across stores sharing a seed,
 * a fault-injected keygen retries cleanly, and a dispatcher-backed
 * evaluator over the store rotates correctly with no pre-generated
 * rotation keys at all.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "ckks/keystore.hh"
#include "fault/fault.hh"

namespace tensorfhe::ckks
{
namespace
{

using fault::FaultKind;
using fault::FaultPlan;

struct PlanGuard
{
    ~PlanGuard() { FaultPlan::instance().disarm(); }
};

void
expectPolysEqual(const rns::RnsPolynomial &x,
                 const rns::RnsPolynomial &y, std::size_t digit)
{
    ASSERT_EQ(x.numLimbs(), y.numLimbs());
    for (std::size_t l = 0; l < x.numLimbs(); ++l)
        for (std::size_t c = 0; c < x.n(); ++c)
            ASSERT_EQ(x.limb(l)[c], y.limb(l)[c])
                << "digit " << digit << " limb " << l;
}

void
expectKeysBitIdentical(const SwitchKey &a, const SwitchKey &b)
{
    ASSERT_EQ(a.digits(), b.digits());
    for (std::size_t d = 0; d < a.digits(); ++d) {
        expectPolysEqual(a.b[d], b.b[d], d);
        expectPolysEqual(a.a[d], b.a[d], d);
    }
}

struct Fixture
{
    Fixture()
        : ctx(Presets::tiny()), rng(77), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1, 2}))
    {}

    CkksContext ctx;
    Rng rng;
    SecretKey sk;
    KeyBundle keys;
};

Fixture &
fx()
{
    static Fixture f;
    return f;
}

TEST(KeyStore, StaticViewServesExactlyTheBundle)
{
    auto &f = fx();
    KeyStore store(f.keys);
    EXPECT_FALSE(store.onDemand());

    auto k1 = store.rotation(1);
    ASSERT_NE(k1, nullptr);
    EXPECT_EQ(k1.get(), &f.keys.rot.at(1));
    // Missing steps are null, never generated.
    EXPECT_EQ(store.rotation(7), nullptr);
    EXPECT_EQ(store.generationEvents(), 0u);
    EXPECT_EQ(store.residentGenerated(), 0u);
}

TEST(KeyStore, OnDemandGeneratesPrefersBundleAndEvictsLru)
{
    auto &f = fx();
    KeyStore store(f.ctx, f.sk, f.ctx.generateKeys(f.sk, f.rng, {1}),
                   /*seed=*/9001, /*capacity=*/2);
    EXPECT_TRUE(store.onDemand());

    // A bundle-resident step is served from the bundle, free.
    ASSERT_NE(store.rotation(1), nullptr);
    EXPECT_EQ(store.generationEvents(), 0u);

    // Three generated steps under a cap of two: one eviction.
    auto k3 = store.rotation(3);
    auto k5 = store.rotation(5);
    auto k7 = store.rotation(7);
    ASSERT_NE(k3, nullptr);
    ASSERT_NE(k5, nullptr);
    ASSERT_NE(k7, nullptr);
    EXPECT_EQ(store.generationEvents(), 3u);
    EXPECT_EQ(store.residentGenerated(), 2u);
    EXPECT_EQ(store.evictions(), 1u);

    // The evicted key (3, least recently used) regenerates
    // BIT-identically — contents and id — while the original pin
    // kept the first copy alive for the comparison.
    auto k3_again = store.rotation(3);
    EXPECT_EQ(store.generationEvents(), 4u);
    EXPECT_NE(k3.get(), k3_again.get());
    EXPECT_EQ(k3->id, k3_again->id);
    expectKeysBitIdentical(*k3, *k3_again);

    // A cache hit refreshes recency instead of regenerating.
    auto k7_hit = store.rotation(7);
    EXPECT_EQ(k7_hit.get(), k7.get());
    EXPECT_EQ(store.generationEvents(), 4u);
}

TEST(KeyStore, GenerationIsDeterministicAcrossStores)
{
    auto &f = fx();
    KeyStore a(f.ctx, f.sk, f.ctx.generateKeys(f.sk, f.rng), 42, 0);
    KeyStore b(f.ctx, f.sk, f.ctx.generateKeys(f.sk, f.rng), 42, 0);
    for (s64 step : {s64{1}, s64{3}, s64{6}}) {
        auto ka = a.rotation(step);
        auto kb = b.rotation(step);
        ASSERT_NE(ka, nullptr);
        ASSERT_NE(kb, nullptr);
        expectKeysBitIdentical(*ka, *kb);
    }
}

TEST(KeyStore, TransientKeygenFaultRetriesToABitIdenticalKey)
{
    auto &f = fx();
    PlanGuard guard;
    KeyStore disturbed(f.ctx, f.sk, f.ctx.generateKeys(f.sk, f.rng),
                       2024, 0);
    KeyStore clean(f.ctx, f.sk, f.ctx.generateKeys(f.sk, f.rng),
                   2024, 0);

    // One-shot transient fault at the first keygen attempt: the
    // store retries with a fresh deterministic Rng and the key it
    // finally hands out is identical to an undisturbed generation.
    FaultPlan::instance().arm(
        {"keystore/generate", FaultKind::TransientKernel, 0, 5});
    auto faulted = disturbed.rotation(4);
    EXPECT_TRUE(FaultPlan::instance().fired());
    FaultPlan::instance().disarm();
    ASSERT_NE(faulted, nullptr);

    auto undisturbed = clean.rotation(4);
    ASSERT_NE(undisturbed, nullptr);
    expectKeysBitIdentical(*faulted, *undisturbed);
}

TEST(KeyStore, EvaluatorRotatesThroughAnOnDemandStore)
{
    // No pre-generated rotation keys anywhere: the evaluator pulls
    // every step it needs from the store. This is the mode that lets
    // planner-chosen BSGS strides rotate by arbitrary steps.
    auto &f = fx();
    auto store = std::make_shared<KeyStore>(
        f.ctx, f.sk, f.ctx.generateKeys(f.sk, f.rng), 7, 3);
    batch::BatchedEvaluator eval(f.ctx, store);
    Encryptor enc(f.ctx, fx().keys.pk);
    Decryptor dec(f.ctx, f.sk);

    Rng r(5);
    std::vector<Complex> z(f.ctx.slots());
    for (auto &v : z)
        v = Complex(2 * r.uniformReal() - 1, 0);
    auto pt = f.ctx.encoder().encode(z, f.ctx.params().scale(), 3);
    auto ct = enc.encrypt(pt, r);

    for (s64 step : {s64{1}, s64{3}, s64{5}}) {
        auto rot = eval.rotate({ct}, step);
        auto got = dec.decryptAndDecode(rot[0]);
        for (std::size_t i = 0; i < z.size(); ++i) {
            auto want =
                z[(i + static_cast<std::size_t>(step)) % z.size()];
            ASSERT_NEAR(got[i].real(), want.real(), 1e-3)
                << "step " << step << " slot " << i;
        }
    }
    EXPECT_GE(store->generationEvents(), 3u);
}

} // namespace
} // namespace tensorfhe::ckks
