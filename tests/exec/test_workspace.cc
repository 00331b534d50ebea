/**
 * @file
 * Workspace arena tests: checkout/return cycling, steady-state reuse,
 * best-fit bucketing, detach semantics, and concurrent checkout from
 * a full worker pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/errors.hh"
#include "common/thread_pool.hh"
#include "exec/workspace.hh"
#include "fault/fault.hh"
#include "rns/tower.hh"

namespace tensorfhe::exec
{
namespace
{

rns::RnsTower &
tower()
{
    static rns::RnsTower t([] {
        rns::TowerConfig cfg;
        cfg.n = 64;
        cfg.levels = 3;
        cfg.special = 1;
        return cfg;
    }());
    return t;
}

std::vector<std::size_t>
limbs(std::size_t count)
{
    std::vector<std::size_t> idx(count);
    for (std::size_t i = 0; i < count; ++i)
        idx[i] = i;
    return idx;
}

TEST(Workspace, CheckoutReturnsZeroedPoly)
{
    Workspace ws(tower());
    auto p = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(p->numLimbs(), 2u);
    EXPECT_EQ(p->domain(), rns::Domain::Eval);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t c = 0; c < p->n(); ++c)
            ASSERT_EQ(p->limb(i)[c], 0u);
}

TEST(Workspace, SteadyStateReusesInsteadOfAllocating)
{
    Workspace ws(tower());
    // Warm-up: one allocation enters the pool on release.
    { auto p = ws.zeros(limbs(3), rns::Domain::Coeff); }
    ws.resetStats();
    for (int round = 0; round < 10; ++round) {
        auto p = ws.zeros(limbs(3), rns::Domain::Coeff);
        p->limb(0)[0] = 7; // dirty it; next checkout must re-zero
    }
    auto s = ws.stats();
    EXPECT_EQ(s.allocs, 0u);
    EXPECT_EQ(s.reuses, 10u);
    EXPECT_EQ(s.returns, 10u);
    EXPECT_DOUBLE_EQ(s.reuseRate(), 1.0);
    // Re-zeroing on checkout.
    auto p = ws.zeros(limbs(3), rns::Domain::Coeff);
    EXPECT_EQ(p->limb(0)[0], 0u);
}

TEST(Workspace, ReusedBufferServesSmallerShapes)
{
    Workspace ws(tower());
    { auto big = ws.zeros(limbs(4), rns::Domain::Coeff); }
    ws.resetStats();
    auto small = ws.zeros(limbs(1), rns::Domain::Coeff);
    EXPECT_EQ(ws.stats().reuses, 1u);
    EXPECT_EQ(ws.stats().allocs, 0u);
    EXPECT_EQ(small->numLimbs(), 1u);
}

TEST(Workspace, BestFitPrefersSmallestSufficientBuffer)
{
    Workspace ws(tower());
    // Two pooled buffers of different capacity: held live together so
    // both allocate, then both return to the pool.
    {
        auto big = ws.zeros(limbs(4), rns::Domain::Coeff);
        auto small = ws.zeros(limbs(1), rns::Domain::Coeff);
    }
    ws.resetStats();
    // A 1-limb checkout must take the 1-limb buffer, leaving the
    // 4-limb one for a later large checkout (no fresh allocation).
    auto a = ws.zeros(limbs(1), rns::Domain::Coeff);
    auto b = ws.zeros(limbs(4), rns::Domain::Coeff);
    EXPECT_EQ(ws.stats().allocs, 0u);
    EXPECT_EQ(ws.stats().reuses, 2u);
}

/** Capacity, in u64 words, of the buffer behind a lease. */
std::size_t
leaseCapacity(Workspace::Pooled &p)
{
    return p.detach().takeStorage().capacity();
}

TEST(Workspace, BestFitAmongMixedCapacitiesTakesTheSmallestFit)
{
    Workspace ws(tower());
    std::size_t n = tower().n();
    {
        // Returned out of capacity order: 4, 1, 3, 2 limbs.
        auto a = ws.zeros(limbs(4), rns::Domain::Coeff);
        auto b = ws.zeros(limbs(1), rns::Domain::Coeff);
        auto c = ws.zeros(limbs(3), rns::Domain::Coeff);
        auto d = ws.zeros(limbs(2), rns::Domain::Coeff);
    }
    ws.resetStats();
    auto two = ws.zeros(limbs(2), rns::Domain::Coeff);
    EXPECT_EQ(leaseCapacity(two), 2 * n);
    // With the 2-limb buffer gone, the next 2-limb checkout takes the
    // 3-limb one, not the 4-limb one.
    auto next = ws.zeros(limbs(2), rns::Domain::Coeff);
    EXPECT_EQ(leaseCapacity(next), 3 * n);
    EXPECT_EQ(ws.stats().reuses, 2u);
    EXPECT_EQ(ws.stats().allocs, 0u);
}

TEST(Workspace, TooSmallBufferIsNeverReturned)
{
    Workspace ws(tower());
    {
        auto a = ws.zeros(limbs(1), rns::Domain::Coeff);
        auto b = ws.zeros(limbs(2), rns::Domain::Coeff);
    }
    ws.resetStats();
    auto big = ws.zeros(limbs(3), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().allocs, 1u);
    EXPECT_EQ(ws.stats().reuses, 0u);
    EXPECT_EQ(leaseCapacity(big), 3 * tower().n());
    // The small buffers are still pooled.
    auto a = ws.zeros(limbs(1), rns::Domain::Coeff);
    auto b = ws.zeros(limbs(2), rns::Domain::Coeff);
    EXPECT_EQ(ws.stats().reuses, 2u);
    EXPECT_EQ(ws.stats().allocs, 1u);
}

/** Check out `count` distinct buffers of `limb_count` limbs, then
    release each on its own concurrently live thread, so they land in
    those threads' shards rather than the caller's. */
void
releaseOnOtherThreads(Workspace &ws, std::size_t count,
                      std::size_t limb_count)
{
    std::vector<Workspace::Pooled> held;
    for (std::size_t i = 0; i < count; ++i)
        held.push_back(ws.zeros(limbs(limb_count), rns::Domain::Coeff));
    std::vector<std::thread> threads;
    for (auto &p : held)
        threads.emplace_back(
            [&p] { Workspace::Pooled dead = std::move(p); });
    for (auto &t : threads)
        t.join();
}

TEST(Workspace, CheckoutStealsFromOtherShards)
{
    Workspace ws(tower());
    releaseOnOtherThreads(ws, 8, 2);
    ws.resetStats();
    // Whichever shards the releases landed in, the caller's checkouts
    // find all of them before paying the allocator.
    std::vector<Workspace::Pooled> held;
    for (std::size_t i = 0; i < 8; ++i)
        held.push_back(ws.zeros(limbs(2), rns::Domain::Coeff));
    EXPECT_EQ(ws.stats().reuses, 8u);
    EXPECT_EQ(ws.stats().allocs, 0u);
}

TEST(Workspace, TrimEmptiesEveryShard)
{
    Workspace ws(tower());
    releaseOnOtherThreads(ws, 8, 2);
    { auto mine = ws.zeros(limbs(2), rns::Domain::Coeff); }
    auto donated = ws.zeros(limbs(2), rns::Domain::Coeff).detach();
    ws.donate(std::move(donated));
    ws.trim();
    ws.resetStats();
    std::vector<Workspace::Pooled> held;
    for (std::size_t i = 0; i < 10; ++i)
        held.push_back(ws.zeros(limbs(1), rns::Domain::Coeff));
    EXPECT_EQ(ws.stats().allocs, 10u);
    EXPECT_EQ(ws.stats().reuses, 0u);
    (void)ws.output(limbs(1), rns::Domain::Coeff);
    EXPECT_EQ(ws.stats().reuses, 0u);
}

TEST(Workspace, OutputsDrawOnlyDonatedBuffers)
{
    Workspace ws(tower());
    // A released lease is scratch: an output must not take it.
    { auto scratch = ws.zeros(limbs(2), rns::Domain::Eval); }
    ws.resetStats();
    auto fresh = ws.output(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().reuses, 0u);
    EXPECT_EQ(ws.stats().allocs, 0u); // an output is not arena scratch
    // A donated buffer is drained by the next output, unzeroed:
    // every caller writes each limb of its output.
    fresh.limb(0)[0] = 5;
    ws.donate(std::move(fresh));
    auto out = ws.output(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().reuses, 1u);
    EXPECT_EQ(out.limb(0)[0], 5u);
    EXPECT_EQ(out.domain(), rns::Domain::Eval);
    // The scratch buffer is still there for the next checkout.
    auto p = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().reuses, 2u);
    EXPECT_EQ(ws.stats().allocs, 0u);
}

TEST(Workspace, ForOverwriteSkipsTheZeroFill)
{
    Workspace ws(tower());
    {
        auto p = ws.zeros(limbs(2), rns::Domain::Eval);
        p->limb(1)[3] = 7;
    }
    {
        // The reused buffer comes back as it was left.
        auto p = ws.forOverwrite(limbs(2), rns::Domain::Coeff);
        EXPECT_EQ(p->numLimbs(), 2u);
        EXPECT_EQ(p->domain(), rns::Domain::Coeff);
        EXPECT_EQ(p->limb(1)[3], 7u);
    }
    auto z = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(z->limb(1)[3], 0u);
    EXPECT_EQ(ws.stats().allocs, 1u);
    EXPECT_EQ(ws.stats().reuses, 2u);
}

TEST(Workspace, PoisonFillsEveryPooledBufferToItsCapacity)
{
    constexpr u64 kSentinel = ~u64(0);
    Workspace ws(tower());
    // A three-limb buffer released at one limb: its size is one limb,
    // its capacity three.
    { auto wide = ws.zeros(limbs(3), rns::Domain::Eval); }
    { auto narrow = ws.forOverwrite(limbs(1), rns::Domain::Eval); }
    ws.donate(ws.output(limbs(2), rns::Domain::Eval));
    ws.poison(kSentinel);

    auto all = [&](const rns::RnsPolynomial &p) {
        for (std::size_t i = 0; i < p.numLimbs(); ++i)
            for (std::size_t c = 0; c < p.n(); ++c)
                if (p.limb(i)[c] != kSentinel)
                    return false;
        return true;
    };
    auto scratch = ws.forOverwrite(limbs(3), rns::Domain::Eval);
    EXPECT_TRUE(all(*scratch));
    EXPECT_TRUE(all(ws.output(limbs(2), rns::Domain::Eval)));
    EXPECT_EQ(ws.stats().allocs, 1u);
}

TEST(Workspace, LeaseTrackingNamesSitesAfterInducedAllocFault)
{
    Workspace ws(tower());
    ws.setLeaseTracking(true);
    struct Disarm
    {
        ~Disarm() { fault::FaultPlan::instance().disarm(); }
    } disarm;
    {
        auto held = ws.zeros(limbs(2), rns::Domain::Eval, "test/held");
        fault::FaultPlan::instance().arm(
            {"workspace/alloc", fault::FaultKind::AllocFail, 0, 1});
        EXPECT_THROW(ws.zeros(limbs(2), rns::Domain::Eval, "test/failed"),
                     TransientFault);
        fault::FaultPlan::instance().disarm();
        auto by_site = ws.outstandingBySite();
        EXPECT_EQ(by_site.size(), 1u);
        EXPECT_EQ(by_site["test/held"], 1u);
        // The arena stays usable after the fault.
        auto after = ws.zeros(limbs(1), rns::Domain::Eval, "test/after");
        EXPECT_EQ(ws.outstandingLeases(), 2u);
        EXPECT_EQ(ws.outstandingBySite()["test/after"], 1u);
    }
    EXPECT_EQ(ws.outstandingLeases(), 0u);
    EXPECT_TRUE(ws.outstandingBySite().empty());
}

TEST(Workspace, DetachLeavesArenaUntouched)
{
    Workspace ws(tower());
    ws.resetStats();
    rns::RnsPolynomial kept;
    {
        auto p = ws.zeros(limbs(2), rns::Domain::Eval);
        p->limb(0)[1] = 42;
        kept = p.detach();
    }
    EXPECT_EQ(ws.stats().returns, 0u); // detached storage never returns
    EXPECT_EQ(kept.limb(0)[1], 42u);
    ws.resetStats();
    auto p = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().allocs, 1u); // nothing pooled to reuse
}

TEST(Workspace, TrimDropsPooledBuffers)
{
    Workspace ws(tower());
    { auto p = ws.zeros(limbs(2), rns::Domain::Eval); }
    ws.trim();
    ws.resetStats();
    auto p = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().allocs, 1u);
    EXPECT_EQ(ws.stats().reuses, 0u);
}

TEST(Workspace, ConcurrentCheckoutFromFullPool)
{
    // ThreadSanitizer-style stress: every lane hammers checkout /
    // write / release concurrently; counters must balance exactly and
    // no lane may observe another lane's writes (buffers are
    // exclusively owned between checkout and release).
    Workspace ws(tower());
    ThreadPool &pool = ThreadPool::global();
    constexpr std::size_t kLanes = 16;
    constexpr std::size_t kIters = 200;
    std::atomic<u64> bad{0};
    pool.parallelFor(0, kLanes, [&](std::size_t lane) {
        for (std::size_t it = 0; it < kIters; ++it) {
            auto p = ws.zeros(limbs(1 + (it % 4)), rns::Domain::Coeff);
            u64 tag = lane * 1000 + it;
            for (std::size_t i = 0; i < p->numLimbs(); ++i)
                p->limb(i)[0] = tag;
            for (std::size_t i = 0; i < p->numLimbs(); ++i)
                if (p->limb(i)[0] != tag)
                    bad.fetch_add(1);
        }
    });
    EXPECT_EQ(bad.load(), 0u);
    auto s = ws.stats();
    EXPECT_EQ(s.allocs + s.reuses, kLanes * kIters);
    EXPECT_EQ(s.returns, kLanes * kIters);
}

} // namespace
} // namespace tensorfhe::exec
