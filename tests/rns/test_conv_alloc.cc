/**
 * @file
 * Steady-state basis conversions make no limb-sized allocation: after
 * one warm-up call, ModUpPlan/ModDownPlan::applyBatchInto must not
 * allocate any buffer of n words or more — the converted limbs go
 * straight into the caller's preshaped outputs and multi-limb sources
 * reuse their scale scratch. A counting global operator new (local to
 * this test executable) observes every allocation on every thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "rns/conv.hh"

namespace
{

/** Allocations of at least this many bytes are counted. */
std::atomic<std::size_t> gThreshold{static_cast<std::size_t>(-1)};
std::atomic<std::size_t> gLarge{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (size >= gThreshold.load(std::memory_order_relaxed))
        gLarge.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// Out of line so the compiler never pairs an inlined free() with an
// operator new call site (a false -Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    operator delete(p);
}

namespace tensorfhe::rns
{
namespace
{

constexpr std::size_t kN = 1 << 12;

RnsTower
makeTower(int special)
{
    TowerConfig cfg;
    cfg.n = kN;
    cfg.levels = 6; // 7 q-limbs
    cfg.special = special;
    return RnsTower(cfg);
}

/** Batch inputs and preshaped outputs with their pointer views. */
struct Batch
{
    std::vector<RnsPolynomial> in, out;
    std::vector<const RnsPolynomial *> inPtrs;
    std::vector<RnsPolynomial *> outPtrs;

    Batch(const RnsTower &tw, const std::vector<std::size_t> &in_limbs,
          const std::vector<std::size_t> &out_limbs, std::size_t slots)
    {
        Rng rng(slots);
        for (std::size_t b = 0; b < slots; ++b) {
            in.push_back(sampleUniform(tw, in_limbs, Domain::Coeff, rng));
            out.emplace_back(tw, out_limbs, Domain::Coeff);
        }
        for (std::size_t b = 0; b < slots; ++b) {
            inPtrs.push_back(&in[b]);
            outPtrs.push_back(&out[b]);
        }
    }
};

/** Limb-sized allocations made by `call`, run once after a warm-up. */
template <class F>
std::size_t
limbAllocsAfterWarmup(F call)
{
    call();
    gLarge = 0;
    gThreshold = kN * sizeof(u64);
    call();
    gThreshold = static_cast<std::size_t>(-1);
    return gLarge.load();
}

std::vector<std::size_t>
unionLimbs(const RnsTower &tw, std::size_t level_count)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < level_count; ++i)
        out.push_back(i);
    for (std::size_t k = 0; k < tw.numP(); ++k)
        out.push_back(tw.specialIndex(k));
    return out;
}

TEST(ConvAlloc, ModUpBatchIntoAllocatesNoLimbBuffer)
{
    RnsTower tw = makeTower(1);
    ThreadPool pool(3);
    ModUpPlan plan(tw, {3}, tw.numQ());
    Batch batch(tw, {3}, plan.unionLimbs(), 16);
    EXPECT_EQ(limbAllocsAfterWarmup([&] {
                  plan.applyBatchInto(batch.inPtrs, batch.outPtrs.data(),
                                      &pool);
              }),
              0u);
}

TEST(ConvAlloc, ModDownBatchIntoAllocatesNoLimbBuffer)
{
    RnsTower tw = makeTower(1);
    ThreadPool pool(3);
    auto union_limbs = unionLimbs(tw, tw.numQ());
    ModDownPlan plan(tw, union_limbs);
    Batch batch(tw, union_limbs, plan.qLimbs(), 32);
    EXPECT_EQ(limbAllocsAfterWarmup([&] {
                  plan.applyBatchInto(batch.inPtrs, batch.outPtrs.data(),
                                      &pool);
              }),
              0u);
}

TEST(ConvAlloc, MultiLimbSourcesReuseTheirScaleScratch)
{
    // A 2-limb digit (scaled ModUp rows) and a 2-special-prime tower
    // (scaled ModDown rows), on a pool with one worker.
    RnsTower tw = makeTower(2);
    ThreadPool pool(1);
    ModUpPlan up(tw, {2, 3}, tw.numQ());
    Batch ups(tw, {2, 3}, up.unionLimbs(), 4);
    EXPECT_EQ(limbAllocsAfterWarmup([&] {
                  up.applyBatchInto(ups.inPtrs, ups.outPtrs.data(), &pool);
              }),
              0u);

    auto union_limbs = unionLimbs(tw, tw.numQ());
    ModDownPlan down(tw, union_limbs);
    Batch downs(tw, union_limbs, down.qLimbs(), 4);
    EXPECT_EQ(limbAllocsAfterWarmup([&] {
                  down.applyBatchInto(downs.inPtrs, downs.outPtrs.data(),
                                      &pool);
              }),
              0u);
}

} // namespace
} // namespace tensorfhe::rns
