/**
 * @file
 * Tests for the thread pool: coverage, reuse, nesting, exceptions are
 * out of scope (kernels do not throw mid-flight).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/thread_pool.hh"

namespace tensorfhe
{
namespace
{

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(10000);
    pool.parallelFor(0, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingletonRanges)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor(5, 5, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(7, 8, [&](std::size_t i) {
        EXPECT_EQ(i, 7u);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyInvocations)
{
    ThreadPool pool(2);
    std::atomic<long> total{0};
    for (int round = 0; round < 200; ++round) {
        pool.parallelFor(0, 64,
                         [&](std::size_t i) { total.fetch_add(long(i)); });
    }
    EXPECT_EQ(total.load(), 200L * (63 * 64 / 2));
}

TEST(ThreadPool, NestedCallsFallBackToSequential)
{
    ThreadPool pool(2);
    std::atomic<int> inner{0};
    pool.parallelFor(0, 4, [&](std::size_t) {
        pool.parallelFor(0, 8, [&](std::size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline)
{
    ThreadPool pool(0); // no workers: caller-only serial pool
    EXPECT_EQ(pool.lanes(), 1u);
    std::vector<int> data(257, 0);
    pool.parallelFor(0, data.size(), [&](std::size_t i) { data[i] = 1; });
    EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 257);
}

TEST(ThreadPool, GlobalPoolSingleton)
{
    auto &a = ThreadPool::global();
    auto &b = ThreadPool::global();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.lanes(), 1u);
}

TEST(ThreadPool, ParallelFor2DCoversEveryPairExactlyOnce)
{
    ThreadPool pool(3);
    // Non-power-of-two extents, like a (slot x tower) batch.
    constexpr std::size_t outer = 7, inner = 13;
    std::vector<std::atomic<int>> hits(outer * inner);
    pool.parallelFor2D(outer, inner, [&](std::size_t i, std::size_t j) {
        ASSERT_LT(i, outer);
        ASSERT_LT(j, inner);
        hits[i * inner + j].fetch_add(1);
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelFor2DEmptyExtents)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor2D(0, 5, [&](std::size_t, std::size_t) {
        count.fetch_add(1);
    });
    pool.parallelFor2D(5, 0, [&](std::size_t, std::size_t) {
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, DynamicSchedulingBalancesUnevenTasks)
{
    // A few heavy tasks among many light ones: the shared cursor must
    // still cover everything exactly once (the balance itself is a
    // perf property; correctness is coverage).
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(512);
    pool.parallelFor(0, hits.size(), [&](std::size_t i) {
        if (i % 128 == 0) {
            volatile long sink = 0;
            for (long k = 0; k < 200000; ++k)
                sink = sink + k;
        }
        hits[i].fetch_add(1);
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentExternalDispatchersAreSafe)
{
    // A second thread driving the same pool must degrade gracefully
    // (one dispatcher wins the pool, the other runs inline).
    ThreadPool pool(2);
    std::atomic<long> total{0};
    std::thread other([&] {
        for (int r = 0; r < 50; ++r)
            pool.parallelFor(0, 100, [&](std::size_t i) {
                total.fetch_add(long(i));
            });
    });
    for (int r = 0; r < 50; ++r)
        pool.parallelFor(0, 100, [&](std::size_t i) {
            total.fetch_add(long(i));
        });
    other.join();
    EXPECT_EQ(total.load(), 100L * (99 * 100 / 2));
}

TEST(ThreadPool, BackToBackDispatchesNeverRunAStaleCallback)
{
    // Late-waker regression: a worker that registers on a dispatch
    // just after it returned must not take indices of the next
    // dispatch and run them through the finished dispatch's callback.
    // The callbacks alternate between two live slots, so a stale call
    // lands in its own round's row instead of the new round's: every
    // (round, index) cell must be hit exactly once.
    ThreadPool pool(7);
    constexpr std::size_t kRounds = 4000, kWidth = 16;
    std::vector<std::atomic<int>> hits(kRounds * kWidth);
    std::function<void(std::size_t)> fns[2];
    for (std::size_t r = 0; r < kRounds; ++r) {
        fns[r % 2] = [&hits, r](std::size_t i) {
            hits[r * kWidth + i].fetch_add(1);
        };
        pool.parallelFor(0, kWidth, fns[r % 2]);
    }
    for (std::size_t k = 0; k < hits.size(); ++k)
        ASSERT_EQ(hits[k].load(), 1)
            << "round " << k / kWidth << " index " << k % kWidth;
}

} // namespace
} // namespace tensorfhe
