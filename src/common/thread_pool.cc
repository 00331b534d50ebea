#include "common/thread_pool.hh"

#include "common/logging.hh"
#include "trace/trace.hh"

namespace tensorfhe
{

namespace
{

/** Pool this thread is currently executing tasks for (reentrancy guard). */
thread_local const ThreadPool *tl_current_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(std::size_t workers)
{
    if (workers == kAutoWorkers) {
        unsigned hw = std::thread::hardware_concurrency();
        workers = hw > 1 ? hw - 1 : 0;
    }
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stop_ = true;
    }
    cvStart_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::drainBatch(const Batch &b)
{
    trace::TraceSpan tsp("pool", "drain");
    tsp.arg("chunk", static_cast<s64>(b.chunk))
        .arg("end", static_cast<s64>(b.end));
    const ThreadPool *prev = tl_current_pool;
    tl_current_pool = this;
    for (;;) {
        std::size_t i =
            cursor_.fetch_add(b.chunk, std::memory_order_relaxed);
        if (i >= b.end)
            break;
        std::size_t e = i + b.chunk < b.end ? i + b.chunk : b.end;
        for (; i < e; ++i)
            (*b.fn)(i);
    }
    tl_current_pool = prev;
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &fn)
{
    if (begin >= end)
        return;
    std::size_t n = end - begin;
    std::size_t nlanes = lanes();
    // Serial fallbacks: tiny range, no workers, a nested call from a
    // pool lane, or another thread already driving this pool.
    if (nlanes == 1 || n == 1 || tl_current_pool == this) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    if (!dispatchMtx_.try_lock()) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    std::lock_guard<std::mutex> dispatch(dispatchMtx_, std::adopt_lock);

    // Chunked dynamic scheduling: ~4 chunks per lane balances pull
    // overhead against load imbalance across heterogeneous tasks.
    std::size_t chunk = n / (4 * nlanes);
    if (chunk == 0)
        chunk = 1;
    std::size_t num_chunks = (n + chunk - 1) / chunk;
    Batch b;
    {
        // A worker that woke late for the previous batch may still be
        // registered on it. Publishing now would reset the cursor under
        // it and hand it this batch's indices to run with the previous
        // batch's dead callback, so wait until it has left.
        std::unique_lock<std::mutex> lk(mtx_);
        cvDone_.wait(lk, [this] { return activeDrainers_ == 0; });
        batch_ = {end, chunk, &fn};
        cursor_.store(begin, std::memory_order_relaxed);
        ++generation_;
        b = batch_;
    }
    // Wake only as many workers as there are chunks; a small dispatch
    // must not pay a full-pool rendezvous. Workers that miss a notify
    // re-check the generation before sleeping, so work is never lost.
    std::size_t to_wake = std::min(workers_.size(), num_chunks);
    for (std::size_t i = 0; i < to_wake; ++i)
        cvStart_.notify_one();

    drainBatch(b);

    // Wait only for workers actually inside this batch (they register
    // in activeDrainers_ under the lock before touching the cursor);
    // late wakers find the cursor exhausted and do nothing.
    std::unique_lock<std::mutex> lk(mtx_);
    cvDone_.wait(lk, [this] { return activeDrainers_ == 0; });
}

void
ThreadPool::parallelFor2D(
    std::size_t outer, std::size_t inner,
    const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (outer == 0 || inner == 0)
        return;
    parallelFor(0, outer * inner, [&](std::size_t flat) {
        fn(flat / inner, flat % inner);
    });
}

void
ThreadPool::workerLoop()
{
    std::size_t seen_generation = 0;
    for (;;) {
        Batch b;
        {
            std::unique_lock<std::mutex> lk(mtx_);
            cvStart_.wait(lk, [&] {
                return stop_ || generation_ != seen_generation;
            });
            if (stop_)
                return;
            seen_generation = generation_;
            b = batch_;
            ++activeDrainers_;
        }
        drainBatch(b);
        {
            std::lock_guard<std::mutex> lk(mtx_);
            TFHE_ASSERT(activeDrainers_ > 0);
            --activeDrainers_;
        }
        cvDone_.notify_one();
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

} // namespace tensorfhe
