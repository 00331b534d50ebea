#include "exec/workspace.hh"

#include <functional>
#include <optional>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/logging.hh"
#include "fault/fault.hh"

namespace tensorfhe::exec
{

namespace
{

/**
 * Keep freed heap memory mapped for the life of the process. glibc
 * returns the top of its heap to the kernel whenever 128 KiB there
 * are free, and maps any block over 128 KiB afresh until a large
 * free raises that bar. A request frees its outputs and evaluator
 * copies above the set-up's long-lived keys and inputs, so the next
 * request faulted the same pages in again: about 240 minor faults
 * per lstm_graph_b1 request and 800 to 1000 per CNN request (4-vCPU
 * VM), each as slow as the host's memory pressure makes it, which
 * made latency vary from run to run. Both bars are set to the
 * ceilings glibc's own adaptive rule would climb to (blocks up to
 * 32 MiB from the heap, trim once 64 MiB are free), but from the
 * start, so that every run takes the same allocator path.
 */
void
keepFreedHeapMapped()
{
#ifdef __GLIBC__
    static std::once_flag once;
    std::call_once(once, [] {
        constexpr int kMmapThreshold = 32 << 20;
        mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
        mallopt(M_TRIM_THRESHOLD, 2 * kMmapThreshold);
    });
#endif
}

} // namespace

Workspace::Workspace(const rns::RnsTower &tower) : tower_(&tower)
{
    keepFreedHeapMapped();
}

std::size_t
Workspace::shardIndex()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id())
        % kShards;
}

Workspace::~Workspace()
{
    if (!trackLeases_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(leaseMu_);
    std::size_t total = 0;
    for (const auto &[site, count] : leases_)
        total += count;
    if (total == 0)
        return;
    TFHE_LOG_WARN("exec", "Workspace destroyed with ", total,
                  " outstanding lease(s)");
    for (const auto &[site, count] : leases_)
        if (count > 0)
            TFHE_LOG_WARN("exec", "  ", site, ": ", count);
}

void
Workspace::beginLease(const char *site)
{
    if (!trackLeases_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(leaseMu_);
    ++leases_[site];
}

void
Workspace::endLease(const char *site)
{
    if (!site || !trackLeases_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(leaseMu_);
    auto it = leases_.find(site);
    if (it != leases_.end() && it->second > 0)
        --it->second;
}

std::size_t
Workspace::outstandingLeases() const
{
    std::lock_guard<std::mutex> lock(leaseMu_);
    std::size_t total = 0;
    for (const auto &[site, count] : leases_)
        total += count;
    return total;
}

std::map<std::string, std::size_t>
Workspace::outstandingBySite() const
{
    std::lock_guard<std::mutex> lock(leaseMu_);
    std::map<std::string, std::size_t> out;
    for (const auto &[site, count] : leases_)
        if (count > 0)
            out.emplace(site, count);
    return out;
}

std::optional<std::vector<u64>>
Workspace::take(FreeList Shard::*list, std::size_t need)
{
    std::size_t start = shardIndex();
    // Prefer the caller's shard; steal from the others before paying
    // the allocator.
    for (std::size_t probe = 0; probe < kShards; ++probe) {
        Shard &shard = shards_[(start + probe) % kShards];
        std::lock_guard<std::mutex> lock(shard.mu);
        FreeList &free = shard.*list;
        // Best fit: the smallest buffer that fits (an oversized batch
        // buffer should not be burned on a single-limb checkout).
        auto best = free.lower_bound(need);
        if (best == free.end())
            continue;
        std::vector<u64> buf = std::move(best->second);
        free.erase(best);
        return buf;
    }
    return std::nullopt;
}

void
Workspace::put(FreeList Shard::*list, std::vector<u64> buf)
{
    if (buf.capacity() == 0)
        return;
    Shard &shard = shards_[shardIndex()];
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        std::size_t capacity = buf.capacity();
        (shard.*list).emplace(capacity, std::move(buf));
    }
    // After the insert: a throwing emplace (allocator pressure) must
    // not leave a counted return with no pooled buffer. Releases run
    // inside Pooled destructors — often during stack unwinding — so
    // the counter update is the last, non-throwing step.
    returns_.fetch_add(1, std::memory_order_relaxed);
}

Workspace::Pooled
Workspace::zeros(const std::vector<std::size_t> &limbs,
                 rns::Domain domain, const char *site)
{
    return checkout(limbs, domain, site, true);
}

Workspace::Pooled
Workspace::forOverwrite(const std::vector<std::size_t> &limbs,
                        rns::Domain domain, const char *site)
{
    return checkout(limbs, domain, site, false);
}

Workspace::Pooled
Workspace::checkout(const std::vector<std::size_t> &limbs,
                    rns::Domain domain, const char *site, bool zeroed)
{
    TFHE_FAULT_POINT("workspace/alloc");
    std::size_t need = limbs.size() * tower_->n();
    auto buf = take(&Shard::free, need);
    if (!buf)
        buf = take(&Shard::donated, need);
    // Count the checkout only once the polynomial owns the buffer: if
    // construction throws during stack unwinding elsewhere, the
    // counters must not claim a checkout that never happened
    // (alloc/reuse totals are what the steady-state benches and the
    // race stress assert against).
    rns::RnsPolynomial poly;
    if (!buf)
        poly = rns::RnsPolynomial(*tower_, limbs, domain);
    else if (zeroed)
        poly = rns::RnsPolynomial(*tower_, limbs, domain, std::move(*buf));
    else
        poly = rns::RnsPolynomial::forOverwrite(*tower_, limbs, domain,
                                                std::move(*buf));
    Pooled out(this, std::move(poly), site);
    (buf ? reuses_ : allocs_).fetch_add(1, std::memory_order_relaxed);
    beginLease(site);
    return out;
}

rns::RnsPolynomial
Workspace::output(const std::vector<std::size_t> &limbs,
                  rns::Domain domain)
{
    auto buf = take(&Shard::donated, limbs.size() * tower_->n());
    if (!buf)
        return rns::RnsPolynomial(*tower_, limbs, domain);
    auto out = rns::RnsPolynomial::forOverwrite(*tower_, limbs, domain,
                                                std::move(*buf));
    reuses_.fetch_add(1, std::memory_order_relaxed);
    return out;
}

void
Workspace::donate(rns::RnsPolynomial &&p)
{
    put(&Shard::donated, p.takeStorage());
}

void
Workspace::recycle(rns::RnsPolynomial &&p, const char *site)
{
    endLease(site);
    put(&Shard::free, p.takeStorage());
}

void
Workspace::prestage(const std::vector<std::size_t> &limbs,
                    rns::Domain domain, std::size_t count)
{
    // Checking out all `count` leases before releasing any forces
    // `count` DISTINCT buffers into the pool (a checkout/release loop
    // would recycle one buffer `count` times).
    std::vector<Pooled> held;
    held.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        held.push_back(zeros(limbs, domain, "exec/prestage"));
}

Workspace::Stats
Workspace::stats() const
{
    Stats s;
    s.allocs = allocs_.load(std::memory_order_relaxed);
    s.reuses = reuses_.load(std::memory_order_relaxed);
    s.returns = returns_.load(std::memory_order_relaxed);
    return s;
}

void
Workspace::resetStats()
{
    allocs_.store(0, std::memory_order_relaxed);
    reuses_.store(0, std::memory_order_relaxed);
    returns_.store(0, std::memory_order_relaxed);
}

void
Workspace::poison(u64 word)
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (FreeList *list : {&shard.free, &shard.donated})
            for (auto &[capacity, buf] : *list)
                buf.assign(capacity, word);
    }
}

void
Workspace::trim()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.free.clear();
        shard.donated.clear();
    }
}

} // namespace tensorfhe::exec
