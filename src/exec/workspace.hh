/**
 * @file
 * Workspace: a size-bucketed arena of RnsPolynomial coefficient
 * buffers for the unified kernel/dispatch layer.
 *
 * The hot FHE paths (hoist, key-switch tails, ModUp/ModDown staging,
 * BSGS accumulators) are steady-state: every call wants the same few
 * buffer shapes — (level x N), (union-basis x N), (digit x N). Before
 * this arena each call re-allocated those from the general-purpose
 * allocator; now exec::Dispatcher checks them out, the RAII lease
 * returns the storage on destruction, and the next call reuses it
 * without an allocator round-trip. This is the CPU stand-in for the
 * paper's preallocated device working set (SIV-B "Data Reuse"): VRAM
 * scratch is carved out once and cycled, never malloc'd per kernel.
 *
 * Each shard holds two free lists, each an ordered map keyed by
 * buffer capacity (in u64 coefficients): released leases (the scratch
 * working set) and donated storage. Shards are per thread so
 * concurrent dispatches do not contend on one list. A lookup is one
 * lower_bound: the smallest pooled buffer that fits, first from the
 * calling thread's shard, then stolen from the others. A checkout
 * tries the released leases, then the donations, and only then the
 * allocator; release returns to the caller's shard. alloc/reuse
 * counters are process-visible so benches can assert steady-state
 * reuse (>90% on warm rotateManyBatch / nn::Sequential runs).
 *
 * Steady-state contract: the dispatcher donates only the buffers an
 * op replaces, and draws op outputs through output(), which takes
 * only donated storage. So every donated buffer is matched by an
 * arena-drawn output, outputs never take the scratch working set, and
 * repeated runs of one workload cycle a fixed pool instead of growing
 * it; a checkout stays one ordered-map lookup over that fixed pool.
 */

#ifndef TENSORFHE_EXEC_WORKSPACE_HH
#define TENSORFHE_EXEC_WORKSPACE_HH

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rns/rns_poly.hh"

namespace tensorfhe::exec
{

class Workspace
{
  public:
    /**
     * The first workspace a process builds also keeps the general
     * allocator's freed memory mapped (glibc only, see workspace.cc):
     * op outputs and evaluator copies still come from malloc, and
     * glibc would otherwise hand their pages back to the kernel after
     * every request and fault them in again on the next.
     */
    explicit Workspace(const rns::RnsTower &tower);

    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    /**
     * Leak check: with lease tracking on (default in debug builds),
     * a workspace destroyed while leases are still outstanding names
     * every site that failed to return its buffer on stderr instead
     * of silently dropping them — a leaked lease is a bug in the
     * dispatch layer's exception safety.
     */
    ~Workspace();

    /**
     * RAII lease of one pooled polynomial. The wrapped RnsPolynomial
     * is usable like any other; on destruction its storage returns to
     * the arena. Move-only.
     */
    class Pooled
    {
      public:
        Pooled() = default;
        Pooled(Workspace *ws, rns::RnsPolynomial p,
               const char *site = "unnamed")
            : ws_(ws), poly_(std::move(p)), site_(site)
        {}
        Pooled(Pooled &&o) noexcept
            : ws_(o.ws_), poly_(std::move(o.poly_)), site_(o.site_)
        {
            o.ws_ = nullptr;
        }
        Pooled &
        operator=(Pooled &&o) noexcept
        {
            if (this != &o) {
                releaseToArena();
                ws_ = o.ws_;
                poly_ = std::move(o.poly_);
                site_ = o.site_;
                o.ws_ = nullptr;
            }
            return *this;
        }
        Pooled(const Pooled &) = delete;
        Pooled &operator=(const Pooled &) = delete;
        ~Pooled() { releaseToArena(); }

        rns::RnsPolynomial &operator*() { return poly_; }
        const rns::RnsPolynomial &operator*() const { return poly_; }
        rns::RnsPolynomial *operator->() { return &poly_; }
        const rns::RnsPolynomial *operator->() const { return &poly_; }
        rns::RnsPolynomial *get() { return &poly_; }
        const rns::RnsPolynomial *get() const { return &poly_; }

        /** Detach the polynomial; its storage will NOT be recycled. */
        rns::RnsPolynomial
        detach()
        {
            if (ws_) {
                ws_->endLease(site_);
                ws_ = nullptr;
            }
            return std::move(poly_);
        }

      private:
        void
        releaseToArena()
        {
            if (ws_) {
                ws_->recycle(std::move(poly_), site_);
                ws_ = nullptr;
            }
        }

        Workspace *ws_ = nullptr;
        rns::RnsPolynomial poly_;
        const char *site_ = "unnamed";
    };

    /**
     * Check out a zeroed polynomial over `limbs` in `domain`. Reuses
     * a pooled buffer of sufficient capacity when one is available
     * (no allocator call); otherwise allocates fresh and counts it.
     * `site` names the checkout for the lease tracker's leak report.
     * Accumulators take this checkout: they add into their zeros.
     */
    Pooled zeros(const std::vector<std::size_t> &limbs,
                 rns::Domain domain, const char *site = "unnamed");

    /**
     * zeros() without the zero-fill: a reused buffer keeps whatever
     * it held. Only for buffers whose every limb the next kernel
     * writes before anything reads it (copies, ModUp outputs,
     * automorphism outputs, product rows), which zeroing would fill
     * just to have it overwritten.
     */
    Pooled forOverwrite(const std::vector<std::size_t> &limbs,
                        rns::Domain domain, const char *site = "unnamed");

    /**
     * A polynomial for an op output, which leaves the arena with its
     * caller. It takes a donated buffer when one fits (counted as a
     * reuse), so donations flow back out through outputs; otherwise
     * it allocates like any polynomial, uncounted, since that buffer
     * never was arena scratch. Not zeroed, like forOverwrite(): every
     * caller writes each limb of its output.
     */
    rns::RnsPolynomial output(const std::vector<std::size_t> &limbs,
                              rns::Domain domain);

    /** Arena traffic counters (cumulative since resetStats). */
    struct Stats
    {
        u64 allocs = 0;   ///< checkouts served by the allocator
        u64 reuses = 0;   ///< checkouts and outputs served from the pool
        u64 returns = 0;  ///< buffers returned to the pool

        double
        reuseRate() const
        {
            u64 total = allocs + reuses;
            return total == 0
                ? 0.0
                : static_cast<double>(reuses)
                    / static_cast<double>(total);
        }
    };

    /**
     * Donate a dead polynomial's storage to the pool (e.g. the
     * components multiplyInPlace replaces with its arena-drawn
     * product). Donated storage is what output() hands back out, and
     * a checkout falls back to it before paying the allocator.
     */
    void donate(rns::RnsPolynomial &&p);

    /**
     * Pre-stage `count` pooled buffers of the given shape: each is
     * checked out (paying the allocator once, counted as an alloc)
     * and immediately returned, so the next `count` concurrent
     * checkouts of that shape — or any smaller one, via the best-fit
     * lookup — are served from the pool. The graph executor walks a
     * compiled graph's scratch shapes through this before the first
     * run, so even a COLD graph execution hits steady-state reuse.
     */
    void prestage(const std::vector<std::size_t> &limbs,
                  rns::Domain domain, std::size_t count);

    Stats stats() const;
    void resetStats();

    /** Drop every pooled buffer (tests use this to force cold state). */
    void trim();

    /**
     * Fill every pooled buffer, released and donated, out to its
     * capacity with `word`. With a word that is never a residue
     * (~0), a run that reads any unwritten cell of a forOverwrite()
     * lease or an output() differs from a fresh-arena run; tests use
     * this to prove those buffers are written in full.
     */
    void poison(u64 word);

    /**
     * Toggle lease-site tracking (on by default in debug builds;
     * off in release, where the per-checkout map update is real hot-
     * path cost). Tests turn it on to assert the engine returns every
     * lease across fault unwinding.
     */
    void
    setLeaseTracking(bool on)
    {
        trackLeases_.store(on, std::memory_order_relaxed);
    }

    /** Leases currently checked out (0 unless tracking was on). */
    std::size_t outstandingLeases() const;

    /** Outstanding lease count per site (tracking only). */
    std::map<std::string, std::size_t> outstandingBySite() const;

    const rns::RnsTower &tower() const { return *tower_; }

  private:
    friend class Pooled;

    /** Return a released lease's storage to the caller's shard. */
    void recycle(rns::RnsPolynomial &&p, const char *site);

    /** The body of zeros() and forOverwrite(). */
    Pooled checkout(const std::vector<std::size_t> &limbs,
                    rns::Domain domain, const char *site, bool zeroed);

    void beginLease(const char *site);
    void endLease(const char *site);

    static constexpr std::size_t kShards = 8;
    static std::size_t shardIndex();

    /** Free buffers keyed by capacity; equal capacities keep their
        return order, so the oldest is reused first. */
    using FreeList = std::multimap<std::size_t, std::vector<u64>>;

    struct Shard
    {
        std::mutex mu;
        FreeList free;    ///< released leases: the scratch working set
        FreeList donated; ///< donated storage, drained by output()
    };

    /** Pop the best-fitting buffer of at least `need` words from one
        list, the caller's shard first. */
    std::optional<std::vector<u64>> take(FreeList Shard::*list,
                                         std::size_t need);

    /** Push a buffer onto one list of the caller's shard. */
    void put(FreeList Shard::*list, std::vector<u64> buf);

    const rns::RnsTower *tower_;
    mutable Shard shards_[kShards];
    std::atomic<u64> allocs_{0};
    std::atomic<u64> reuses_{0};
    std::atomic<u64> returns_{0};

#ifdef NDEBUG
    std::atomic<bool> trackLeases_{false};
#else
    std::atomic<bool> trackLeases_{true};
#endif
    mutable std::mutex leaseMu_;
    std::map<std::string, std::size_t> leases_;
};

} // namespace tensorfhe::exec

#endif // TENSORFHE_EXEC_WORKSPACE_HH
