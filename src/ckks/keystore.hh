/**
 * @file
 * KeyStore: the evaluator-facing source of key-switching keys.
 *
 * Two modes behind one lookup interface:
 *
 *  - STATIC VIEW over a pre-generated KeyBundle (the historical
 *    contract): serves exactly the bundle's keys, generates nothing,
 *    and returns null for any step the bundle lacks. Zero overhead —
 *    lookups alias the caller-owned bundle.
 *
 *  - ON-DEMAND: rotation keys are generated lazily from the secret
 *    key the first time a step is requested, with at most `capacity`
 *    generated keys resident (LRU eviction; keys handed out stay
 *    alive through their shared_ptr pins regardless). Generation is
 *    DETERMINISTIC: the per-key RNG is seeded from (store seed,
 *    galois element), and the SwitchKey id assigned on first
 *    generation is remembered, so a key regenerated after eviction is
 *    bit-identical — including the id that keys the context's
 *    restricted-key cache, which therefore stays coherent across
 *    evictions. Key generation passes the "keystore/generate" fault
 *    point and retries transient failures (bounded), so a
 *    fault-injected keygen never corrupts the store.
 *
 * The on-demand mode is what frees the BSGS stride chooser from the
 * root-stride key-pattern constraint: a planner-chosen stride may
 * rotate by any step, and the store materializes exactly the keys the
 * run touches instead of an analytic superset.
 */

#ifndef TENSORFHE_CKKS_KEYSTORE_HH
#define TENSORFHE_CKKS_KEYSTORE_HH

#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "ckks/context.hh"

namespace tensorfhe::ckks
{

class KeyStore
{
  public:
    /**
     * Static view: serves exactly `keys`' pre-generated keys.
     * `keys` must outlive the store (the Dispatcher contract).
     */
    explicit KeyStore(const KeyBundle &keys);

    /**
     * On-demand store: pk/relin/conj (and any pre-generated rotation
     * keys) come from `base`; missing rotation keys are generated
     * deterministically from `seed` on first request, at most
     * `capacity` generated keys resident (LRU; capacity 0 =
     * unbounded).
     */
    KeyStore(const CkksContext &ctx, SecretKey sk, KeyBundle base,
             u64 seed, std::size_t capacity);

    KeyStore(const KeyStore &) = delete;
    KeyStore &operator=(const KeyStore &) = delete;

    const SwitchKey &relin() const { return base().relin; }
    const SwitchKey &conj() const { return base().conj; }

    /**
     * Rotation key for `step` (normalized, nonzero). Null when a
     * static store lacks the key; an on-demand store always serves
     * it (generating if needed). The returned pin keeps the key
     * alive through LRU eviction.
     */
    std::shared_ptr<const SwitchKey> rotation(s64 step) const;

    bool onDemand() const { return ctx_ != nullptr; }
    std::size_t capacity() const { return capacity_; }

    /** Generated keys currently resident (on-demand mode). */
    std::size_t residentGenerated() const;
    /** Total generation events, counting regenerations. */
    std::size_t generationEvents() const;
    /** Keys dropped by the LRU cap so far. */
    std::size_t evictions() const;

  private:
    const KeyBundle &
    base() const
    {
        return owned_ ? *owned_ : *view_;
    }

    SwitchKey generate(s64 step) const;

    const CkksContext *ctx_ = nullptr; ///< null = static view
    const KeyBundle *view_ = nullptr;  ///< static mode, caller-owned
    std::unique_ptr<KeyBundle> owned_; ///< on-demand mode
    SecretKey sk_;
    u64 seed_ = 0;
    std::size_t capacity_ = 0;

    mutable std::mutex mu_;
    /// MRU-first recency list of generated keys (by step); cache_
    /// points in.
    mutable std::list<std::pair<s64, std::shared_ptr<const SwitchKey>>>
        lru_;
    mutable std::map<s64, decltype(lru_)::iterator> cache_;
    /// First-generation ids, remembered forever so regeneration is
    /// bit-identical (including the restricted-key-cache id).
    mutable std::map<s64, u64> ids_;
    mutable std::size_t generations_ = 0;
    mutable std::size_t evictions_ = 0;
};

} // namespace tensorfhe::ckks

#endif // TENSORFHE_CKKS_KEYSTORE_HH
