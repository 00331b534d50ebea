#include "ckks/keystore.hh"

#include "common/errors.hh"
#include "common/logging.hh"
#include "fault/fault.hh"

namespace tensorfhe::ckks
{

namespace
{

/** splitmix64 finalizer — decorrelates the per-key RNG seeds. */
u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr int kMaxGenAttempts = 3;

} // namespace

KeyStore::KeyStore(const KeyBundle &keys) : view_(&keys) {}

KeyStore::KeyStore(const CkksContext &ctx, SecretKey sk, KeyBundle base,
                   u64 seed, std::size_t capacity)
    : ctx_(&ctx), owned_(std::make_unique<KeyBundle>(std::move(base))),
      sk_(std::move(sk)), seed_(seed), capacity_(capacity)
{}

SwitchKey
KeyStore::generate(s64 step) const
{
    // Seed from the galois element (the automorphism's identity, so
    // equivalent step encodings share a key stream).
    u64 derived = mix64(seed_ ^ mix64(ctx_->galoisForRotation(step)));
    // A transient keygen fault (fault-injection campaigns, a failed
    // device allocation in a real deployment) is retried with a FRESH
    // deterministic Rng, so a retried generation is bit-identical to
    // an undisturbed one.
    for (int attempt = 0;; ++attempt) {
        try {
            TFHE_FAULT_POINT("keystore/generate");
            Rng rng(derived);
            return ctx_->generateRotationKey(sk_, step, rng);
        } catch (const TransientFault &) {
            if (attempt + 1 >= kMaxGenAttempts)
                throw;
        }
    }
}

std::shared_ptr<const SwitchKey>
KeyStore::rotation(s64 step) const
{
    const auto &pre = base().rot;
    auto it = pre.find(step);
    if (it != pre.end())
        // Alias the caller-owned / store-owned bundle: no control
        // block needed, the bundle outlives every pin by contract.
        return {std::shared_ptr<const SwitchKey>{}, &it->second};
    if (!onDemand())
        return nullptr;

    {
        std::lock_guard<std::mutex> lock(mu_);
        auto hit = cache_.find(step);
        if (hit != cache_.end()) {
            lru_.splice(lru_.begin(), lru_, hit->second);
            return hit->second->second;
        }
    }
    // Generate outside the lock (keygen is the expensive part); a
    // racing thread may generate the same key — both results are
    // bit-identical, the second insert is dropped.
    SwitchKey fresh = generate(step);
    std::lock_guard<std::mutex> lock(mu_);
    ++generations_;
    auto hit = cache_.find(step);
    if (hit != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, hit->second);
        return hit->second->second;
    }
    auto id_it = ids_.find(step);
    if (id_it != ids_.end())
        // Regeneration after eviction: restore the first-generation
        // id so the context's restricted-key cache stays coherent.
        fresh.id = id_it->second;
    else
        ids_.emplace(step, fresh.id);
    auto sp = std::make_shared<const SwitchKey>(std::move(fresh));
    lru_.emplace_front(step, sp);
    cache_[step] = lru_.begin();
    if (capacity_ != 0 && lru_.size() > capacity_) {
        cache_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
    return sp;
}

std::size_t
KeyStore::residentGenerated() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

std::size_t
KeyStore::generationEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return generations_;
}

std::size_t
KeyStore::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

} // namespace tensorfhe::ckks
