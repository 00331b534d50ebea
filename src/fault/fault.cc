#include "fault/fault.hh"

#include "common/errors.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/trace.hh"

namespace tensorfhe::fault
{

std::atomic<bool> FaultPlan::engaged_{false};

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::TransientKernel: return "transient-kernel";
      case FaultKind::AllocFail: return "alloc-fail";
      case FaultKind::LimbBitFlip: return "limb-bit-flip";
      case FaultKind::MetaCorrupt: return "meta-corrupt";
      default: TFHE_ASSERT(false); return "?";
    }
}

const std::vector<SiteInfo> &
knownSites()
{
    // Control sites sit on the orchestration thread of the unified
    // exec layer (never inside parallelFor worker lambdas, so a
    // thrown TransientFault unwinds the dispatching call cleanly);
    // the two graph/ sites are the executor's value boundaries where
    // data faults are applied and the integrity guards must catch
    // them.
    static const std::vector<SiteInfo> sites = {
        {"workspace/alloc", false},
        {"exec/modup", false},
        {"exec/moddown", false},
        {"exec/keyswitch-tail", false},
        {"exec/fused-elementwise", false},
        {"boot/sine-stage", false},
        {"gpu/replay-dispatch", false},
        {"graph/node-output", true},
        {"graph/value-store", true},
    };
    return sites;
}

FaultPlan &
FaultPlan::instance()
{
    static FaultPlan plan;
    return plan;
}

void
FaultPlan::arm(FaultSpec spec)
{
    std::lock_guard<std::mutex> lock(mu_);
    TFHE_ASSERT(!counting_, "cannot arm a fault while counting hits");
    spec_ = std::move(spec);
    armed_ = true;
    fired_ = false;
    hits_.clear();
    engaged_.store(true, std::memory_order_relaxed);
}

void
FaultPlan::disarm()
{
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    counting_ = false;
    fired_ = false;
    hits_.clear();
    engaged_.store(false, std::memory_order_relaxed);
}

bool
FaultPlan::fired() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
}

void
FaultPlan::startCounting()
{
    std::lock_guard<std::mutex> lock(mu_);
    TFHE_ASSERT(!armed_, "cannot count hits while a fault is armed");
    counting_ = true;
    hits_.clear();
    engaged_.store(true, std::memory_order_relaxed);
}

std::map<std::string, u64>
FaultPlan::stopCounting()
{
    std::lock_guard<std::mutex> lock(mu_);
    counting_ = false;
    engaged_.store(armed_, std::memory_order_relaxed);
    return std::move(hits_);
}

bool
FaultPlan::registerHit(const char *site)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        u64 hit = hits_[site]++;
        if (counting_ || !armed_ || fired_ || spec_.site != site)
            return false;
        if (hit != spec_.triggerHit)
            return false;
        fired_ = true;
    }
    // Sites are string literals, so the instant event can alias the
    // site name directly (the timeline shows WHERE the fault fired).
    trace::SpanArg arg{"hit",
                       static_cast<s64>(spec_.triggerHit)};
    trace::Tracer::instant("fault", site, &arg, 1);
    TFHE_LOG_DEBUG("fault", "injected ", faultKindName(spec_.kind),
                   " at ", site, " (hit ", spec_.triggerHit, ")");
    return true;
}

void
FaultPlan::throwControl(const char *site) const
{
    if (spec_.kind == FaultKind::AllocFail)
        throw TransientFault(site,
                             "injected allocation failure (seed "
                                 + std::to_string(spec_.seed) + ")");
    throw TransientFault(site,
                         "injected transient kernel fault (seed "
                             + std::to_string(spec_.seed) + ")");
}

void
FaultPlan::onHit(const char *site)
{
    if (!registerHit(site))
        return;
    // Data kinds need a ciphertext target; on a control-only site
    // they degrade to a transient fault rather than silently doing
    // nothing (an armed fault that never fires would skew campaign
    // accounting).
    throwControl(site);
}

void
FaultPlan::corruptCt(ckks::Ciphertext &ct) const
{
    Rng rng(spec_.seed * 0x9e3779b97f4a7c15ull + 1);
    if (spec_.kind == FaultKind::MetaCorrupt) {
        // Metadata drift: nudge the scale (detected against the
        // compiled ValueMeta) or shear a limb off one component
        // (detected by the c0/c1 shape check).
        if (rng.uniform(2) == 0)
            ct.scale *= 1.0 + 1e-3;
        else if (ct.c0.numLimbs() > 1)
            ct.c0.truncateLimbs(ct.c0.numLimbs() - 1);
        else
            ct.scale *= 1.0 + 1e-3;
        return;
    }
    // LimbBitFlip: XOR one seeded bit of one seeded residue. At the
    // produce boundary (graph/node-output) the flip lands BEFORE the
    // digest is sealed, so only the residue range scan can see it —
    // inject the detectable class (a high bit, always >= 2^62 > q_i
    // for the <= 61-bit primes the pool admits). At the consume
    // boundary the value was sealed at production, so ANY bit —
    // including low bits that keep the residue in range — is caught
    // by the digest comparison; draw over the full word there.
    rns::RnsPolynomial &c = rng.uniform(2) == 0 ? ct.c0 : ct.c1;
    std::size_t limb = static_cast<std::size_t>(
        rng.uniform(c.numLimbs() == 0 ? 1 : c.numLimbs()));
    if (c.numLimbs() == 0)
        return;
    std::size_t coeff = static_cast<std::size_t>(rng.uniform(c.n()));
    u64 bit = spec_.site == "graph/node-output"
        ? 62 + rng.uniform(2)
        : rng.uniform(64);
    c.limb(limb)[coeff] ^= u64(1) << bit;
}

void
FaultPlan::onHitCt(const char *site, ckks::Ciphertext &ct)
{
    if (!registerHit(site))
        return;
    if (spec_.kind == FaultKind::TransientKernel
        || spec_.kind == FaultKind::AllocFail)
        throwControl(site);
    corruptCt(ct);
}

} // namespace tensorfhe::fault
