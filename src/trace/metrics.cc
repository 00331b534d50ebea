#include "trace/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/stats.hh"
#include "exec/workspace.hh"
#include "resilience/counters.hh"
#include "trace/trace.hh"

namespace tensorfhe::trace
{

void
Histogram::observe(u64 v)
{
    std::size_t b = 0;
    while (b + 1 < kBuckets && (v >> (b + 1)) != 0)
        ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

u64
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

u64
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

u64
Histogram::bucket(std::size_t b) const
{
    return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed)
                        : 0;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry r;
    return r;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    gauges_[name] = value;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
MetricsRegistry::registerWorkspace(const exec::Workspace *ws)
{
    std::lock_guard<std::mutex> lock(mu_);
    workspaces_.push_back(ws);
}

void
MetricsRegistry::unregisterWorkspace(const exec::Workspace *ws)
{
    std::lock_guard<std::mutex> lock(mu_);
    workspaces_.erase(
        std::remove(workspaces_.begin(), workspaces_.end(), ws),
        workspaces_.end());
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;

    // Island 1: kernel counters.
    const auto &ks = KernelStats::instance();
    for (std::size_t i = 0; i < kNumKernelKinds; ++i) {
        auto kind = static_cast<KernelKind>(i);
        const auto &c = ks.counter(kind);
        std::string base =
            std::string("kernel.") + kernelKindName(kind);
        out[base + ".invocations"] = static_cast<double>(
            c.invocations.load(std::memory_order_relaxed));
        out[base + ".nanos"] = static_cast<double>(
            c.nanos.load(std::memory_order_relaxed));
        out[base + ".elements"] = static_cast<double>(
            c.elements.load(std::memory_order_relaxed));
    }

    // Island 2: executed homomorphic operations + conversions.
    const auto &es = EvalOpStats::instance();
    EvalOpCounts ops = es.snapshot();
    for (std::size_t i = 0; i < kNumEvalOpKinds; ++i) {
        auto kind = static_cast<EvalOpKind>(i);
        out[std::string("evalop.") + evalOpKindName(kind) + ".count"] =
            ops.get(kind);
    }
    out["evalop.modups"] = static_cast<double>(es.modUps());
    out["evalop.moddowns"] = static_cast<double>(es.modDowns());

    // Island 3: workspace arenas (summed over live instances).
    {
        u64 allocs = 0;
        u64 reuses = 0;
        u64 returns = 0;
        std::lock_guard<std::mutex> lock(mu_);
        for (const exec::Workspace *ws : workspaces_) {
            auto s = ws->stats();
            allocs += s.allocs;
            reuses += s.reuses;
            returns += s.returns;
        }
        out["workspace.arenas"] =
            static_cast<double>(workspaces_.size());
        out["workspace.allocs"] = static_cast<double>(allocs);
        out["workspace.reuses"] = static_cast<double>(reuses);
        out["workspace.returns"] = static_cast<double>(returns);
        out["workspace.reuse_rate"] =
            allocs + reuses == 0
                ? 0.0
                : static_cast<double>(reuses)
                      / static_cast<double>(allocs + reuses);
    }

    // Island 4: resilience counters.
    const auto &rc = resilience::Counters::instance();
    out["resilience.retries"] = static_cast<double>(
        rc.retries.load(std::memory_order_relaxed));
    out["resilience.transient_faults"] = static_cast<double>(
        rc.transientFaults.load(std::memory_order_relaxed));
    out["resilience.integrity_failures"] = static_cast<double>(
        rc.integrityFailures.load(std::memory_order_relaxed));
    out["resilience.checkpoints_taken"] = static_cast<double>(
        rc.checkpointsTaken.load(std::memory_order_relaxed));
    out["resilience.checkpoints_resumed"] = static_cast<double>(
        rc.checkpointsResumed.load(std::memory_order_relaxed));

    // The tracer's own health.
    out["trace.spans_recorded"] =
        static_cast<double>(Tracer::instance().recordedSpans());
    out["trace.spans_dropped"] =
        static_cast<double>(Tracer::instance().droppedSpans());

    // Registry-owned custom metrics.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[name, c] : counters_)
            out["custom." + name] = static_cast<double>(c->value());
        for (const auto &[name, v] : gauges_)
            out["custom." + name] = v;
        for (const auto &[name, h] : histograms_) {
            out["custom." + name + ".count"] =
                static_cast<double>(h->count());
            out["custom." + name + ".sum"] =
                static_cast<double>(h->sum());
            for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
                u64 n = h->bucket(b);
                if (n != 0)
                    out["custom." + name + ".bucket_p"
                        + std::to_string(b)] =
                        static_cast<double>(n);
            }
        }
    }
    return out;
}

namespace
{

/**
 * Nest the flat dotted snapshot into one JSON object: the sorted map
 * makes shared prefixes adjacent, so a single pass with an open-group
 * stack emits each subobject exactly once.
 */
void
writeNested(std::ostringstream &out, const MetricsSnapshot &snap)
{
    std::vector<std::string> open; // currently open group path
    out.precision(17);
    out << "{";
    bool first = true;
    for (const auto &[name, value] : snap) {
        std::vector<std::string> parts;
        std::size_t pos = 0;
        while (true) {
            std::size_t dot = name.find('.', pos);
            if (dot == std::string::npos) {
                parts.push_back(name.substr(pos));
                break;
            }
            parts.push_back(name.substr(pos, dot - pos));
            pos = dot + 1;
        }
        // Close groups that no longer match, open the new ones.
        std::size_t common = 0;
        while (common < open.size() && common + 1 < parts.size()
               && open[common] == parts[common])
            ++common;
        for (std::size_t i = open.size(); i > common; --i)
            out << "}";
        open.resize(common);
        for (std::size_t i = common; i + 1 < parts.size(); ++i) {
            if (!first)
                out << ", ";
            first = false;
            out << "\"" << parts[i] << "\": {";
            open.push_back(parts[i]);
            first = true;
        }
        if (!first)
            out << ", ";
        first = false;
        out << "\"" << parts.back() << "\": " << value;
    }
    for (std::size_t i = open.size(); i > 0; --i)
        out << "}";
    out << "}";
}

} // namespace

std::string
MetricsRegistry::snapshotJson() const
{
    std::ostringstream out;
    writeNested(out, snapshot());
    out << "\n";
    return out.str();
}

bool
MetricsRegistry::writeSnapshotJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string json = snapshotJson();
    std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    // fclose flushes the stdio buffer: a full disk surfaces here.
    bool closed = std::fclose(f) == 0;
    return written == json.size() && closed;
}

void
MetricsRegistry::resetCustom()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

} // namespace tensorfhe::trace
