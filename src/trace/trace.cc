#include "trace/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

namespace tensorfhe::trace
{

namespace
{

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::atomic<bool> Tracer::armed_{false};

/**
 * One thread's ring of records. Fixed capacity, append-only within a
 * capture; the owning thread is the only writer, the control plane
 * reads only while quiescent.
 */
struct Tracer::Buffer
{
    u32 tid = 0;
    u64 dropped = 0;
    u32 depth = 0; ///< current nesting depth of the owning thread
    std::vector<SpanRecord> records;
};

namespace
{

/** Registry of every buffer of the current capture generation. */
struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<Tracer::Buffer>> buffers;
    std::size_t capacity = Tracer::kDefaultCapacity;
    u64 generation = 0;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

thread_local u64 tl_generation = 0;
thread_local Tracer::Buffer *tl_buffer = nullptr;

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

void
Tracer::arm(std::size_t capacityPerThread)
{
    auto &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.clear();
    reg.capacity = capacityPerThread == 0 ? 1 : capacityPerThread;
    ++reg.generation;
    armed_.store(true, std::memory_order_relaxed);
}

void
Tracer::disarm()
{
    armed_.store(false, std::memory_order_relaxed);
}

Tracer::Buffer *
Tracer::threadBuffer()
{
    auto &reg = registry();
    if (tl_buffer != nullptr && tl_generation == reg.generation)
        return tl_buffer;
    std::lock_guard<std::mutex> lock(reg.mu);
    auto buf = std::make_unique<Buffer>();
    buf->tid = static_cast<u32>(reg.buffers.size());
    buf->records.reserve(std::min<std::size_t>(reg.capacity, 4096));
    tl_buffer = buf.get();
    tl_generation = reg.generation;
    reg.buffers.push_back(std::move(buf));
    return tl_buffer;
}

void
Tracer::push(const SpanRecord &r)
{
    Buffer *b = threadBuffer();
    if (b->records.size() >= registry().capacity) {
        ++b->dropped;
        return;
    }
    b->records.push_back(r);
}

std::vector<Tracer::ThreadRecords>
Tracer::collect() const
{
    auto &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::vector<ThreadRecords> out;
    out.reserve(reg.buffers.size());
    for (const auto &b : reg.buffers) {
        ThreadRecords tr;
        tr.tid = b->tid;
        tr.dropped = b->dropped;
        tr.records = b->records;
        out.push_back(std::move(tr));
    }
    return out;
}

u64
Tracer::recordedSpans() const
{
    auto &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    u64 total = 0;
    for (const auto &b : reg.buffers)
        total += b->records.size();
    return total;
}

u64
Tracer::droppedSpans() const
{
    auto &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    u64 total = 0;
    for (const auto &b : reg.buffers)
        total += b->dropped;
    return total;
}

void
Tracer::instant(const char *cat, const char *name,
                const SpanArg *args, int numArgs)
{
    if (!armed())
        return;
    SpanRecord r;
    r.name = name;
    r.cat = cat;
    r.startNs = nowNs();
    r.phase = 'i';
    Buffer *b = instance().threadBuffer();
    r.depth = b->depth;
    for (int i = 0; i < numArgs && i < SpanRecord::kMaxArgs; ++i)
        r.args[r.numArgs++] = args[i];
    instance().push(r);
}

void
Tracer::span(const char *cat, const char *name, u64 startNs,
             u64 durNs, const SpanArg *args, int numArgs)
{
    if (!armed())
        return;
    SpanRecord r;
    r.name = name;
    r.cat = cat;
    r.startNs = startNs;
    r.durNs = durNs;
    Buffer *b = instance().threadBuffer();
    r.depth = b->depth;
    for (int i = 0; i < numArgs && i < SpanRecord::kMaxArgs; ++i)
        r.args[r.numArgs++] = args[i];
    instance().push(r);
}

void
TraceSpan::begin(const char *cat, const char *name, const char *dyn)
{
    active_ = true;
    rec_.cat = cat;
    rec_.name = name;
    if (dyn != nullptr) {
        std::strncpy(rec_.dynName, dyn, SpanRecord::kDynName - 1);
        rec_.dynName[SpanRecord::kDynName - 1] = '\0';
    }
    Tracer::Buffer *b = Tracer::instance().threadBuffer();
    rec_.depth = b->depth++;
    rec_.startNs = nowNs();
}

void
TraceSpan::end()
{
    rec_.durNs = nowNs() - rec_.startNs;
    Tracer::Buffer *b = Tracer::instance().threadBuffer();
    if (b->depth > 0)
        --b->depth;
    Tracer::instance().push(rec_);
    active_ = false;
}

namespace
{

void
appendJsonEscaped(std::ostringstream &out, const char *s)
{
    for (; *s != '\0'; ++s) {
        char c = *s;
        if (c == '"' || c == '\\')
            out << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            out << ' ';
        else
            out << c;
    }
}

void
appendEvent(std::ostringstream &out, bool &first, char ph,
            const char *name, const char *cat, int pid, u32 tid,
            double tsUs, double durUs, const SpanArg *args,
            int numArgs)
{
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"ph\": \"" << ph << "\", \"name\": \"";
    appendJsonEscaped(out, name);
    out << "\", \"cat\": \"";
    appendJsonEscaped(out, cat);
    out << "\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"ts\": " << tsUs;
    if (ph == 'X')
        out << ", \"dur\": " << durUs;
    if (ph == 'i')
        out << ", \"s\": \"t\"";
    if (numArgs > 0) {
        out << ", \"args\": {";
        for (int i = 0; i < numArgs; ++i) {
            if (i > 0)
                out << ", ";
            out << '"';
            appendJsonEscaped(out, args[i].key);
            out << "\": " << args[i].value;
        }
        out << '}';
    }
    out << '}';
}

void
appendThreadName(std::ostringstream &out, bool &first, int pid,
                 u32 tid, const std::string &name)
{
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": "
        << pid << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
        << name << "\"}}";
}

} // namespace

std::string
Tracer::chromeJson(const std::vector<ExternalSpan> &gpuLanes) const
{
    auto threads = collect();

    // Normalize host timestamps to the earliest span so the viewer
    // does not open on hour-scale steady-clock offsets. GPU-model
    // lanes are model cycles, already near zero, and stay on their
    // own axis — the two processes are separate timelines.
    u64 t0 = ~0ull;
    for (const auto &tr : threads)
        for (const auto &r : tr.records)
            t0 = std::min(t0, r.startNs);
    if (t0 == ~0ull)
        t0 = 0;

    std::ostringstream out;
    out.precision(15);
    out << "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
    bool first = true;
    appendThreadName(out, first, 0, 0, "host-main");
    for (const auto &tr : threads)
        if (tr.tid != 0)
            appendThreadName(out, first, 0, tr.tid,
                             "host-lane-" + std::to_string(tr.tid));
    for (const auto &tr : threads) {
        for (const auto &r : tr.records) {
            appendEvent(out, first, r.phase, r.displayName(),
                        r.cat == nullptr ? "" : r.cat, 0, tr.tid,
                        static_cast<double>(r.startNs - t0) * 1e-3,
                        static_cast<double>(r.durNs) * 1e-3, r.args,
                        r.numArgs);
        }
    }
    // The GPU model's scheduled replay: one process, one lane per
    // stream, so overlap (and the gaps retries leave) is visible next
    // to the host spans that produced it.
    int maxLane = -1;
    for (const auto &e : gpuLanes)
        maxLane = std::max(maxLane, e.lane);
    for (int lane = 0; lane <= maxLane; ++lane)
        appendThreadName(out, first, 1, static_cast<u32>(lane),
                         "gpu-stream-" + std::to_string(lane));
    for (const auto &e : gpuLanes) {
        appendEvent(out, first, 'X', e.name.c_str(), "gpu-model", 1,
                    static_cast<u32>(e.lane),
                    static_cast<double>(e.startNs) * 1e-3,
                    static_cast<double>(e.durNs) * 1e-3, nullptr, 0);
    }
    out << "\n]}\n";
    return out.str();
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::vector<ExternalSpan> &gpuLanes) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string json = chromeJson(gpuLanes);
    std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
    // fclose flushes the stdio buffer: a full disk surfaces here.
    bool closed = std::fclose(f) == 0;
    return written == json.size() && closed;
}

} // namespace tensorfhe::trace
