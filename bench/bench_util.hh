/**
 * @file
 * Shared helpers for the paper-table bench binaries: wall-clock
 * timing and aligned table printing. Every bench prints three kinds
 * of rows, always labeled: paper-published values, model estimates
 * (A100 device model at paper parameters), and measurements (this
 * machine, scaled parameters).
 */

#ifndef TENSORFHE_BENCH_BENCH_UTIL_HH
#define TENSORFHE_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>

#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace tensorfhe::bench
{

/**
 * Observability flags shared by every bench: `--trace out.json`
 * captures the run as Chrome trace-event JSON (chrome://tracing or
 * ui.perfetto.dev), `--metrics out.json` dumps the unified
 * MetricsRegistry snapshot. parse() strips the flags from argv so the
 * bench's own positional arguments keep working.
 */
struct ObsFlags
{
    std::string tracePath;
    std::string metricsPath;

    static ObsFlags
    parse(int &argc, char **argv)
    {
        ObsFlags f;
        int w = 1;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--trace" && i + 1 < argc)
                f.tracePath = argv[++i];
            else if (a == "--metrics" && i + 1 < argc)
                f.metricsPath = argv[++i];
            else
                argv[w++] = argv[i];
        }
        argc = w;
        return f;
    }

    bool wantTrace() const { return !tracePath.empty(); }
    bool wantMetrics() const { return !metricsPath.empty(); }

    /** Arm the tracer if --trace was given (call before the traced
        region, while the pool is quiescent). Benches capture whole
        workloads, so the ring is 4x the default capacity. */
    void
    armIfRequested() const
    {
        if (wantTrace())
            trace::Tracer::instance().arm(
                trace::Tracer::kDefaultCapacity * 4);
    }

    /** Disarm and write the requested artifacts; prints one line per
        file written. Extra GPU-model lanes render as their own
        process in the viewer. */
    void
    finish(const std::vector<trace::Tracer::ExternalSpan> &gpuLanes =
               {}) const
    {
        if (wantTrace()) {
            trace::Tracer::instance().disarm();
            if (trace::Tracer::instance().writeChromeJson(tracePath,
                                                          gpuLanes))
                std::printf("trace:   %s (%llu spans, %llu dropped)\n",
                            tracePath.c_str(),
                            static_cast<unsigned long long>(
                                trace::Tracer::instance()
                                    .recordedSpans()),
                            static_cast<unsigned long long>(
                                trace::Tracer::instance()
                                    .droppedSpans()));
            else
                std::printf("trace:   FAILED to write %s\n",
                            tracePath.c_str());
        }
        if (wantMetrics()) {
            if (trace::MetricsRegistry::instance().writeSnapshotJson(
                    metricsPath))
                std::printf("metrics: %s\n", metricsPath.c_str());
            else
                std::printf("metrics: FAILED to write %s\n",
                            metricsPath.c_str());
        }
    }
};

/**
 * Minimal JSON object builder for the machine-readable bench dumps
 * (BENCH_PR4.json): each bench appends one `{"k": v, ...}` object
 * per line (JSON Lines), so several benches can share one file and
 * CI can grep/parse it without a JSON library.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string bench_name)
    {
        // Full double precision: op counts are exact integers that
        // must survive the round-trip (344064 != 3.44064e+05 at the
        // default 6 significant digits).
        out_.precision(17);
        out_ << "{\"bench\": \"" << bench_name << '"';
    }

    JsonWriter &
    add(const std::string &key, double value)
    {
        out_ << ", \"" << key << "\": " << value;
        return *this;
    }

    JsonWriter &
    add(const std::string &key, const std::string &value)
    {
        out_ << ", \"" << key << "\": \"" << value << '"';
        return *this;
    }

    /** Append the object as one line of `path` (creates the file). */
    bool
    appendTo(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        if (!f)
            return false;
        bool written = std::fprintf(f, "%s}\n", out_.str().c_str()) >= 0;
        written &= std::fclose(f) == 0;
        return written;
    }

  private:
    std::ostringstream out_;
};

/** Seconds of wall clock consumed by fn(). */
inline double
timeSeconds(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/** Run fn `iters` times, return mean seconds per run. */
inline double
timeMean(int iters, const std::function<void()> &fn)
{
    double total = timeSeconds([&] {
        for (int i = 0; i < iters; ++i)
            fn();
    });
    return total / iters;
}

inline void
banner(const std::string &title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n",
                title.c_str());
}

inline void
section(const std::string &name)
{
    std::printf("\n--- %s ---\n", name.c_str());
}

/** "1.23 ms" style human formatting. */
inline std::string
fmtSeconds(double s)
{
    char buf[64];
    if (s < 0)
        std::snprintf(buf, sizeof buf, "-");
    else if (s < 1e-6)
        std::snprintf(buf, sizeof buf, "%.1f ns", s * 1e9);
    else if (s < 1e-3)
        std::snprintf(buf, sizeof buf, "%.2f us", s * 1e6);
    else if (s < 1.0)
        std::snprintf(buf, sizeof buf, "%.2f ms", s * 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.2f s", s);
    return buf;
}

} // namespace tensorfhe::bench

#endif // TENSORFHE_BENCH_BENCH_UTIL_HH
