/**
 * @file
 * fhebench: the repository benchmark program. One process runs one
 * workload as a closed loop with a single client: each request is
 * issued when the previous one has returned, the way a caller of this
 * library waits for its result.
 *
 *   set-up    context, key generation, model compile/plan/schedule,
 *             encryption of a pool of kInputSets distinct input sets
 *             and one warm-up request; repeated kSetups times on fresh
 *             objects, the median is reported
 *   precision after each set-up, untimed, the rest of the input pool
 *             is run and every output checked; the errors are pooled
 *   measure   requests cycle through the input pool until the time is
 *             up; each request's output is decrypted and checked
 *             against the plaintext reference after its timer stops
 *   trace     (--trace) the first half of the time is measured as usual;
 *             the second is an untraced and a traced quarter, each after
 *             its own set-up, for the tracing overhead; the Tracer's
 *             spans are written as Chrome JSON for report.py to fold
 *
 * Usage:
 *   fhebench --workload W --seed S --seconds T --json OUT [--trace T]
 *   fhebench --smoke
 *
 * --smoke runs every workload twice with one seed for a few requests
 * and exits nonzero if a request fails or the two runs disagree on an
 * exact counter or on precision_bits.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/executor.hh"
#include "common/thread_pool.hh"
#include "graph/executor.hh"
#include "simd/simd.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace
{

using namespace tensorfhe;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kInputSets = 4;
constexpr std::size_t kSetups = 7;
constexpr std::size_t kSmokeRequests = 3;
/** A request fails when its decrypted output is this far off. */
constexpr double kErrorBound = 1e-2;
/** Inputs whose plaintext top-2 logit margin is below this are
    redrawn, so an argmax flip always means an error >= kErrorBound. */
constexpr double kMinMargin = 2 * kErrorBound;

/**
 * Lanes the engine's work runs on. ThreadPool::parallelFor has a race
 * at the global pool's size of nproc - 1 workers: a worker that wakes
 * after its batch returned can take indices of the next batch and call
 * the previous batch's dead callback, which crashes every workload
 * within a second. It takes two top-level dispatches in a row, so the
 * benchmark makes only one: onOneLane runs the whole benchmark as a
 * task of the global pool, and the pool runs every dispatch made from
 * inside its own task inline on that lane. Once the race is fixed,
 * calling the body directly measures all lanes.
 */
constexpr std::size_t kLanes = 1;

int
onOneLane(const std::function<int()> &body)
{
    int code = 1;
    ThreadPool::global().parallelFor(0, 2, [&](std::size_t i) {
        if (i == 0)
            code = body();
    });
    return code;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t
polyBytes(const rns::RnsPolynomial &p)
{
    return p.numLimbs() * p.n() * sizeof(u64);
}

std::size_t
cipherBytes(const ckks::Ciphertext &ct)
{
    return polyBytes(ct.c0) + polyBytes(ct.c1);
}

std::size_t
keyBytes(const ckks::SwitchKey &k)
{
    std::size_t bytes = 0;
    for (std::size_t j = 0; j < k.digits(); ++j)
        bytes += polyBytes(k.b[j]) + polyBytes(k.a[j]);
    return bytes;
}

std::size_t
bundleBytes(const ckks::KeyBundle &keys)
{
    std::size_t bytes = polyBytes(keys.pk.b) + polyBytes(keys.pk.a)
        + keyBytes(keys.relin) + keyBytes(keys.conj);
    for (const auto &[step, k] : keys.rot)
        bytes += keyBytes(k);
    for (const auto &[step, k] : keys.conjRot)
        bytes += keyBytes(k);
    return bytes;
}

std::vector<ckks::Complex>
toSlots(const std::vector<double> &v, std::size_t slots)
{
    std::vector<ckks::Complex> out(slots, ckks::Complex(0, 0));
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = ckks::Complex(v[i], 0);
    return out;
}

std::size_t
argmax(const std::vector<double> &v)
{
    return static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

double
topTwoMargin(std::vector<double> v)
{
    std::sort(v.begin(), v.end(), std::greater<>());
    return v.size() < 2 ? 1.0 : v[0] - v[1];
}

/** Wall-clock split of one set-up, and the checks that follow it. */
struct SetupStats
{
    double compile = 0; ///< context + model compile/plan/schedule
    double keygen = 0;
    double encrypt = 0; ///< input pool encryption + references
    double warmup = 0;
    double total = 0;
    double sumSq = 0;         ///< squared errors of the checked outputs
    std::size_t values = 0;   ///< summed over this many outputs
    std::size_t checked = 0;  ///< requests checked: one per input set
    std::size_t failed = 0;
};

/** Errors of one request's decrypted outputs against the reference. */
struct Check
{
    double maxErr = 0;
    double sumSq = 0; ///< squared errors, summed over `values`
    std::size_t values = 0;
    bool argmaxAgrees = true;

    void
    compare(const std::vector<double> &got, const std::vector<double> &want)
    {
        for (std::size_t i = 0; i < want.size(); ++i) {
            double e = std::abs(got[i] - want[i]);
            maxErr = std::max(maxErr, e);
            sumSq += e * e;
        }
        values += want.size();
    }
};

/** Times a set-up phase into one SetupStats field. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(double &slot) : slot_(slot), t0_(Clock::now()) {}
    ~PhaseTimer() { slot_ += secondsSince(t0_); }
    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    double &slot_;
    Clock::time_point t0_;
};

/**
 * One benchmark workload. setup() builds every object from the seed;
 * request() is the timed call into the library; check() decrypts the
 * last request's output and compares it with the plaintext reference.
 * The base holds the client side every workload shares: context, keys,
 * encryptor and decryptor (derived members that use them are destroyed
 * first).
 */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    virtual void setup(u64 seed, SetupStats &t) = 0;
    virtual void request(std::size_t input) = 0;
    virtual Check check(std::size_t input) const = 0;

    /** Items (HMULTs, images, LSTM steps) one request completes. */
    virtual std::size_t items() const = 0;
    /** Model-level constants reported beside the counters; every
        workload reports the same names, zero where they do not apply. */
    virtual std::map<std::string, double>
    modelInfo() const
    {
        return {{"plan.planned_work", 0},
                {"plan.bootstraps", 0},
                {"graph.fused_groups", 0}};
    }

    const ckks::CkksContext &ctx() const { return *ctx_; }

    /** Key material plus the pre-encrypted input pool, computed from
        the polynomial sizes. */
    std::size_t
    workingSetBytes() const
    {
        return bundleBytes(keys_) + inputBytes();
    }

  protected:
    /** Key generation (timed) and the client's encryptor/decryptor. */
    void
    makeKeys(Rng &rng, const std::vector<s64> &rotations,
             const std::vector<s64> &conjRotations, SetupStats &t)
    {
        {
            PhaseTimer pt(t.keygen);
            sk_ = ctx_->generateSecretKey(rng);
            keys_ = ctx_->generateKeys(sk_, rng, rotations, conjRotations);
        }
        enc_ = std::make_unique<ckks::Encryptor>(*ctx_, keys_.pk);
        dec_ = std::make_unique<ckks::Decryptor>(*ctx_, sk_);
    }

    /** Real parts of the first n decrypted slots of ct. */
    std::vector<double>
    decryptSlots(const ckks::Ciphertext &ct, std::size_t n) const
    {
        auto slots = dec_->decryptAndDecode(ct);
        std::vector<double> out(n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = slots[i].real();
        return out;
    }

    virtual std::size_t inputBytes() const = 0;

    std::unique_ptr<ckks::CkksContext> ctx_;
    ckks::SecretKey sk_;
    ckks::KeyBundle keys_;
    std::unique_ptr<ckks::Encryptor> enc_;
    std::unique_ptr<ckks::Decryptor> dec_;
};

/**
 * hmult_*: BatchedEvaluator::multiply + rescale over a batch of
 * ciphertext pairs, the paper's operation-level-batched HMULT.
 */
class HmultWorkload : public Workload
{
  public:
    explicit HmultWorkload(std::size_t batch) : batch_(batch) {}

    void
    setup(u64 seed, SetupStats &t) override
    {
        {
            PhaseTimer pt(t.compile);
            ctx_ = std::make_unique<ckks::CkksContext>(
                ckks::Presets::small());
        }
        Rng rng(seed);
        makeKeys(rng, {}, {}, t);
        eval_ = std::make_unique<batch::BatchedEvaluator>(*ctx_, keys_);
        {
            PhaseTimer pt(t.encrypt);
            std::size_t slots = ctx_->slots();
            std::size_t lc = ctx_->tower().numQ();
            double scale = ctx_->params().scale();
            auto fresh = [&](std::vector<double> &vals) {
                vals.resize(slots);
                for (auto &v : vals)
                    v = 2 * rng.uniformReal() - 1;
                return enc_->encrypt(
                    ctx_->encoder().encode(toSlots(vals, slots), scale,
                                           lc),
                    rng);
            };
            for (std::size_t s = 0; s < kInputSets; ++s) {
                Set set;
                for (std::size_t b = 0; b < batch_; ++b) {
                    std::vector<double> x, y;
                    set.a.push_back(fresh(x));
                    set.b.push_back(fresh(y));
                    for (std::size_t i = 0; i < slots; ++i)
                        x[i] *= y[i];
                    set.want.push_back(std::move(x));
                }
                sets_.push_back(std::move(set));
            }
        }
        PhaseTimer pt(t.warmup);
        request(0);
    }

    void
    request(std::size_t input) override
    {
        const Set &s = sets_[input];
        out_ = eval_->multiply(s.a, s.b);
        eval_->rescaleInPlace(out_);
    }

    Check
    check(std::size_t input) const override
    {
        Check c;
        for (std::size_t b = 0; b < batch_; ++b)
            c.compare(decryptSlots(out_[b], ctx_->slots()),
                      sets_[input].want[b]);
        return c;
    }

    std::size_t items() const override { return batch_; }

  private:
    std::size_t
    inputBytes() const override
    {
        std::size_t bytes = 0;
        for (const auto &s : sets_)
            for (std::size_t b = 0; b < batch_; ++b)
                bytes += cipherBytes(s.a[b]) + cipherBytes(s.b[b]);
        return bytes;
    }

    struct Set
    {
        std::vector<ckks::Ciphertext> a, b;
        std::vector<std::vector<double>> want;
    };

    std::size_t batch_;
    std::unique_ptr<batch::BatchedEvaluator> eval_;
    std::vector<Set> sets_;
    std::vector<ckks::Ciphertext> out_;
};

/**
 * cnn_* / deep_cnn_*: eager nn::Sequential::run of the CNN classifier
 * over a batch of images. The deep variant is compiled by the global
 * planner and crosses a bootstrap.
 */
class CnnWorkload : public Workload
{
  public:
    CnnWorkload(bool deep, std::size_t batch) : deep_(deep), batch_(batch)
    {}

    void
    setup(u64 seed, SetupStats &t) override
    {
        using workloads::EncryptedCnnClassifier;
        {
            PhaseTimer pt(t.compile);
            ctx_ = std::make_unique<ckks::CkksContext>(
                deep_ ? EncryptedCnnClassifier::recommendedDeepParams()
                      : EncryptedCnnClassifier::recommendedParams());
            auto cfg = workloads::CnnConfig{};
            if (deep_) {
                cfg = EncryptedCnnClassifier::deepConfig();
                cfg.usePlanner = true;
            }
            cnn_ = std::make_unique<EncryptedCnnClassifier>(*ctx_, cfg);
        }
        Rng rng(seed);
        makeKeys(rng, cnn_->requiredRotations(),
                 cnn_->requiredConjRotations(), t);
        engine_ = std::make_unique<nn::NnEngine>(*ctx_, keys_);
        {
            PhaseTimer pt(t.encrypt);
            const auto &meta = cnn_->inputMeta();
            const auto &c = cnn_->config();
            std::size_t pixels = c.inChannels * c.height * c.width;
            for (std::size_t s = 0; s < kInputSets; ++s) {
                Set set;
                for (std::size_t b = 0; b < batch_; ++b) {
                    std::vector<double> img(pixels);
                    std::vector<double> logits;
                    do {
                        for (auto &v : img)
                            v = rng.uniformReal();
                        logits = cnn_->classifyPlain(img).logits;
                    } while (topTwoMargin(logits) < kMinMargin);
                    set.in.push_back(nn::encryptTensor(
                        *ctx_, *enc_, rng, img, meta.shape,
                        meta.levelCount));
                    set.want.push_back(std::move(logits));
                }
                sets_.push_back(std::move(set));
            }
        }
        PhaseTimer pt(t.warmup);
        request(0);
    }

    void
    request(std::size_t input) override
    {
        out_ = cnn_->net().run(*engine_, sets_[input].in);
    }

    Check
    check(std::size_t input) const override
    {
        Check c;
        for (std::size_t b = 0; b < batch_; ++b) {
            auto got = nn::decryptTensor(*ctx_, *dec_, out_[b]);
            const auto &want = sets_[input].want[b];
            c.compare(got, want);
            c.argmaxAgrees &= argmax(got) == argmax(want);
        }
        return c;
    }

    std::size_t items() const override { return batch_; }

    std::map<std::string, double>
    modelInfo() const override
    {
        const auto &plan = cnn_->net().executionPlan();
        auto info = Workload::modelInfo();
        info["plan.planned_work"] = plan.plannedWork();
        info["plan.bootstraps"] = static_cast<double>(plan.bootstrapCount());
        return info;
    }

  private:
    std::size_t
    inputBytes() const override
    {
        std::size_t bytes = 0;
        for (const auto &s : sets_)
            for (const auto &t : s.in)
                for (const auto &ct : t.chunks())
                    bytes += cipherBytes(ct);
        return bytes;
    }

    struct Set
    {
        std::vector<nn::CipherTensor> in;
        std::vector<std::vector<double>> want;
    };

    bool deep_;
    std::size_t batch_;
    std::unique_ptr<workloads::EncryptedCnnClassifier> cnn_;
    std::unique_ptr<nn::NnEngine> engine_;
    std::vector<Set> sets_;
    std::vector<nn::CipherTensor> out_;
};

/**
 * lstm_graph_b1: GraphExecutor::run of one compiled LSTM cell step
 * (fused, prestaged) on one sample.
 */
class LstmGraphWorkload : public Workload
{
  public:
    void
    setup(u64 seed, SetupStats &t) override
    {
        using workloads::EncryptedLstmCell;
        {
            PhaseTimer pt(t.compile);
            ctx_ = std::make_unique<ckks::CkksContext>(
                EncryptedLstmCell::recommendedParams());
            cell_ = std::make_unique<EncryptedLstmCell>(*ctx_);
            graph_ = std::make_unique<graph::Graph>(
                cell_->buildStepGraph(*ctx_));
            auto sched = graph::scheduleGraph(*graph_);
            fusedGroups_ = sched.fusedGroups;
            exec_ = std::make_unique<graph::GraphExecutor>(
                *graph_, std::move(sched));
        }
        Rng rng(seed);
        makeKeys(rng, cell_->requiredRotations(), {}, t);
        engine_ = std::make_unique<nn::NnEngine>(*ctx_, keys_);
        {
            PhaseTimer pt(t.compile);
            exec_->prestageWorkspace(*engine_, 1);
        }
        {
            PhaseTimer pt(t.encrypt);
            std::size_t d = cell_->config().dim;
            const auto &meta = cell_->inputMeta();
            auto draw = [&] {
                std::vector<double> v(d);
                for (auto &x : v)
                    x = 2 * rng.uniformReal() - 1;
                return v;
            };
            for (std::size_t s = 0; s < kInputSets; ++s) {
                auto x = draw();
                EncryptedLstmCell::PlainState prev{draw(), draw()};
                std::vector<graph::Cts> in;
                for (const auto *v : {&x, &prev.h, &prev.c})
                    in.push_back(nn::encryptTensor(*ctx_, *enc_, rng, *v,
                                                   meta.shape,
                                                   meta.levelCount)
                                     .chunks());
                sets_.push_back({std::move(in),
                                 cell_->stepPlain(x, prev)});
            }
        }
        PhaseTimer pt(t.warmup);
        request(0);
    }

    void
    request(std::size_t input) override
    {
        out_ = exec_->run(*engine_, sets_[input].in);
    }

    Check
    check(std::size_t input) const override
    {
        Check c;
        const auto &want = sets_[input].want;
        c.compare(decryptSlots(out_.outputs[0][0], want.h.size()), want.h);
        c.compare(decryptSlots(out_.outputs[1][0], want.c.size()), want.c);
        return c;
    }

    std::size_t items() const override { return 1; }

    std::map<std::string, double>
    modelInfo() const override
    {
        auto info = Workload::modelInfo();
        info["graph.fused_groups"] = static_cast<double>(fusedGroups_);
        return info;
    }

  private:
    std::size_t
    inputBytes() const override
    {
        std::size_t bytes = 0;
        for (const auto &s : sets_)
            for (const auto &cts : s.in)
                for (const auto &ct : cts)
                    bytes += cipherBytes(ct);
        return bytes;
    }

    struct Set
    {
        std::vector<graph::Cts> in;
        workloads::EncryptedLstmCell::PlainState want;
    };

    std::unique_ptr<workloads::EncryptedLstmCell> cell_;
    std::unique_ptr<graph::Graph> graph_;
    std::unique_ptr<graph::GraphExecutor> exec_;
    std::size_t fusedGroups_ = 0;
    std::unique_ptr<nn::NnEngine> engine_;
    std::vector<Set> sets_;
    graph::ExecResult out_;
};

const std::vector<std::string> kWorkloads = {"hmult_b16", "cnn_b4",
                                             "deep_cnn_b1",
                                             "lstm_graph_b1"};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "hmult_b16")
        return std::make_unique<HmultWorkload>(16);
    if (name == "cnn_b4")
        return std::make_unique<CnnWorkload>(false, 4);
    if (name == "deep_cnn_b1")
        return std::make_unique<CnnWorkload>(true, 1);
    if (name == "lstm_graph_b1")
        return std::make_unique<LstmGraphWorkload>();
    return nullptr;
}

/** Linear-interpolated quantile of an unsorted sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Requests after which peak_rss_mb is read (see runPhase). */
constexpr std::size_t kRssRequests = 20;
/** Equal time slices a measured phase is cut into (see quietest). */
constexpr std::size_t kRounds = 4;

struct rusage
selfUsage()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

double
peakRssMb()
{
    return static_cast<double>(selfUsage().ru_maxrss) / 1024.0; // KiB -> MiB
}

/** What one closed-loop phase observed. */
struct Phase
{
    std::vector<double> starts;    ///< seconds into the phase
    std::vector<double> latencies; ///< seconds, one per request
    std::vector<bool> ok;
    std::size_t failed = 0;
    double worstPrecisionBits = INFINITY; ///< min of -log2(max error)
    /** Registry deltas summed over the requests. */
    trace::MetricsSnapshot counters;
    double minorFaults = 0;
    double rssAfterFirstMb = 0; ///< peak RSS after kRssRequests
    double rssEndMb = 0;
};

/**
 * Closed loop: issue requests until `seconds` pass (at least
 * `minRequests`, at most `maxRequests` when nonzero). Registry deltas
 * are taken around the request only, so the checks' decryptions do not
 * pollute the per-request counters.
 *
 * Peak RSS is also read after a fixed number of requests, so that the
 * reported figure does not grow with the number of requests a faster
 * engine fits into the run while memory grows per request.
 */
Phase
runPhase(Workload &w, double seconds, std::size_t minRequests,
         std::size_t maxRequests)
{
    auto &reg = trace::MetricsRegistry::instance();
    Phase p;
    std::size_t next = 0; // set-up's last request used the last input
    long faults0 = selfUsage().ru_minflt;
    auto t0 = Clock::now();
    while ((secondsSince(t0) < seconds || p.latencies.size() < minRequests)
           && (maxRequests == 0 || p.latencies.size() < maxRequests)) {
        std::size_t input = next++ % kInputSets;
        auto before = reg.snapshot();
        bool ok = true;
        p.starts.push_back(secondsSince(t0));
        auto r0 = Clock::now();
        try {
            trace::TraceSpan sp("bench", "request");
            w.request(input);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "request %zu threw: %s\n",
                         p.latencies.size(), e.what());
            ok = false;
        }
        p.latencies.push_back(secondsSince(r0));
        for (const auto &[k, v] : reg.snapshot())
            p.counters[k] += v - before[k];
        if (p.latencies.size() == kRssRequests)
            p.rssAfterFirstMb = peakRssMb();
        if (ok) {
            trace::TraceSpan sp("bench", "check");
            Check c = w.check(input);
            p.worstPrecisionBits =
                std::min(p.worstPrecisionBits, -std::log2(c.maxErr));
            if (!(c.maxErr < kErrorBound) || !c.argmaxAgrees) {
                std::fprintf(stderr,
                             "request %zu wrong: max error %.3g, argmax "
                             "%s\n",
                             p.latencies.size() - 1, c.maxErr,
                             c.argmaxAgrees ? "agrees" : "disagrees");
                ok = false;
            }
        }
        p.ok.push_back(ok);
        p.failed += ok ? 0 : 1;
    }
    p.minorFaults = static_cast<double>(selfUsage().ru_minflt - faults0);
    p.rssEndMb = peakRssMb();
    if (p.latencies.size() < kRssRequests)
        p.rssAfterFirstMb = p.rssEndMb;
    return p;
}

/** Throughput and median latency of one slice of a phase. */
struct Slice
{
    double itemsPerS = 0;
    double p50 = 0; ///< seconds
};

/** The phase cut into kRounds equal time slices, in time order. */
std::vector<Slice>
slices(const Phase &p, std::size_t items, double seconds)
{
    std::vector<Slice> out;
    for (std::size_t r = 0; r < kRounds; ++r) {
        double lo = seconds * static_cast<double>(r) / kRounds;
        double hi = seconds * static_cast<double>(r + 1) / kRounds;
        std::vector<double> lat;
        double busy = 0;
        double done = 0;
        for (std::size_t i = 0; i < p.starts.size(); ++i) {
            if (p.starts[i] < lo || (p.starts[i] >= hi && r + 1 < kRounds))
                continue;
            lat.push_back(p.latencies[i]);
            busy += p.latencies[i];
            done += p.ok[i] ? static_cast<double>(items) : 0;
        }
        out.push_back({busy > 0 ? done / busy : 0, quantile(lat, 0.5)});
    }
    return out;
}

/**
 * The slice with the highest throughput. Interference from other
 * tenants of a shared machine only ever slows a slice down, and much of
 * it comes in bursts of a few seconds, so the quietest slice is the
 * steadiest estimate of what the code does: the min-of-rounds
 * discipline of bench_fault_overhead, within one run.
 */
Slice
quietest(const std::vector<Slice> &s)
{
    return *std::max_element(s.begin(), s.end(),
                             [](const Slice &a, const Slice &b) {
                                 return a.itemsPerS < b.itemsPerS;
                             });
}

/**
 * Set up `times` times on fresh objects and keep the last. Set-up i
 * draws its keys and inputs from seed * kSetups + i. After the timed
 * set-up, the remaining inputs of the pool are run and every input's
 * output is checked, untimed: the output error depends on the key and
 * the encryption, so the run's precision pools many of both rather
 * than one draw's luck.
 */
std::unique_ptr<Workload>
setUp(const std::string &name, u64 seed, std::size_t times,
      std::vector<SetupStats> &out)
{
    std::unique_ptr<Workload> w;
    for (std::size_t i = 0; i < times; ++i) {
        w.reset();
        w = makeWorkload(name);
        SetupStats t;
        auto t0 = Clock::now();
        w->setup(seed * kSetups + i, t);
        t.total = secondsSince(t0);
        for (std::size_t input = 0; input < kInputSets; ++input) {
            if (input > 0) // input 0 was the warm-up request
                w->request(input);
            Check c = w->check(input);
            t.sumSq += c.sumSq;
            t.values += c.values;
            ++t.checked;
            t.failed += c.maxErr < kErrorBound && c.argmaxAgrees ? 0 : 1;
        }
        out.push_back(t);
    }
    return w;
}

/** -log2 of the RMS output error, pooled over set-ups. */
double
pooledPrecisionBits(const std::vector<SetupStats> &v)
{
    double sumSq = 0;
    double values = 0;
    for (const auto &t : v) {
        sumSq += t.sumSq;
        values += static_cast<double>(t.values);
    }
    return -0.5 * std::log2(sumSq / values);
}

double
medianOf(const std::vector<SetupStats> &v, double SetupStats::*field)
{
    std::vector<double> xs;
    for (const auto &t : v)
        xs.push_back(t.*field);
    return quantile(xs, 0.5);
}

/** Minimal JSON object writer. */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(k, buf);
    }
    Json &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }
    Json &
    obj(const std::string &k, const Json &o)
    {
        return raw(k, o.text());
    }
    Json &
    raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Per-request layer counters of an untraced phase, named as in
    BENCHMARK.json's per_layer list. */
Json
layerCounters(const Phase &p)
{
    const std::pair<const char *, KernelKind> kernels[] = {
        {"ntt", KernelKind::Ntt},
        {"intt", KernelKind::Intt},
        {"conv", KernelKind::Conv},
        {"hadamult", KernelKind::HadaMult},
        {"frobenius", KernelKind::FrobeniusMap},
        {"eleadd", KernelKind::EleAdd},
        {"fusedele", KernelKind::FusedEle},
    };
    const std::pair<const char *, EvalOpKind> ops[] = {
        {"hmult", EvalOpKind::HMult},     {"cmult", EvalOpKind::CMult},
        {"hadd", EvalOpKind::HAdd},       {"hrotate", EvalOpKind::HRotate},
        {"conjugate", EvalOpKind::Conjugate},
        {"rescale", EvalOpKind::Rescale}, {"ks_hoist", EvalOpKind::KsHoist},
        {"ks_tail", EvalOpKind::KsTail},
    };
    double reqs = static_cast<double>(p.latencies.size());
    auto get = [&](const std::string &k) {
        auto it = p.counters.find(k);
        return it == p.counters.end() ? 0.0 : it->second;
    };
    auto kernelKey = [](KernelKind k, const char *field) {
        return std::string("kernel.") + kernelKindName(k) + "." + field;
    };

    Json j;
    double allNanos = 0;
    double launches = 0;
    for (std::size_t i = 0; i < kNumKernelKinds; ++i) {
        auto kind = static_cast<KernelKind>(i);
        allNanos += get(kernelKey(kind, "nanos"));
        launches += get(kernelKey(kind, "invocations"));
    }
    for (const auto &[key, kind] : kernels) {
        double nanos = get(kernelKey(kind, "nanos"));
        double elems = get(kernelKey(kind, "elements"));
        std::string out = std::string("kernel.") + key;
        j.num(out + ".calls", get(kernelKey(kind, "invocations")) / reqs)
            .num(out + ".busy_ms", nanos * 1e-6 / reqs)
            .num(out + ".melem_per_s", nanos > 0 ? elems * 1e3 / nanos : 0);
    }
    double wall = 0;
    for (double s : p.latencies)
        wall += s;
    j.num("kernel.launches", launches / reqs)
        .num("kernel.busy_frac",
             allNanos * 1e-9 / (wall * static_cast<double>(kLanes)));

    for (const auto &[key, kind] : ops)
        j.num(std::string("exec.") + key,
              get(std::string("evalop.") + evalOpKindName(kind) + ".count")
                  / reqs);
    j.num("rns.modups", get("evalop.modups") / reqs)
        .num("rns.moddowns", get("evalop.moddowns") / reqs);

    double allocs = get("workspace.allocs");
    double reuses = get("workspace.reuses");
    double returns = get("workspace.returns");
    j.num("exec.workspace_allocs", allocs / reqs)
        .num("exec.workspace_reuse_rate",
             allocs + reuses > 0 ? reuses / (allocs + reuses) : 0)
        .num("exec.workspace_pool_growth", (returns - reuses) / reqs);

    double later = reqs - static_cast<double>(kRssRequests);
    j.num("mem.rss_growth_kb_per_request",
          later > 0 ? (p.rssEndMb - p.rssAfterFirstMb) * 1024 / later : 0)
        .num("mem.minor_faults", p.minorFaults / reqs)
        .num("check.worst_error_bits", p.worstPrecisionBits)
        .num("latency.p75_ms", 1e3 * quantile(p.latencies, 0.75));
    return j;
}

/**
 * What a result depends on besides the code: compare refuses to put
 * results with different stamps side by side.
 */
Json
envStamp(const Workload &w, u64 seed)
{
    const auto &ctx = w.ctx();
    const auto &params = ctx.params();
    Json j;
    j.str("simd", simd::backendName(simd::activeBackend()))
        .num("lanes", static_cast<double>(kLanes))
        .num("pool_lanes", static_cast<double>(ThreadPool::global().lanes()))
        .num("nproc", std::thread::hardware_concurrency())
        .num("n", static_cast<double>(params.n))
        .num("limbs", static_cast<double>(ctx.tower().numQ()))
        .num("special", static_cast<double>(ctx.tower().numP()))
        .num("dnum", params.effectiveDnum())
        .num("batch", static_cast<double>(w.items()))
        .num("seed", static_cast<double>(seed))
        .num("working_set_bytes", static_cast<double>(w.workingSetBytes()))
        .num("llc_bytes",
             static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
    return j;
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 0;
    std::string jsonPath;
    std::string tracePath;
    bool smoke = false;
};

int
runWorkload(const Args &a)
{
    std::vector<SetupStats> setups;
    auto w = setUp(a.workload, a.seed, kSetups, setups);

    bool traced = !a.tracePath.empty();
    double seconds = traced ? a.seconds / 2 : a.seconds;
    Phase p = runPhase(*w, seconds, 1, 0);
    auto ps = slices(p, w->items(), seconds);

    // The second half is two quarters, untraced then traced, each
    // after its own fresh set-up. Both follow a measured phase whose
    // memory was just freed, so the allocator serves them alike and
    // their latencies give the tracing overhead.
    Phase up, tp;
    std::vector<SetupStats> lateSetups;
    if (traced) {
        w = setUp(a.workload, a.seed, 1, lateSetups);
        up = runPhase(*w, seconds / 2, 1, 0);
        w = setUp(a.workload, a.seed, 1, lateSetups);
        trace::Tracer::instance().arm(std::size_t(1) << 22);
        tp = runPhase(*w, seconds / 2, 1, 0);
        trace::Tracer::instance().disarm();
        if (!trace::Tracer::instance().writeChromeJson(a.tracePath)) {
            std::fprintf(stderr, "cannot write %s\n", a.tracePath.c_str());
            return 1;
        }
    }

    // Set-up's requests are checked too, so they count as attempts.
    std::size_t requests =
        p.latencies.size() + up.latencies.size() + tp.latencies.size();
    std::size_t failed = p.failed + up.failed + tp.failed;
    for (const auto *v : {&setups, &lateSetups})
        for (const auto &t : *v) {
            requests += t.checked;
            failed += t.failed;
        }

    Json e2e;
    e2e.num("setup_s", medianOf(setups, &SetupStats::total))
        .num("items_per_s", quietest(ps).itemsPerS)
        .num("latency_p50_ms", 1e3 * quietest(ps).p50)
        .num("precision_bits", pooledPrecisionBits(setups))
        .num("peak_rss_mb", p.rssAfterFirstMb);

    Json layers = layerCounters(p);
    layers.num("setup.compile_s", medianOf(setups, &SetupStats::compile))
        .num("setup.keygen_s", medianOf(setups, &SetupStats::keygen))
        .num("setup.encrypt_s", medianOf(setups, &SetupStats::encrypt))
        .num("setup.warmup_s", medianOf(setups, &SetupStats::warmup))
        .num("latency.growth_frac", ps.back().p50 / ps.front().p50 - 1);
    for (const auto &[k, v] : w->modelInfo())
        layers.num(k, v);
    if (traced) {
        auto p50 = [&](const Phase &q) {
            return quietest(slices(q, w->items(), seconds / 2)).p50;
        };
        layers.num("trace.overhead_frac", p50(tp) / p50(up) - 1)
            .num("trace.spans_dropped",
                 static_cast<double>(
                     trace::Tracer::instance().droppedSpans()));
    }

    Json stamp = envStamp(*w, a.seed);
    Json out;
    out.str("workload", a.workload)
        .raw("traced", traced ? "true" : "false")
        .num("attempted", static_cast<double>(requests))
        .num("failed", static_cast<double>(failed))
        .obj("stamp", stamp)
        .obj("metrics", e2e)
        .obj("layers", layers);

    std::printf("%s seed %llu: %zu requests, %zu failed\n  stamp %s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                requests, failed, stamp.text().c_str());

    std::FILE *f = std::fopen(a.jsonPath.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", a.jsonPath.c_str());
        return 1;
    }
    std::string text = out.text() + "\n";
    bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    written &= std::fclose(f) == 0;
    if (!written) {
        std::fprintf(stderr, "cannot write %s\n", a.jsonPath.c_str());
        return 1;
    }
    return 0;
}

/**
 * Two same-seed runs of a few requests per workload must agree on
 * every exact counter and on precision_bits, and fail nothing.
 */
int
runSmoke()
{
    bool ok = true;
    for (const auto &name : kWorkloads) {
        Phase runs[2];
        std::vector<SetupStats> setups[2];
        for (int i = 0; i < 2; ++i) {
            auto w = setUp(name, 1, 1, setups[i]);
            runs[i] = runPhase(*w, 0, kSmokeRequests, kSmokeRequests);
        }
        std::size_t mismatches = 0;
        for (const auto &[k, v] : runs[0].counters) {
            // Times and the tracer's own counts are not exact.
            bool exact = k.find(".nanos") == std::string::npos
                && k.rfind("trace.", 0) != 0;
            if (exact && runs[1].counters[k] != v) {
                std::printf("  %s: counter %s differs (%.17g vs %.17g)\n",
                            name.c_str(), k.c_str(), v,
                            runs[1].counters[k]);
                ++mismatches;
            }
        }
        double bits[2] = {pooledPrecisionBits(setups[0]),
                          pooledPrecisionBits(setups[1])};
        if (bits[0] != bits[1]
            || runs[0].worstPrecisionBits != runs[1].worstPrecisionBits) {
            std::printf("  %s: precision differs (%.17g vs %.17g bits)\n",
                        name.c_str(), bits[0], bits[1]);
            ++mismatches;
        }
        std::size_t failed = runs[0].failed + runs[1].failed;
        for (const auto &s : setups)
            failed += s[0].failed;
        std::printf("%-14s %zu failed, %zu mismatches, precision %.3f "
                    "bits\n",
                    name.c_str(), failed, mismatches, bits[0]);
        ok &= failed == 0 && mismatches == 0;
    }
    std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: fhebench --workload W --seed S --seconds T "
                 "--json OUT [--trace TRACE.json]\n"
                 "       fhebench --smoke\n"
                 "workloads:");
    for (const auto &w : kWorkloads)
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        bool has = i + 1 < argc;
        if (k == "--smoke")
            a.smoke = true;
        else if (k == "--workload" && has)
            a.workload = argv[++i];
        else if (k == "--seed" && has)
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (k == "--seconds" && has)
            a.seconds = std::strtod(argv[++i], nullptr);
        else if (k == "--json" && has)
            a.jsonPath = argv[++i];
        else if (k == "--trace" && has)
            a.tracePath = argv[++i];
        else
            return usage();
    }
    if (!a.smoke
        && (!makeWorkload(a.workload) || a.jsonPath.empty()
            || !(a.seconds > 0)))
        return usage();
    return onOneLane([&] {
        try {
            return a.smoke ? runSmoke() : runWorkload(a);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "fhebench: %s\n", e.what());
            return 1;
        }
    });
}
