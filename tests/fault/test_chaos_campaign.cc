/**
 * @file
 * Seeded chaos campaign: >= 200 injected faults across every fault
 * kind and every instrumented site, each trial ending in exactly one
 * of two acceptable states — the run completes BIT-identically to the
 * fault-free reference (transient recovered by retry), or a typed
 * error (TransientFault / IntegrityError) surfaces and the engine
 * stays reusable (checkpoint resume or a clean re-run reproduces the
 * reference bits, zero outstanding workspace leases). Any other
 * outcome — wrong bits, an untyped exception, a leaked lease — fails
 * the campaign: that is the "zero silent corruptions" bar.
 *
 * The campaign is deterministic for a given seed. Override with
 * TENSORFHE_CHAOS_SEED; set TENSORFHE_CHAOS_REPORT to a path to
 * append a per-campaign summary line (CI uploads it as an artifact).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/errors.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "graph/executor.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace tensorfhe::graph
{
namespace
{

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using workloads::EncryptedCnnClassifier;
using workloads::EncryptedLstmCell;

u64
campaignSeed()
{
    const char *s = std::getenv("TENSORFHE_CHAOS_SEED");
    return s != nullptr ? std::strtoull(s, nullptr, 10) : 20260808ull;
}

void
appendReport(const std::string &line)
{
    logMessage(LogLevel::Info, "chaos", line);
    const char *path = std::getenv("TENSORFHE_CHAOS_REPORT");
    if (path == nullptr)
        return;
    std::ofstream out(path, std::ios::app);
    out << line << "\n";
}

bool
bitIdentical(const Cts &a, const Cts &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s].levelCount() != b[s].levelCount()
            || a[s].scale != b[s].scale)
            return false;
        for (std::size_t l = 0; l < a[s].c0.numLimbs(); ++l)
            for (std::size_t k = 0; k < a[s].c0.n(); ++k)
                if (a[s].c0.limb(l)[k] != b[s].c0.limb(l)[k]
                    || a[s].c1.limb(l)[k] != b[s].c1.limb(l)[k])
                    return false;
    }
    return true;
}

bool
allBitIdentical(const std::vector<Cts> &a, const std::vector<Cts> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!bitIdentical(a[i], b[i]))
            return false;
    return true;
}

Cts
flatten(const std::vector<nn::CipherTensor> &samples)
{
    Cts flat;
    for (const auto &t : samples)
        for (const auto &ct : t.chunks())
            flat.push_back(ct);
    return flat;
}

constexpr FaultKind kControlKinds[] = {FaultKind::TransientKernel,
                                       FaultKind::AllocFail};
constexpr FaultKind kDataKinds[] = {FaultKind::LimbBitFlip,
                                    FaultKind::MetaCorrupt};

/** Every (site, kind) pair the profiled run can actually reach. */
std::vector<std::pair<std::string, FaultKind>>
reachablePairs(const std::map<std::string, u64> &hits)
{
    std::vector<std::pair<std::string, FaultKind>> pairs;
    for (const auto &site : fault::knownSites()) {
        auto it = hits.find(site.name);
        if (it == hits.end() || it->second == 0)
            continue;
        for (FaultKind k : kControlKinds)
            pairs.emplace_back(site.name, k);
        if (site.dataCapable)
            for (FaultKind k : kDataKinds)
                pairs.emplace_back(site.name, k);
    }
    return pairs;
}

// The bulk of the campaign rides the LSTM step graph: it reaches
// every exec-layer site and both value boundaries, and a single run
// is cheap enough to afford ~184 trials.
TEST(ChaosCampaign, LstmGraphSurvivesSeededInjections)
{
    ckks::CkksContext ctx(EncryptedLstmCell::recommendedParams());
    EncryptedLstmCell cell(ctx);
    Rng rng(95);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cell.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);
    auto &ws = engine.dispatcher().workspace();
    ws.setLeaseTracking(true);

    auto mk = [&](u64 seed) {
        Rng r(seed);
        std::vector<double> v(cell.config().dim);
        for (auto &x : v)
            x = 2 * r.uniformReal() - 1;
        return nn::encryptTensor(ctx, enc, rng, v,
                                 cell.inputMeta().shape,
                                 cell.inputMeta().levelCount);
    };
    auto x = mk(271);
    EncryptedLstmCell::State prev{mk(272), mk(273)};
    std::vector<Cts> inputs{x.chunks(), prev.h.chunks(),
                            prev.c.chunks()};

    auto g = cell.buildStepGraph(ctx);
    GraphExecutor ex(g, scheduleGraph(g));
    ex.run(engine, inputs); // warm plan caches

    FaultPlan::instance().startCounting();
    auto ref = ex.run(engine, inputs).outputs;
    auto hits = FaultPlan::instance().stopCounting();
    auto pairs = reachablePairs(hits);
    ASSERT_GE(pairs.size(), 14u) << "site coverage collapsed";

    const u64 seed = campaignSeed();
    Rng draw(seed);
    const std::size_t target = 184;
    std::size_t trials = 0, fired = 0, completed = 0, typed = 0,
                resumed = 0, rerun = 0, silent = 0;
    std::map<std::string, std::size_t> perPair;

    while (fired < target) {
        const auto &[site, kind] = pairs[trials % pairs.size()];
        FaultSpec spec{site, kind, draw.uniform(hits[site]),
                       seed + trials};
        ++trials;
        ASSERT_LT(trials, 4 * target) << "campaign failed to fire";
        FaultPlan::instance().arm(spec);

        std::vector<resilience::Checkpoint> log;
        ExecOptions opt;
        opt.paranoid = true;
        opt.retry.maxAttempts = 3;
        opt.checkpointEvery = 5;
        opt.checkpointLog = &log;

        bool ok = false;
        std::vector<Cts> out;
        try {
            out = ex.run(engine, inputs, opt).outputs;
            ok = true;
        } catch (const TransientFault &e) {
            ++typed;
            EXPECT_TRUE(e.hasNode()) << site;
        } catch (const IntegrityError &e) {
            ++typed;
            EXPECT_TRUE(e.hasNode() || !log.empty()) << site;
        }
        // Any OTHER exception type escapes and fails the test: the
        // taxonomy contract is part of the campaign.

        bool did_fire = FaultPlan::instance().fired();
        FaultPlan::instance().disarm();
        ASSERT_TRUE(did_fire)
            << site << " trigger " << spec.triggerHit << " of "
            << hits[site] << " never fired";
        ++fired;
        perPair[site + "/" + fault::faultKindName(kind)] += 1;

        EXPECT_EQ(ws.outstandingLeases(), 0u)
            << site << " leaked a workspace lease";

        if (ok) {
            ++completed;
            if (!allBitIdentical(out, ref)) {
                ++silent;
                ADD_FAILURE() << "SILENT CORRUPTION: " << site << "/"
                              << fault::faultKindName(kind)
                              << " trigger " << spec.triggerHit
                              << " seed " << spec.seed;
            }
            continue;
        }
        // Failed run: the engine must still be usable. Prefer the
        // checkpoint path when the run got far enough to take one.
        if (!log.empty()) {
            ++resumed;
            auto r = ex.resumeFrom(engine, log.back(), opt);
            EXPECT_TRUE(allBitIdentical(r.outputs, ref))
                << site << ": resume after failure diverged";
        } else {
            ++rerun;
            auto r = ex.run(engine, inputs, opt);
            EXPECT_TRUE(allBitIdentical(r.outputs, ref))
                << site << ": re-run after failure diverged";
        }
    }

    EXPECT_EQ(silent, 0u);
    EXPECT_EQ(completed + typed, fired);
    // Every reachable (site, kind) pair fired at least once.
    for (const auto &[site, kind] : pairs)
        EXPECT_GE(perPair[site + "/" + fault::faultKindName(kind)], 1u);

    std::ostringstream line;
    line << "lstm-campaign seed=" << seed << " trials=" << trials
         << " fired=" << fired << " completed=" << completed
         << " typed=" << typed << " resumed=" << resumed
         << " rerun=" << rerun << " silent=" << silent;
    appendReport(line.str());
}

// The deep CNN reaches the bootstrap sine stage (inside the spliced
// LayerApply); a handful of trials covers both control kinds there.
TEST(ChaosCampaign, BootstrapSineStageRecoversUnderInjection)
{
    ckks::CkksContext ctx(
        EncryptedCnnClassifier::recommendedDeepParams());
    EncryptedCnnClassifier cnn(ctx,
                               EncryptedCnnClassifier::deepConfig());
    Rng rng(97);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cnn.requiredRotations(),
                                 cnn.requiredConjRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);
    auto &ws = engine.dispatcher().workspace();
    ws.setLeaseTracking(true);

    Rng ir(801);
    const auto &meta = cnn.inputMeta();
    std::vector<double> img(cnn.config().inChannels
                            * cnn.config().height
                            * cnn.config().width);
    for (auto &v : img)
        v = ir.uniformReal();
    auto image = nn::encryptTensor(ctx, enc, rng, img, meta.shape,
                                   meta.levelCount);

    auto g = compileSequential(ctx, cnn.net());
    GraphExecutor ex(g, scheduleGraph(g));
    std::vector<Cts> inputs{flatten({image})};
    ex.run(engine, inputs);

    FaultPlan::instance().startCounting();
    auto ref = ex.run(engine, inputs).outputs;
    auto hits = FaultPlan::instance().stopCounting();
    ASSERT_GT(hits["boot/sine-stage"], 0u)
        << "deep graph never reached the sine stage";

    const u64 seed = campaignSeed();
    Rng draw(seed ^ 0xb0075ull);
    std::size_t fired = 0;
    for (std::size_t t = 0; t < 8; ++t) {
        FaultKind kind = kControlKinds[t % 2];
        FaultPlan::instance().arm(
            {"boot/sine-stage", kind,
             draw.uniform(hits["boot/sine-stage"]), seed + 1000 + t});
        ExecOptions opt;
        opt.paranoid = true;
        opt.retry.maxAttempts = 3;
        auto res = ex.run(engine, inputs, opt);
        ASSERT_TRUE(FaultPlan::instance().fired());
        FaultPlan::instance().disarm();
        ++fired;
        EXPECT_GE(res.retriesUsed, 1u);
        EXPECT_TRUE(allBitIdentical(res.outputs, ref));
        EXPECT_EQ(ws.outstandingLeases(), 0u);
    }
    appendReport("sine-campaign seed=" + std::to_string(seed)
                 + " fired=" + std::to_string(fired) + " silent=0");
}

// The GPU-model replay dispatcher is outside the executor's retry
// scope: an injected launch fault must surface typed and leave the
// queue replayable.
TEST(ChaosCampaign, ReplayDispatchFaultsSurfaceTypedAndRecover)
{
    ckks::CkksContext ctx(EncryptedLstmCell::recommendedParams());
    EncryptedLstmCell cell(ctx);
    Rng rng(95);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cell.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);

    auto mk = [&](u64 seed) {
        Rng r(seed);
        std::vector<double> v(cell.config().dim);
        for (auto &x : v)
            x = 2 * r.uniformReal() - 1;
        return nn::encryptTensor(ctx, enc, rng, v,
                                 cell.inputMeta().shape,
                                 cell.inputMeta().levelCount);
    };
    auto x = mk(371);
    EncryptedLstmCell::State prev{mk(372), mk(373)};
    std::vector<Cts> inputs{x.chunks(), prev.h.chunks(),
                            prev.c.chunks()};

    auto g = cell.buildStepGraph(ctx);
    GraphExecutor ex(g, scheduleGraph(g));
    ex.run(engine, inputs);
    ExecOptions cap;
    cap.captureSchedule = true;
    auto queue = ex.run(engine, inputs, cap).schedule;
    ASSERT_FALSE(queue.empty());

    std::size_t n = ctx.params().n;
    auto clean = gpu::replayScheduledQueue(queue, n);

    FaultPlan::instance().startCounting();
    gpu::replayScheduledQueue(queue, n);
    auto hits = FaultPlan::instance().stopCounting();
    ASSERT_GT(hits["gpu/replay-dispatch"], 0u);

    const u64 seed = campaignSeed();
    Rng draw(seed ^ 0x6e7aull);
    std::size_t fired = 0;
    for (std::size_t t = 0; t < 8; ++t) {
        FaultPlan::instance().arm(
            {"gpu/replay-dispatch", kControlKinds[t % 2],
             draw.uniform(hits["gpu/replay-dispatch"]),
             seed + 2000 + t});
        try {
            gpu::replayScheduledQueue(queue, n);
            FAIL() << "injected dispatch fault completed silently";
        } catch (const TransientFault &e) {
            EXPECT_EQ(e.site(), "gpu/replay-dispatch");
        }
        ASSERT_TRUE(FaultPlan::instance().fired());
        FaultPlan::instance().disarm();
        ++fired;
        // The queue is untouched by the failed replay: the model
        // reproduces the exact fault-free timeline.
        auto again = gpu::replayScheduledQueue(queue, n);
        EXPECT_EQ(again.makespanCycles, clean.makespanCycles);
        EXPECT_EQ(again.serialCycles, clean.serialCycles);
        EXPECT_EQ(again.streamsUsed, clean.streamsUsed);
    }
    appendReport("replay-campaign seed=" + std::to_string(seed)
                 + " fired=" + std::to_string(fired) + " silent=0");
}

} // namespace
} // namespace tensorfhe::graph
