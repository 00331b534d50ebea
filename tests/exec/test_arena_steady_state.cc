/**
 * @file
 * Arena steady state on the shipped workloads: after one warm-up,
 * further runs of the CNN (eager nn::Sequential) and of the LSTM step
 * graph cycle a fixed exec::Workspace pool. Net pool growth per run —
 * buffers returned minus buffers taken back out — stays at zero (or a
 * named, bounded amount that dies out), and no run pays the allocator
 * for scratch, because the dispatcher's donations are matched by
 * arena-drawn outputs. Nor does a run fault in fresh pages: what it
 * still takes from malloc (outputs, evaluator copies) comes back from
 * a heap that the workspace keeps mapped.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>

#include "graph/executor.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace tensorfhe::exec
{
namespace
{

using workloads::EncryptedCnnClassifier;
using workloads::EncryptedLstmCell;

struct RunTraffic
{
    s64 growth = 0; ///< returns - reuses
    u64 allocs = 0;
};

/** Arena traffic of each of `runs` runs after one warm-up run. */
template <typename Run>
std::vector<RunTraffic>
trafficPerRun(Workspace &ws, int runs, Run &&run)
{
    run();
    std::vector<RunTraffic> out;
    for (int r = 0; r < runs; ++r) {
        ws.resetStats();
        run();
        auto s = ws.stats();
        out.push_back({static_cast<s64>(s.returns)
                           - static_cast<s64>(s.reuses),
                       s.allocs});
    }
    return out;
}

/** Minor page faults of the whole process so far. */
long
minorFaults()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

nn::CipherTensor
encryptRandom(const ckks::CkksContext &ctx, const ckks::Encryptor &enc,
              Rng &rng, const nn::TensorMeta &meta, std::size_t count)
{
    std::vector<double> v(count);
    for (auto &x : v)
        x = 2 * rng.uniformReal() - 1;
    return nn::encryptTensor(ctx, enc, rng, v, meta.shape,
                             meta.levelCount);
}

TEST(ArenaSteadyState, CnnSequentialRunsDoNotGrowThePool)
{
    ckks::CkksContext ctx(EncryptedCnnClassifier::recommendedParams());
    EncryptedCnnClassifier cnn(ctx);
    Rng rng(31);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cnn.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);
    const auto &c = cnn.config();
    auto img = encryptRandom(ctx, enc, rng, cnn.inputMeta(),
                             c.inChannels * c.height * c.width);

    auto &ws = engine.dispatcher().workspace();
    auto runs = trafficPerRun(ws, 3, [&] {
        (void)cnn.net().run(engine, img);
    });
    for (std::size_t r = 0; r < runs.size(); ++r) {
        EXPECT_EQ(runs[r].growth, 0) << "run " << r;
        EXPECT_EQ(runs[r].allocs, 0u) << "run " << r;
    }
}

TEST(ArenaSteadyState, LstmStepGraphRunsStopGrowingThePool)
{
    ckks::CkksContext ctx(EncryptedLstmCell::recommendedParams());
    EncryptedLstmCell cell(ctx);
    Rng rng(37);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cell.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);
    std::size_t dim = cell.config().dim;
    auto x = encryptRandom(ctx, enc, rng, cell.inputMeta(), dim);
    auto h = encryptRandom(ctx, enc, rng, cell.inputMeta(), dim);
    auto cst = encryptRandom(ctx, enc, rng, cell.inputMeta(), dim);

    auto g = cell.buildStepGraph(ctx);
    auto sched = graph::scheduleGraph(g);
    graph::GraphExecutor ex(g, sched);
    auto &ws = engine.dispatcher().workspace();
    auto runs = trafficPerRun(ws, 5, [&] {
        (void)ex.run(engine, {x.chunks(), h.chunks(), cst.chunks()});
    });
    // The only donor is multiplyInPlace: it donates the two
    // components of each replaced operand (and its relinearization
    // pair, which it drew as outputs). Outputs take donations best-fit
    // by capacity, and the relinearizations run at several levels, so
    // the capacity mix of the donated list takes a few runs to settle:
    // until then at most one component pair per run stays unmatched
    // (measured: 2, 2, 2 after the warm-up), and then growth stops.
    constexpr s64 kOperandPair = 2;
    for (std::size_t r = 0; r < runs.size(); ++r) {
        EXPECT_GE(runs[r].growth, 0) << "run " << r;
        EXPECT_LE(runs[r].growth, r < 3 ? kOperandPair : 0)
            << "run " << r;
        EXPECT_EQ(runs[r].allocs, 0u) << "run " << r;
    }
}

TEST(ArenaSteadyState, LstmStepGraphRunsFaultInNoFreshPages)
{
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) \
    || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the kept-mapped heap is glibc malloc's";
#endif
    ckks::CkksContext ctx(EncryptedLstmCell::recommendedParams());
    EncryptedLstmCell cell(ctx);
    Rng rng(41);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cell.requiredRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);
    std::size_t dim = cell.config().dim;
    auto x = encryptRandom(ctx, enc, rng, cell.inputMeta(), dim);
    auto h = encryptRandom(ctx, enc, rng, cell.inputMeta(), dim);
    auto cst = encryptRandom(ctx, enc, rng, cell.inputMeta(), dim);

    auto g = cell.buildStepGraph(ctx);
    auto sched = graph::scheduleGraph(g);
    graph::GraphExecutor ex(g, sched);
    auto run = [&] {
        (void)ex.run(engine, {x.chunks(), h.chunks(), cst.chunks()});
    };
    for (int r = 0; r < 3; ++r)
        run();
    // With glibc's default thresholds a run faulted in about 400 pages
    // (N = 2^10, one sample): the heap top that the previous run had
    // freed and glibc had trimmed. Kept mapped, most runs fault in
    // none; a few still touch a page the heap or a pool worker's
    // arena had not reached yet, hence the median.
    std::vector<long> faults;
    for (int r = 0; r < 7; ++r) {
        long before = minorFaults();
        run();
        faults.push_back(minorFaults() - before);
    }
    std::sort(faults.begin(), faults.end());
    constexpr long kSlack = 16;
    EXPECT_LE(faults[faults.size() / 2], kSlack)
        << "fewest " << faults.front() << ", most " << faults.back();
}

} // namespace
} // namespace tensorfhe::exec
