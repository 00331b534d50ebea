/**
 * @file
 * Regenerates paper Table X: full-workload execution time for
 * ResNet-20, Logistic Regression, LSTM and Packed Bootstrapping —
 * model estimates at the Table V parameters beside the published
 * rows, with the paper's headline ratios (2.9x over F1+ on LR, up to
 * ~40x behind the big ASICs) recomputed from our model.
 *
 * The measured sections run the *functional* scaled-down CNN,
 * LSTM-cell and DEEP bootstrap-in-the-loop CNN workloads on real
 * ciphertexts and print their executed operation counts
 * (EvalOpStats) next to the layer plans' modeled counts — the
 * consistency check tying the analytic Table X machinery to code
 * that actually computes. Beside each workload's counts it prints the
 * key-switching decomposition the workload ran: dnum, digit width
 * alpha, special primes K, nominal log2 PQ and the generated key
 * bytes. The bench exits nonzero when any executed count differs
 * from its model, or when the deep CNN's encrypted argmax disagrees
 * with the plaintext reference.
 *
 * Usage: bench_table10_workloads [--json PATH]
 *   --json PATH appends one machine-readable object per measured
 *   workload (bootstrap count, conversion counts, timings, logit
 *   error, decomposition) to PATH — the CI Release job collects
 *   BENCH_PR5.json this way.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "perf/device_time.hh"
#include "perf/paper_data.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"
#include "workloads/models.hh"

using namespace tensorfhe;
using namespace tensorfhe::workloads;

namespace
{

std::size_t
polyBytes(const rns::RnsPolynomial &p)
{
    return p.numLimbs() * p.n() * sizeof(u64);
}

std::size_t
switchKeyBytes(const ckks::SwitchKey &k)
{
    std::size_t bytes = 0;
    for (std::size_t j = 0; j < k.digits(); ++j)
        bytes += polyBytes(k.b[j]) + polyBytes(k.a[j]);
    return bytes;
}

/** Bytes of every key in the bundle, public key included. */
std::size_t
keyBytes(const ckks::KeyBundle &keys)
{
    std::size_t bytes = polyBytes(keys.pk.b) + polyBytes(keys.pk.a)
        + switchKeyBytes(keys.relin) + switchKeyBytes(keys.conj);
    for (const auto &[step, k] : keys.rot)
        bytes += switchKeyBytes(k);
    for (const auto &[step, k] : keys.conjRot)
        bytes += switchKeyBytes(k);
    return bytes;
}

/** The key-switching decomposition a workload runs, as one row. */
void
printDecomposition(const char *workload, const ckks::CkksParams &p,
                   const ckks::KeyBundle &keys)
{
    std::printf("%-10s dnum %d  alpha %zu  K %d  log2 PQ %d  "
                "keys %.1f MiB\n",
                workload, p.effectiveDnum(), p.alpha(), p.special,
                p.nominalLogPQ(),
                static_cast<double>(keyBytes(keys)) / (1 << 20));
}

/** Modeled-vs-executed rows, flagging every divergence; returns
    whether every executed count equals its model. */
bool
compareOps(const char *workload, const EvalOpCounts &modeled,
           const EvalOpCounts &executed)
{
    struct Row
    {
        const char *op;
        double model;
        double exec;
    } rows[] = {
        {"HMULT", modeled.hmult, executed.hmult},
        {"CMULT", modeled.cmult, executed.cmult},
        {"HADD", modeled.hadd, executed.hadd},
        {"HROTATE", modeled.hrotate, executed.hrotate},
        {"RESCALE", modeled.rescale, executed.rescale},
        {"CONJ", modeled.conjugate, executed.conjugate},
    };
    std::printf("%-10s %-8s %10s %10s %10s\n", workload, "op",
                "modeled", "executed", "diverge");
    bool exact = true;
    for (const auto &r : rows) {
        if (r.model == 0 && r.exec == 0)
            continue;
        double base = std::max(r.model, 1.0);
        double div = std::abs(r.exec - r.model) / base;
        exact &= r.exec == r.model;
        std::printf("%-10s %-8s %10.0f %10.0f %9.1f%%%s\n", "", r.op,
                    r.model, r.exec, 100.0 * div,
                    r.exec != r.model ? "  <-- DIVERGES" : "");
    }
    return exact;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];

    bench::banner("Table X - full FHE workloads (seconds)");

    std::printf("%-18s %10s %10s %10s %12s\n", "system", "ResNet-20",
                "LR", "LSTM", "PackedBoot");
    for (const auto &row : perf::paper::kTable10) {
        auto cell = [](double v) {
            return v < 0 ? std::string("-")
                         : bench::fmtSeconds(v);
        };
        std::printf("%-18.18s %10s %10s %10s %12s   [paper]\n",
                    row.system.data(), cell(row.resnet20).c_str(),
                    cell(row.lr).c_str(), cell(row.lstm).c_str(),
                    cell(row.packedBoot).c_str());
    }

    perf::DeviceTimeModel a100(gpu::DeviceModel::a100());
    WorkloadModel models[] = {resnet20Model(),
                              logisticRegressionModel(), lstmModel(),
                              packedBootstrappingModel()};
    double ours[4];
    std::printf("%-18s", "TensorFHE (model)");
    for (int i = 0; i < 4; ++i) {
        models[i].params.nttVariant = ntt::NttVariant::Tensor;
        ours[i] = workloadSeconds(models[i], a100);
        std::printf(" %10s", bench::fmtSeconds(ours[i]).c_str());
        if (i == 3)
            std::printf("  ");
    }
    std::printf("   [model]\n");

    bench::section("shape checks (from our model vs paper rows)");
    const auto &cpu = perf::paper::kTable10[0];
    const auto &f1 = perf::paper::kTable10[1];
    const auto &crater = perf::paper::kTable10[2];
    std::printf("LR: vs CPU %7.0fx (paper 1625.6x), vs F1+ %5.2fx "
                "(paper 2.9x), vs CraterLake 1/%.1fx\n",
                cpu.lr / ours[1], f1.lr / ours[1], ours[1] / crater.lr);
    std::printf("ResNet-20: vs CPU %5.0fx, vs F1+ %4.2fx "
                "(paper: F1+ still 1.8x ahead)\n",
                cpu.resnet20 / ours[0], f1.resnet20 / ours[0]);

    bench::section("functional workloads: modeled vs executed op "
                   "counts [measured]");
    bool ok = true;
    {
        ckks::CkksContext ctx(
            EncryptedCnnClassifier::recommendedParams());
        EncryptedCnnClassifier cnn(ctx);
        Rng rng(42);
        auto sk = ctx.generateSecretKey(rng);
        auto keys =
            ctx.generateKeys(sk, rng, cnn.requiredRotations());
        ckks::Encryptor enc(ctx, keys.pk);
        ckks::Decryptor dec(ctx, sk);
        nn::NnEngine engine(ctx, keys);

        std::vector<std::vector<double>> images(
            1, std::vector<double>(cnn.config().inChannels
                                   * cnn.config().height
                                   * cnn.config().width));
        Rng data(43);
        for (auto &v : images[0])
            v = data.uniformReal();
        EvalOpStats::instance().reset();
        cnn.classifyEncrypted(engine, enc, dec, rng, images);
        printDecomposition("CNN", ctx.params(), keys);
        ok &= compareOps("CNN", cnn.modeledOps(),
                         EvalOpStats::instance().snapshot());
    }
    {
        ckks::CkksContext ctx(EncryptedLstmCell::recommendedParams());
        EncryptedLstmCell cell(ctx);
        Rng rng(44);
        auto sk = ctx.generateSecretKey(rng);
        auto keys =
            ctx.generateKeys(sk, rng, cell.requiredRotations());
        ckks::Encryptor enc(ctx, keys.pk);
        ckks::Decryptor dec(ctx, sk);
        nn::NnEngine engine(ctx, keys);

        std::size_t d = cell.config().dim;
        std::vector<double> xv(d, 0.25), hv(d, -0.5), cv(d, 0.5);
        auto lc = cell.inputMeta().levelCount;
        EncryptedLstmCell::State state{
            nn::encryptTensor(ctx, enc, rng, hv, {{d}}, lc),
            nn::encryptTensor(ctx, enc, rng, cv, {{d}}, lc)};
        auto x = nn::encryptTensor(ctx, enc, rng, xv, {{d}}, lc);
        EvalOpStats::instance().reset();
        cell.step(engine, x, state);
        printDecomposition("LSTM-cell", ctx.params(), keys);
        ok &= compareOps("LSTM-cell", cell.modeledOps(),
                         EvalOpStats::instance().snapshot());
    }

    bench::section("deep CNN with bootstrap-in-the-loop [measured]");
    {
        // The Table X ResNet scenario in miniature: a two-chunk
        // tensor through block-BSGS convs, the ledger going negative
        // mid-network, and >= 1 planner-placed bootstrap (its C2S
        // split conjugates each chunk once).
        ckks::CkksContext ctx(
            EncryptedCnnClassifier::recommendedDeepParams());
        EncryptedCnnClassifier cnn(
            ctx, EncryptedCnnClassifier::deepConfig());
        Rng rng(45);
        auto sk = ctx.generateSecretKey(rng);
        auto keys = ctx.generateKeys(sk, rng, cnn.requiredRotations());
        ckks::Encryptor enc(ctx, keys.pk);
        ckks::Decryptor dec(ctx, sk);
        nn::NnEngine engine(ctx, keys);

        std::vector<std::vector<double>> images(
            1, std::vector<double>(cnn.config().inChannels
                                   * cnn.config().height
                                   * cnn.config().width));
        Rng data(46);
        for (auto &v : images[0])
            v = data.uniformReal();

        auto &ops = EvalOpStats::instance();
        ops.reset();
        std::vector<EncryptedCnnClassifier::Prediction> preds;
        double secs = bench::timeSeconds([&] {
            preds = cnn.classifyEncrypted(engine, enc, dec, rng,
                                          images);
        });
        auto snap = ops.snapshot();
        u64 mod_ups = ops.modUps();
        u64 mod_downs = ops.modDowns();
        auto plain = cnn.classifyPlain(images[0]);
        double worst_logit = 0;
        for (std::size_t j = 0; j < plain.logits.size(); ++j)
            worst_logit = std::max(
                worst_logit,
                std::abs(preds[0].logits[j] - plain.logits[j]));
        std::size_t boots = cnn.net().bootstrapCount();

        std::printf("  %zu-chunk input, %zu bootstraps planned, "
                    "argmax %s, worst |logit err| %.2e\n",
                    cnn.inputMeta().chunkCount, boots,
                    preds[0].argmax == plain.argmax ? "agrees"
                                                    : "DISAGREES",
                    worst_logit);
        std::printf("  wall %s   ModUp %llu   ModDown %llu   "
                    "conjugations %.0f\n",
                    bench::fmtSeconds(secs).c_str(),
                    static_cast<unsigned long long>(mod_ups),
                    static_cast<unsigned long long>(mod_downs),
                    snap.conjugate);
        printDecomposition("deep-CNN", ctx.params(), keys);
        ok &= compareOps("deep-CNN", cnn.modeledOps(), snap);
        ok &= preds[0].argmax == plain.argmax;

        if (!json_path.empty()) {
            bench::JsonWriter json("table10_deep_cnn");
            json.add("bootstraps", static_cast<double>(boots))
                .add("input_chunks",
                     static_cast<double>(cnn.inputMeta().chunkCount))
                .add("seconds", secs)
                .add("mod_up_conversions",
                     static_cast<double>(mod_ups))
                .add("mod_down_conversions",
                     static_cast<double>(mod_downs))
                .add("conjugate_ops", snap.conjugate)
                .add("hrotate_ops", snap.hrotate)
                .add("ks_hoist_ops", snap.ksHoist)
                .add("ks_tail_ops", snap.ksTail)
                .add("worst_logit_err", worst_logit)
                .add("argmax_agrees",
                     preds[0].argmax == plain.argmax ? 1.0 : 0.0)
                .add("dnum", ctx.params().effectiveDnum())
                .add("alpha", static_cast<double>(ctx.params().alpha()))
                .add("special", ctx.params().special)
                .add("log2_pq", ctx.params().nominalLogPQ())
                .add("key_bytes", static_cast<double>(keyBytes(keys)));
            if (!json.appendTo(json_path)) {
                std::fprintf(stderr, "cannot write %s\n",
                             json_path.c_str());
                return 1;
            }
            std::printf("  wrote %s\n", json_path.c_str());
        }
    }
    if (!ok)
        std::fprintf(stderr, "executed ops diverge from their model, "
                             "or the deep CNN's argmax disagrees\n");
    return ok ? 0 : 1;
}
