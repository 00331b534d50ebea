/**
 * @file
 * Regenerates paper Table VIII: NTT/s, INTT/s and HMULT/s against
 * HEAX's sets A/B/C — model throughput at the set parameters beside
 * the published rows, plus measured CPU throughput of the real
 * kernels at the exact set dimensions.
 */

#include <cstdio>

#include "batch/executor.hh"
#include "bench_util.hh"
#include "ckks/crypto.hh"
#include "perf/device_time.hh"
#include "perf/paper_data.hh"

using namespace tensorfhe;
using namespace tensorfhe::perf;

int
main()
{
    bench::banner("Table VIII - throughput vs HEAX (sets A/B/C)");
    std::printf("Set A: N=2^12, K=2; Set B: N=2^13, K=4; Set C: "
                "N=2^14, K=8.\n\n");
    for (const auto &row : paper::kTable8) {
        std::printf("%-14.14s  CPU %8.0f  HEAX %8.0f  TensorFHE %8.0f"
                    "   [paper, ops/s]\n",
                    row.metric.data(), row.cpu, row.heax,
                    row.tensorfhe);
    }

    DeviceTimeModel a100(gpu::DeviceModel::a100());
    ckks::CkksParams sets[3] = {ckks::Presets::heaxSetA(),
                                ckks::Presets::heaxSetB(),
                                ckks::Presets::heaxSetC()};
    const char *names[3] = {"SetA", "SetB", "SetC"};

    bench::section("model (A100, TCU NTT, batch 128) + measured "
                   "(this machine, batch 1)");
    for (int i = 0; i < 3; ++i) {
        auto p = sets[i];
        p.nttVariant = ntt::NttVariant::Tensor;
        std::size_t lc = p.levels + 1;
        double ntt_s = a100.throughput(
            nttCost(p.n, lc, ntt::NttVariant::Tensor), 128);
        double hmult_s = a100.throughput(
            CostModel(p).op(EvalOpKind::HMult, lc), 128);

        // Measured: real kernels at the set's exact dimensions.
        ckks::CkksContext ctx(p);
        Rng rng(i);
        auto sk = ctx.generateSecretKey(rng);
        auto keys = ctx.generateKeys(sk, rng, {});
        ckks::Encryptor enc(ctx, keys.pk);
        batch::BatchedEvaluator eval(ctx, keys);
        auto pt = ctx.encoder().encodeConstant(
            ckks::Complex(0.5, 0), p.scale(), lc);
        batch::BatchedEvaluator::Cts ct{enc.encrypt(pt, rng)};
        auto poly = ct[0].c0;
        double t_ntt = bench::timeMean(3, [&] {
            auto q = poly;
            q.setDomain(rns::Domain::Coeff);
            q.toEval(ntt::NttVariant::Butterfly);
        });
        double t_intt = bench::timeMean(3, [&] {
            auto q = poly;
            q.setDomain(rns::Domain::Eval);
            q.toCoeff(ntt::NttVariant::Butterfly);
        });
        double t_hmult = bench::timeMean(2, [&] {
            auto r = eval.multiply(ct, ct);
        });
        std::printf("%-5s model:  NTT %9.0f/s  HMULT %8.0f/s   |  "
                    "measured:  NTT %7.0f/s  INTT %7.0f/s  HMULT "
                    "%6.0f/s\n",
                    names[i], ntt_s, hmult_s, 1.0 / t_ntt,
                    1.0 / t_intt, 1.0 / t_hmult);
    }
    std::printf("\npaper shape: TensorFHE beats HEAX ~4.9x on (i)NTT "
                "everywhere; on HMULT it\n"
                "wins at large N (Set C) but loses ~10%% at Set A "
                "where the workload is small.\n");
    return 0;
}
