/**
 * @file
 * Regenerates paper Fig. 11: kernel-level execution-time breakdown
 * inside each CKKS operation — measured through the KernelStats
 * instrumentation of the real kernels on this machine, with the
 * model's NTT share printed beside it.
 */

#include <cstdio>

#include "batch/executor.hh"
#include "bench_util.hh"
#include "ckks/crypto.hh"
#include "common/stats.hh"
#include "perf/cost_model.hh"

using namespace tensorfhe;

int
main()
{
    bench::banner("Fig. 11 - execution-time breakdown per operation "
                  "(measured, N=2^13, L=8)");

    ckks::CkksContext ctx(ckks::Presets::medium());
    Rng rng(3);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, {1});
    ckks::Encryptor enc(ctx, keys.pk);
    batch::BatchedEvaluator eval(ctx, keys);
    std::size_t lc = ctx.tower().numQ();
    auto pt = ctx.encoder().encodeConstant(ckks::Complex(0.4, 0),
                                           ctx.params().scale(), lc);
    // One-element batches, built outside the measured runs.
    batch::BatchedEvaluator::Cts ct{enc.encrypt(pt, rng)};
    batch::BatchedEvaluator::Cts ct2{enc.encrypt(pt, rng)};

    struct OpRun
    {
        const char *name;
        std::function<void()> run;
        EvalOpKind kind;
    };
    OpRun runs[] = {
        {"HMULT", [&] { auto r = eval.multiply(ct, ct2); },
         EvalOpKind::HMult},
        {"HROTATE", [&] { auto r = eval.rotate(ct, 1); },
         EvalOpKind::HRotate},
        {"RESCALE", [&] { auto r = eval.rescale(ct); },
         EvalOpKind::Rescale},
        {"HADD", [&] { auto r = eval.add(ct, ct2); },
         EvalOpKind::HAdd},
        {"CMULT", [&] { auto r = eval.multiplyPlain(ct, pt); },
         EvalOpKind::CMult},
    };

    std::printf("%-9s", "op");
    KernelKind shown[] = {KernelKind::Ntt, KernelKind::Intt,
                          KernelKind::HadaMult, KernelKind::EleAdd,
                          KernelKind::EleSub, KernelKind::FrobeniusMap,
                          KernelKind::Conv};
    for (auto k : shown)
        std::printf(" %12s", kernelKindName(k));
    std::printf("   model NTT share\n");

    perf::CostModel costs(ctx.params());
    for (auto &r : runs) {
        auto &stats = KernelStats::instance();
        stats.reset();
        for (int i = 0; i < 3; ++i)
            r.run();
        u64 total = stats.totalNanos();
        std::printf("%-9s", r.name);
        for (auto k : shown) {
            double frac = total == 0
                ? 0.0
                : double(stats.counter(k).nanos.load()) / double(total);
            std::printf(" %11.1f%%", 100.0 * frac);
        }
        std::printf("   %13.1f%%\n",
                    100.0 * costs.nttShare(r.kind, lc));
    }
    std::printf("\npaper: NTT dominates HMULT (92.1%%) and HROTATE "
                "(95.4%%); non-NTT kernels are minor.\n");
    return 0;
}
