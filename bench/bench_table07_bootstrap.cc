/**
 * @file
 * Regenerates paper Table VII: Bootstrap execution time (batch 128,
 * N = 2^16, L = 34, dnum = 5) — model estimates per NTT variant next
 * to the published rows, plus a measured run of this library's real
 * bootstrap at the functional parameter set.
 */

#include <cstdio>

#include "bench_util.hh"
#include "boot/bootstrap.hh"
#include "perf/device_time.hh"
#include "perf/paper_data.hh"
#include "workloads/models.hh"

using namespace tensorfhe;

int
main()
{
    bench::banner("Table VII - Bootstrap execution time "
                  "(batch 128, N=2^16, L=34, dnum=5)");

    for (const auto &row : perf::paper::kTable7)
        std::printf("%-24.24s %12.0f   [paper, ms]\n", row.system.data(),
                    row.seconds);

    // Model: bootstrap op counts at the Table VII configuration.
    ckks::CkksParams p = ckks::Presets::paperDefault();
    p.levels = 34;
    p.dnum = 5;
    p.special = static_cast<int>(p.alpha());
    perf::DeviceTimeModel a100(gpu::DeviceModel::a100());
    for (auto v : {ntt::NttVariant::Butterfly, ntt::NttVariant::Gemm,
                   ntt::NttVariant::Tensor}) {
        p.nttVariant = v;
        auto counts = workloads::bootstrapOpCounts(p.slots());
        auto lc = std::size_t(0.6 * (p.levels + 1));
        perf::CostModel costs(p);
        double per_op_batch = 0;
        per_op_batch += counts.hmult
            * a100.seconds(costs.op(EvalOpKind::HMult, lc), 128);
        per_op_batch += counts.cmult
            * a100.seconds(costs.op(EvalOpKind::CMult, lc), 128);
        per_op_batch += counts.hadd
            * a100.seconds(costs.op(EvalOpKind::HAdd, lc), 128);
        per_op_batch += (counts.hrotate + counts.conjugate)
            * a100.seconds(costs.op(EvalOpKind::HRotate, lc), 128);
        per_op_batch += counts.rescale
            * a100.seconds(costs.op(EvalOpKind::Rescale, lc), 128);
        std::printf("model %-18s %12.0f   [model, ms]\n",
                    ntt::nttVariantName(v), per_op_batch * 1e3);
    }

    // Measured: the real slim bootstrap pipeline, functional params.
    bench::section("measured functional bootstrap (N=2^8, L=17, "
                   "sparse key, this machine)");
    ckks::CkksContext ctx(ckks::Presets::bootTest());
    Rng rng(5);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(
        sk, rng, boot::Bootstrapper::requiredRotations(ctx.slots()));
    ckks::Encryptor enc(ctx, keys.pk);
    ckks::Decryptor dec(ctx, sk);
    batch::BatchedEvaluator beval(ctx, keys);
    boot::Bootstrapper boots(ctx);

    // A one-element batch, built outside the timed region.
    std::vector<ckks::Complex> z(ctx.slots(), ckks::Complex(0.25, 0));
    batch::BatchedEvaluator::Cts ct{enc.encrypt(
        ctx.encoder().encode(z, ctx.params().scale(), 2), rng)};
    batch::BatchedEvaluator::Cts refreshed;
    double secs = bench::timeSeconds(
        [&] { refreshed = boots.bootstrapBatch(beval, ct); });
    auto got = dec.decryptAndDecode(refreshed[0]);
    std::printf("bootstrap: %s, levels %zu -> %zu, slot error %.3g\n",
                bench::fmtSeconds(secs).c_str(), ct[0].levelCount(),
                refreshed[0].levelCount(),
                std::abs(got[0] - z[0]));
    return 0;
}
