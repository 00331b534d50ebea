/**
 * @file
 * Regenerates paper Table VI: operation delays for HMULT, HROTATE,
 * RESCALE, HADD, CMULT across TensorFHE-NT / -CO / TensorFHE on the
 * A100 and V100 device models at the paper's Default parameters
 * (batch 128), next to the published rows — plus measured CPU
 * wall-clock of this library's real kernels at scaled parameters.
 * A dnum-sensitivity ablation of key switching closes the table.
 */

#include <cstdio>

#include "batch/executor.hh"
#include "bench_util.hh"
#include "ckks/crypto.hh"
#include "perf/device_time.hh"
#include "perf/paper_data.hh"

using namespace tensorfhe;
using namespace tensorfhe::perf;

namespace
{

void
modelRow(const char *name, const ckks::CkksParams &p,
         const DeviceTimeModel &model)
{
    std::printf("%-22s", name);
    CostModel costs(p);
    for (EvalOpKind op : {EvalOpKind::HMult, EvalOpKind::HRotate,
                          EvalOpKind::Rescale, EvalOpKind::HAdd,
                          EvalOpKind::CMult}) {
        double s = model.seconds(costs.op(op, 45), 128);
        std::printf(" %11.1f", s * 1e3);
    }
    std::printf("   [model]\n");
}

} // namespace

int
main()
{
    bench::banner("Table VI - operation delay (ms per batch-128 group, "
                  "paper Default params)");

    std::printf("%-22s %11s %11s %11s %11s %11s\n", "system", "HMULT",
                "HROTATE", "RESCALE", "HADD", "CMULT");
    for (const auto &row : paper::kTable6) {
        std::printf("%-22.22s %11.1f %11.1f %11.1f %11.1f %11.1f   "
                    "[paper]\n",
                    row.system.data(), row.hmult, row.hrotate,
                    row.rescale, row.hadd, row.cmult);
    }
    std::printf("\n");

    DeviceTimeModel a100(gpu::DeviceModel::a100());
    DeviceTimeModel v100(gpu::DeviceModel::v100());
    auto p = ckks::Presets::paperDefault();
    p.nttVariant = ntt::NttVariant::Butterfly;
    modelRow("model NT (A100)", p, a100);
    p.nttVariant = ntt::NttVariant::Gemm;
    modelRow("model CO (A100)", p, a100);
    p.nttVariant = ntt::NttVariant::Tensor;
    modelRow("model TCU (V100)", p, v100);
    modelRow("model TCU (A100)", p, a100);

    // Measured: the real kernels at scaled parameters.
    bench::section("measured on this machine (N=2^12, L=6, batch 1, "
                   "CPU substrate)");
    ckks::CkksContext ctx(ckks::Presets::small());
    Rng rng(1);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, {1});
    ckks::Encryptor enc(ctx, keys.pk);
    batch::BatchedEvaluator eval(ctx, keys);
    std::size_t lc = ctx.tower().numQ();
    auto pt = ctx.encoder().encodeConstant(ckks::Complex(0.5, 0),
                                           ctx.params().scale(), lc);
    // One-element batches, built outside the timed regions.
    batch::BatchedEvaluator::Cts ct{enc.encrypt(pt, rng)};
    batch::BatchedEvaluator::Cts ct2{enc.encrypt(pt, rng)};

    std::printf("%-22s", "TensorFHE (measured)");
    std::printf(" %11.3f", 1e3 * bench::timeMean(3, [&] {
        auto r = eval.multiply(ct, ct2);
    }));
    std::printf(" %11.3f", 1e3 * bench::timeMean(3, [&] {
        auto r = eval.rotate(ct, 1);
    }));
    std::printf(" %11.3f", 1e3 * bench::timeMean(3, [&] {
        auto r = eval.rescale(ct);
    }));
    std::printf(" %11.3f", 1e3 * bench::timeMean(10, [&] {
        auto r = eval.add(ct, ct2);
    }));
    std::printf(" %11.3f", 1e3 * bench::timeMean(10, [&] {
        auto r = eval.multiplyPlain(ct, pt);
    }));
    std::printf("   [measured, ms/op]\n");

    // dnum ablation (DESIGN.md SS7): key-switch cost vs dnum.
    bench::section("ablation: generalized key-switching cost vs dnum "
                   "(model, A100, level 45)");
    for (int dnum : {45, 15, 9, 5, 3}) {
        auto pd = ckks::Presets::paperDefault();
        pd.nttVariant = ntt::NttVariant::Tensor;
        pd.dnum = dnum;
        pd.special = static_cast<int>(pd.alpha()); // keep P > max Q_j
        double s = a100.seconds(CostModel(pd).keySwitch(45), 128);
        std::printf("dnum=%2d (alpha=%2zu, K=%d): %8.1f ms\n", dnum,
                    pd.alpha(), pd.special, s * 1e3);
    }
    return 0;
}
