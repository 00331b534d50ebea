/**
 * @file
 * Regenerates paper Table XI: energy efficiency — OPs/W per CKKS
 * operation and J/iteration per workload, using the paper's own
 * methodology (constant 264 W board power x modeled time).
 */

#include <cstdio>

#include "bench_util.hh"
#include "gpu/energy.hh"
#include "perf/device_time.hh"
#include "perf/paper_data.hh"
#include "workloads/models.hh"

using namespace tensorfhe;
using namespace tensorfhe::perf;

int
main()
{
    bench::banner("Table XI - energy efficiency (264 W A100 board "
                  "power)");

    DeviceTimeModel a100(gpu::DeviceModel::a100());
    gpu::EnergyModel energy(gpu::DeviceModel::a100());
    auto p = ckks::Presets::paperDefault();
    p.nttVariant = ntt::NttVariant::Tensor;

    bench::section("OPs/W per CKKS operation (batch 128)");
    CostModel costs(p);
    EvalOpKind kinds[] = {EvalOpKind::HMult, EvalOpKind::HRotate,
                          EvalOpKind::Rescale, EvalOpKind::HAdd,
                          EvalOpKind::CMult};
    std::printf("%-9s %12s %12s\n", "op", "model", "paper");
    for (int i = 0; i < 5; ++i) {
        double thr = a100.throughput(costs.op(kinds[i], 45), 128);
        std::printf("%-9s %12.2f %12.2f\n", evalOpKindName(kinds[i]),
                    energy.opsPerWatt(thr),
                    paper::kTable11Ops[i].opsPerWatt);
    }

    bench::section("J/iteration per workload");
    for (const auto &row : paper::kTable11Workloads) {
        auto cell = [](double v) {
            char buf[32];
            if (v < 0)
                std::snprintf(buf, sizeof buf, "%8s", "-");
            else
                std::snprintf(buf, sizeof buf, "%8.1f", v);
            return std::string(buf);
        };
        std::printf("%-18.18s %s %s %s %s   [paper]\n",
                    row.system.data(), cell(row.resnet20).c_str(),
                    cell(row.lr).c_str(), cell(row.lstm).c_str(),
                    cell(row.packedBoot).c_str());
    }
    workloads::WorkloadModel models[] = {
        workloads::resnet20Model(),
        workloads::logisticRegressionModel(), workloads::lstmModel(),
        workloads::packedBootstrappingModel()};
    std::printf("%-18s", "TensorFHE (model)");
    for (auto &w : models) {
        w.params.nttVariant = ntt::NttVariant::Tensor;
        double secs = workloads::workloadSeconds(w, a100);
        // "J/iteration" in the paper is total energy per packed input
        // (the LR row decodes exactly: 14.1 s x 264 W / 64 = 58.2 J).
        std::printf(" %8.1f",
                    energy.joules(secs) / double(w.batch));
    }
    std::printf("   [model]\n");
    std::printf("\npaper shape: TensorFHE costs more J/iter than the "
                "ASICs (GPGPU board power),\n"
                "but stays within ~1.5x of CraterLake on LR.\n");
    return 0;
}
