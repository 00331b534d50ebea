/**
 * @file
 * Operation-count models of the paper's four evaluation workloads
 * (SV): ResNet-20 [42], HELR logistic regression [30], LSTM [54] and
 * Packed Bootstrapping [46], at the Table V parameters.
 *
 * The counts are reconstructions from the cited papers' published
 * structure (layer shapes, iteration counts, BSGS decompositions);
 * the comments beside each model in models.cc give its derivation.
 * They feed Table X and Figs. 12-13 through the device time model.
 *
 * Two kinds of workload live in this directory and should not be
 * confused:
 *   - op-count-only models (this header): paper-scale parameter sets
 *     with analytic operation counts, never executed — they exist to
 *     drive the device-time model;
 *   - functional workloads (lr.hh, cnn.hh, lstm.hh): scaled-down
 *     instances that really compute on ciphertexts, verified against
 *     plaintext references. Their executed-op statistics
 *     (EvalOpStats) share this header's vocabulary, EvalOpCounts;
 *     bench_table10_workloads prints their modeled and executed
 *     counts side by side.
 */

#ifndef TENSORFHE_WORKLOADS_MODELS_HH
#define TENSORFHE_WORKLOADS_MODELS_HH

#include <string>

#include "ckks/params.hh"
#include "common/stats.hh"
#include "perf/device_time.hh"

namespace tensorfhe::workloads
{

/** One slim bootstrap (paper Fig. 6) at the given slot count. The
    paper-scale models count Table II operations only, so ksHoist
    and ksTail stay 0. */
EvalOpCounts bootstrapOpCounts(std::size_t slots);

struct WorkloadModel
{
    std::string name;
    ckks::CkksParams params;
    std::size_t batch = 1;  ///< packed inputs (paper SV)
    EvalOpCounts counts;    ///< total op counts for the full run
    double bootstraps = 0;  ///< number of bootstrap invocations
};

WorkloadModel resnet20Model();
WorkloadModel logisticRegressionModel();
WorkloadModel lstmModel();
WorkloadModel packedBootstrappingModel();

/** Estimated wall seconds of the workload on a device model. */
double workloadSeconds(const WorkloadModel &w,
                       const perf::DeviceTimeModel &model);

/**
 * Kernel-level time breakdown of the workload (Fig. 12 rows):
 * fraction of modeled time in each of NTT / Hada-Mult / Ele-Add /
 * Ele-Sub / FrobeniusMap / Conv.
 */
struct KernelShares
{
    double ntt = 0, hadaMult = 0, eleAdd = 0, frobenius = 0, conv = 0;
};
KernelShares workloadKernelShares(const WorkloadModel &w);

/** Operation-level breakdown (Fig. 13 rows). */
struct OpShares
{
    double hmult = 0, hrotate = 0, rescale = 0, hadd = 0, cmult = 0;
};
OpShares workloadOpShares(const WorkloadModel &w,
                          const perf::DeviceTimeModel &model);

} // namespace tensorfhe::workloads

#endif // TENSORFHE_WORKLOADS_MODELS_HH
