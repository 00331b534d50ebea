/**
 * @file
 * Device timing model: converts KernelCost work vectors into seconds
 * on a GPGPU device model (roofline over DRAM bandwidth, CUDA-core
 * integer throughput and TCU INT8 throughput, plus per-launch
 * overhead), with utilization factors calibrated once against the
 * paper's published A100 numbers: the Calibration defaults below,
 * which bench_table06_op_latency prints as model rows beside the
 * published Table VI rows.
 */

#ifndef TENSORFHE_PERF_DEVICE_TIME_HH
#define TENSORFHE_PERF_DEVICE_TIME_HH

#include "gpu/device.hh"
#include "gpu/occupancy.hh"
#include "perf/cost_model.hh"

namespace tensorfhe::perf
{

struct Calibration
{
    double coreUtilization = 0.55; ///< achieved / peak integer IPC
    double bwUtilization = 0.65;   ///< achieved / peak DRAM bandwidth
    double tcuUtilization = 0.65;  ///< achieved / peak TCU MACs
    double launchOverheadSec = 3.0e-6;
};

class DeviceTimeModel
{
  public:
    explicit DeviceTimeModel(const gpu::DeviceModel &dev,
                             Calibration cal = {})
        : dev_(dev), cal_(cal)
    {}

    const gpu::DeviceModel &device() const { return dev_; }

    /**
     * Wall time of `batch` independent instances of `cost` executed
     * together. Batching amortizes launches and raises occupancy
     * (paper SIV-D); `occupancy` scales the compute rooflines.
     */
    double seconds(const KernelCost &cost, std::size_t batch = 1,
                   double occupancy = -1.0) const;

    /** Operations per second at the given batch size. */
    double
    throughput(const KernelCost &cost, std::size_t batch = 1) const
    {
        return static_cast<double>(batch) / seconds(cost, batch);
    }

  private:
    gpu::DeviceModel dev_;
    Calibration cal_;
};

} // namespace tensorfhe::perf

#endif // TENSORFHE_PERF_DEVICE_TIME_HH
