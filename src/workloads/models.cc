#include "workloads/models.hh"

#include <algorithm>
#include <cmath>

#include "boot/sine.hh"
#include "perf/cost_model.hh"

namespace tensorfhe::workloads
{

EvalOpCounts
bootstrapOpCounts(std::size_t slots)
{
    // Slim bootstrap (paper Fig. 6): SlotToCoeff -> ModRaise ->
    // CoeffToSlot + Re/Im split -> Sine Evaluation. The homomorphic
    // DFT is the 3-stage radix decomposition of Faster-DFT [14] with
    // BSGS inside each stage: radix r = slots^(1/3), so each stage
    // costs ~2*sqrt(r) rotations and r diagonal CMULTs.
    double radix = std::cbrt(static_cast<double>(slots));
    double stage_rot = 2.0 * std::sqrt(radix);
    EvalOpCounts c;
    // One S2C and one C2S direction, 3 stages each.
    c.hrotate += 6 * stage_rot;
    c.cmult += 6 * radix; // diagonal multiplications
    c.hadd += 6 * radix;
    c.rescale += 6;
    // The split conjugates the C2S output once and takes w + conj w
    // and -i (w - conj w), the -i an exact monomial CMULT.
    c.conjugate += 1;
    c.hadd += 2;
    c.cmult += 1;
    // Sine evaluation (paper SIV-A: Taylor approximation [8]) as the
    // library runs it, once per split stream, plus the recombine.
    EvalOpCounts sine = boot::sineModeledOps(boot::SineConfig{});
    sine.ksHoist = 0;
    sine.ksTail = 0;
    c += 2.0 * sine;
    c.cmult += 2;
    c.hadd += 1;
    c.rescale += 1;
    return c;
}

namespace
{

/**
 * Workload runs use generalized key-switching with a small dnum
 * (Table VII: dnum = 5 for bootstrapping); dnum = 8 with K = alpha
 * special primes is the sweet spot our Table VI ablation shows.
 */
void
applyWorkloadKeySwitch(ckks::CkksParams &p)
{
    p.dnum = 8;
    p.special = static_cast<int>(p.alpha());
}

} // namespace

WorkloadModel
resnet20Model()
{
    // ResNet-20 on CKKS after Lee et al. [42]: 19 convolution layers
    // + FC, each conv lowered to BSGS matrix-vector products over
    // packed channels, with a bootstrap roughly every other layer.
    WorkloadModel w;
    w.name = "ResNet-20";
    w.params = ckks::Presets::paperResNet20();
    applyWorkloadKeySwitch(w.params);
    w.batch = 64; // 64 packed images (paper SV)
    EvalOpCounts per_conv;
    per_conv.hrotate = 9 * 32;  // 3x3 kernel x multiplexed channels
    per_conv.cmult = 9 * 32;
    per_conv.hadd = 9 * 32;
    per_conv.hmult = 3;         // ReLU ~ degree-3 polynomial approx
    per_conv.rescale = 9 + 3;
    w.counts += 19 * per_conv;
    // Average pool + FC.
    EvalOpCounts fc;
    fc.hrotate = 16;
    fc.cmult = 16;
    fc.hadd = 16;
    fc.rescale = 4;
    w.counts += fc;
    // Lee et al. [42] bootstrap after every ReLU approximation.
    w.bootstraps = 19;
    w.counts += w.bootstraps
        * bootstrapOpCounts(w.params.slots());
    return w;
}

WorkloadModel
logisticRegressionModel()
{
    // HELR [30]: 14 iterations over 16384 samples (128 per
    // polynomial), degree-3 sigmoid, 3 bootstrappings (paper SV).
    WorkloadModel w;
    w.name = "Logistic Regression";
    w.params = ckks::Presets::paperLogisticRegression();
    applyWorkloadKeySwitch(w.params);
    w.batch = 64;
    EvalOpCounts per_iter;
    double f = 256;             // feature dimension of HELR
    per_iter.hrotate = 2 * std::log2(f); // fold + broadcast sums
    per_iter.hmult = 4;         // X*w, sigmoid (2), gradient
    per_iter.cmult = 6;         // masks + learning-rate scaling
    per_iter.hadd = 2 * std::log2(f) + 6;
    per_iter.rescale = 8;
    w.counts += 14 * per_iter;
    w.bootstraps = 3;
    w.counts += w.bootstraps * bootstrapOpCounts(w.params.slots());
    return w;
}

WorkloadModel
lstmModel()
{
    // LSTM [54]: 128 cells, 128-dim embeddings, 32 packed sentences.
    // Per cell: two 128x128 matrix-vector products (BSGS: 2*sqrt(128)
    // rotations each), gate nonlinearities as degree-3 polynomials.
    WorkloadModel w;
    w.name = "LSTM";
    w.params = ckks::Presets::paperLstm();
    applyWorkloadKeySwitch(w.params);
    w.batch = 32;
    EvalOpCounts per_cell;
    // Four gates, each with input and recurrent 128x128 matmuls: 8
    // BSGS matrix-vector products per cell.
    double bsgs = 2 * std::sqrt(128.0);
    per_cell.hrotate = 8 * bsgs / 2;
    per_cell.cmult = 8 * bsgs / 2;
    per_cell.hadd = 8 * bsgs / 2;
    per_cell.hmult = 2 + 4 * 2; // elementwise gates + poly activations
    per_cell.rescale = 12;
    w.counts += 128 * per_cell;
    w.bootstraps = 8; // refresh every 16 cells
    w.counts += w.bootstraps * bootstrapOpCounts(w.params.slots());
    return w;
}

WorkloadModel
packedBootstrappingModel()
{
    // Paper SV: 32 ciphertexts (N = 64k) bootstrapped in parallel,
    // restoring L = 57.
    WorkloadModel w;
    w.name = "Packed Bootstrapping";
    w.params = ckks::Presets::paperPackedBootstrapping();
    applyWorkloadKeySwitch(w.params);
    w.batch = 32;
    w.bootstraps = 1; // per ciphertext; batch covers the 32
    w.counts += bootstrapOpCounts(w.params.slots());
    return w;
}

namespace
{

/** Average level: ops run across the whole chain; use 60% of full
    depth as the representative level count. */
std::size_t
representativeLevel(const WorkloadModel &w)
{
    auto lc = static_cast<std::size_t>(
        0.6 * (static_cast<double>(w.params.levels) + 1));
    return std::max<std::size_t>(lc, 2);
}

double
opSeconds(EvalOpKind kind, const WorkloadModel &w,
          const perf::DeviceTimeModel &model)
{
    auto cost =
        perf::CostModel(w.params).op(kind, representativeLevel(w));
    return model.seconds(cost, w.batch) / static_cast<double>(w.batch);
}

} // namespace

double
workloadSeconds(const WorkloadModel &w, const perf::DeviceTimeModel &model)
{
    double t = 0;
    t += w.counts.hmult * opSeconds(EvalOpKind::HMult, w, model);
    t += w.counts.cmult * opSeconds(EvalOpKind::CMult, w, model);
    t += w.counts.hadd * opSeconds(EvalOpKind::HAdd, w, model);
    t += w.counts.hrotate * opSeconds(EvalOpKind::HRotate, w, model);
    t += w.counts.rescale * opSeconds(EvalOpKind::Rescale, w, model);
    t += w.counts.conjugate
        * opSeconds(EvalOpKind::Conjugate, w, model);
    return t * static_cast<double>(w.batch);
}

KernelShares
workloadKernelShares(const WorkloadModel &w)
{
    // Aggregate core work per kernel class across the op mix.
    perf::CostModel cost_model(w.params);
    std::size_t lc = representativeLevel(w);
    struct
    {
        EvalOpKind kind;
        double count;
    } mix[] = {
        {EvalOpKind::HMult, w.counts.hmult},
        {EvalOpKind::CMult, w.counts.cmult},
        {EvalOpKind::HAdd, w.counts.hadd},
        {EvalOpKind::HRotate, w.counts.hrotate},
        {EvalOpKind::Rescale, w.counts.rescale},
        {EvalOpKind::Conjugate, w.counts.conjugate},
    };
    KernelShares s;
    double total = 0;
    for (const auto &m : mix) {
        if (m.count == 0)
            continue;
        auto cost = cost_model.op(m.kind, lc);
        double work = m.count * (cost.coreOps + cost.tcuMacs / 8.0);
        double ntt_frac = cost_model.nttShare(m.kind, lc);
        s.ntt += work * ntt_frac;
        double rest = work * (1.0 - ntt_frac);
        switch (m.kind) {
          case EvalOpKind::HMult:
            s.hadaMult += rest * 0.7;
            s.conv += rest * 0.2;
            s.eleAdd += rest * 0.1;
            break;
          case EvalOpKind::CMult:
            s.hadaMult += rest;
            break;
          case EvalOpKind::HAdd:
            s.eleAdd += rest;
            break;
          case EvalOpKind::HRotate:
          case EvalOpKind::Conjugate:
            s.frobenius += rest * 0.3;
            s.hadaMult += rest * 0.4;
            s.conv += rest * 0.3;
            break;
          case EvalOpKind::Rescale:
            s.eleAdd += rest;
            break;
          default:
            break;
        }
        total += work;
    }
    if (total > 0) {
        s.ntt /= total;
        s.hadaMult /= total;
        s.eleAdd /= total;
        s.frobenius /= total;
        s.conv /= total;
    }
    return s;
}

OpShares
workloadOpShares(const WorkloadModel &w, const perf::DeviceTimeModel &model)
{
    OpShares s;
    s.hmult = w.counts.hmult
        * opSeconds(EvalOpKind::HMult, w, model);
    s.hrotate = (w.counts.hrotate + w.counts.conjugate)
        * opSeconds(EvalOpKind::HRotate, w, model);
    s.rescale = w.counts.rescale
        * opSeconds(EvalOpKind::Rescale, w, model);
    s.hadd = w.counts.hadd * opSeconds(EvalOpKind::HAdd, w, model);
    s.cmult = w.counts.cmult * opSeconds(EvalOpKind::CMult, w, model);
    double total = s.hmult + s.hrotate + s.rescale + s.hadd + s.cmult;
    if (total > 0) {
        s.hmult /= total;
        s.hrotate /= total;
        s.rescale /= total;
        s.hadd /= total;
        s.cmult /= total;
    }
    return s;
}

} // namespace tensorfhe::workloads
