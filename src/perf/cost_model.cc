#include "perf/cost_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tensorfhe::perf
{

KernelCost
nttCost(std::size_t n, std::size_t limbs, ntt::NttVariant variant)
{
    double dn = static_cast<double>(n);
    double dl = static_cast<double>(limbs);
    KernelCost c;
    c.launches = 1;
    double logn = std::log2(dn);
    switch (variant) {
      case ntt::NttVariant::Reference:
        c.coreOps = dl * dn * dn * kOpsPerModMul;
        c.bytes = dl * dn * dn * kBytesPerResidue;
        break;
      case ntt::NttVariant::Butterfly: {
        // N/2 log2 N butterflies, each a division-based modulo (~15
        // ops: the GPU has no modular arithmetic unit, paper SIII-C)
        // plus adds. The stall inflation factor folds in the RAW /
        // long-latency serialization the pipeline simulator measures
        // (Fig. 4: 43% outright stalls plus dependent-issue slack),
        // calibrated so the A100 model lands on Table VI's NT row.
        constexpr double kModOps = 15.0;
        constexpr double kStallInflation = 4.0;
        c.coreOps = dl * (dn / 2) * logn * (kModOps + 3.0)
            * kStallInflation;
        c.bytes = dl * dn * kBytesPerResidue * 2 * logn / 4;
        break;
      }
      case ntt::NttVariant::Gemm: {
        double n1 = std::exp2(std::ceil(logn / 2));
        double n2 = dn / n1;
        // Three GEMMs: one IMAD per MAC (64-bit accumulate), one
        // deferred modulo per output element (paper SIV-B). Dense
        // GEMMs issue near peak (Fig. 10: stalls mostly gone).
        double macs = n1 * n2 * n1 + n1 * n2 + n2 * n2 * n1;
        c.coreOps = dl * (macs * 1.0 + dn * 15.0);
        c.bytes = dl * (dn * 6 + n1 * n1 + n2 * n2) * kBytesPerResidue;
        c.launches = 3;
        break;
      }
      case ntt::NttVariant::Tensor: {
        double n1 = std::exp2(std::ceil(logn / 2));
        double n2 = dn / n1;
        // 16 u8-GEMMs per big GEMM on the TCUs; segmentation, fusion,
        // Hadamard and final modulo stay on CUDA cores.
        c.tcuMacs = dl * 16.0 * (n1 * n2 * n1 + n2 * n2 * n1);
        c.coreOps = dl * dn
            * (4.0 /*segment*/ + 32.0 /*fuse 16 partials, twice*/
               + 2 * kOpsPerModMul);
        // Segment planes and partial products stay on chip (smem/L2,
        // paper Fig. 8 stages chain in place); DRAM sees the operand,
        // the staged intermediates once, and the twiddle tiles.
        c.bytes = dl * (dn * 6 + n1 * n1 + n2 * n2) * kBytesPerResidue;
        c.launches = 5; // the five-stage workflow of paper Fig. 8
        break;
      }
    }
    return c;
}

KernelCost
hadaMultCost(std::size_t n, std::size_t limbs)
{
    double e = static_cast<double>(n) * static_cast<double>(limbs);
    return {3 * e * kBytesPerResidue, e * kOpsPerModMul, 0, 1};
}

KernelCost
eleAddCost(std::size_t n, std::size_t limbs)
{
    double e = static_cast<double>(n) * static_cast<double>(limbs);
    return {3 * e * kBytesPerResidue, e * kOpsPerModAdd, 0, 1};
}

KernelCost
frobeniusCost(std::size_t n, std::size_t limbs)
{
    double e = static_cast<double>(n) * static_cast<double>(limbs);
    // Pure permutation: memory-bound.
    return {2 * e * kBytesPerResidue, 0.5 * e, 0, 1};
}

KernelCost
convCost(std::size_t n, std::size_t src_limbs, std::size_t dst_limbs)
{
    double dn = static_cast<double>(n);
    double s = static_cast<double>(src_limbs);
    double t = static_cast<double>(dst_limbs);
    KernelCost c;
    // y_i = a_i * hatInv_i, then t accumulations of s products each.
    c.coreOps = dn * (s * kOpsPerModMul + s * t * (2.0 + 0.5));
    c.bytes = dn * (s + t) * kBytesPerResidue;
    c.launches = 1;
    return c;
}

CostModel::Decomp
CostModel::decomp(std::size_t level_count) const
{
    std::size_t k = static_cast<std::size_t>(p_.special);
    std::size_t alpha = p_.alpha();
    return {k, alpha, (level_count + alpha - 1) / alpha,
            level_count + k};
}

std::size_t
CostModel::rootStride(std::size_t slots)
{
    return static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
}

KernelCost
CostModel::op(EvalOpKind kind, std::size_t level_count) const
{
    std::size_t lc = level_count;
    switch (kind) {
      case EvalOpKind::HAdd:
        return 2 * eleAddCost(p_.n, lc);
      case EvalOpKind::CMult:
        return 2 * hadaMultCost(p_.n, lc);
      case EvalOpKind::HMult: {
        KernelCost c = 4 * hadaMultCost(p_.n, lc)
            + 3 * eleAddCost(p_.n, lc);
        c += keySwitch(lc);
        return c;
      }
      case EvalOpKind::HRotate:
      case EvalOpKind::Conjugate: {
        KernelCost c = 2 * frobeniusCost(p_.n, lc)
            + eleAddCost(p_.n, lc);
        c += keySwitch(lc);
        return c;
      }
      case EvalOpKind::Rescale: {
        // Alg. 6: INTT all limbs + scalar fix + NTT on lc-1, x2 polys.
        KernelCost c = 2 * nttCost(p_.n, lc, p_.nttVariant);
        c += 2 * nttCost(p_.n, lc - 1, p_.nttVariant);
        c += 2 * eleAddCost(p_.n, lc - 1);
        return c;
      }
      case EvalOpKind::KsHoist:
        // Dcomp input to coefficient domain, then per digit ModUp +
        // union-basis NTT.
        return hoistFromCoeff(lc, nttCost(p_.n, lc, p_.nttVariant));
      case EvalOpKind::KsTail: {
        // Inner product, then ModDown both accumulators.
        Decomp d = decomp(lc);
        KernelCost c = rawTail(lc);
        c += 2 * nttCost(p_.n, d.unionLimbs, p_.nttVariant);
        c += 2 * convCost(p_.n, d.k, lc);
        c += 2 * eleAddCost(p_.n, lc);
        c += 2 * nttCost(p_.n, lc, p_.nttVariant);
        return c;
      }
      default:
        break;
    }
    TFHE_ASSERT(false);
    return {};
}

double
CostModel::nttShare(EvalOpKind kind, std::size_t level_count) const
{
    KernelCost total = op(kind, level_count);
    // Rebuild only the NTT contributions of the composition.
    KernelCost nc;
    std::size_t lc = level_count;
    Decomp d = decomp(lc);
    switch (kind) {
      case EvalOpKind::HMult:
      case EvalOpKind::HRotate:
      case EvalOpKind::Conjugate:
        nc += nttCost(p_.n, lc, p_.nttVariant);
        nc += static_cast<double>(d.digits)
            * nttCost(p_.n, d.unionLimbs, p_.nttVariant);
        nc += 2 * nttCost(p_.n, d.unionLimbs, p_.nttVariant);
        nc += 2 * nttCost(p_.n, lc, p_.nttVariant);
        break;
      case EvalOpKind::Rescale:
        nc += 2 * nttCost(p_.n, lc, p_.nttVariant);
        nc += 2 * nttCost(p_.n, lc - 1, p_.nttVariant);
        break;
      case EvalOpKind::HAdd:
      case EvalOpKind::CMult:
        return 0.0;
      default:
        TFHE_ASSERT(false, "nttShare prices the Table II kinds only");
        return 0.0;
    }
    double t = total.coreOps + total.tcuMacs / 8.0;
    double nn = nc.coreOps + nc.tcuMacs / 8.0;
    return t == 0 ? 0.0 : nn / t;
}

KernelCost
CostModel::keySwitch(std::size_t level_count) const
{
    return op(EvalOpKind::KsHoist, level_count)
        + op(EvalOpKind::KsTail, level_count);
}

KernelCost
CostModel::rotateHoisted(std::size_t level_count,
                         std::size_t rotations) const
{
    Decomp d = decomp(level_count);
    KernelCost c = op(EvalOpKind::KsHoist, level_count);
    KernelCost per_rotation =
        frobeniusCost(p_.n, d.digits * d.unionLimbs) // hoisted digits
        + op(EvalOpKind::KsTail, level_count)
        + frobeniusCost(p_.n, level_count) // c0
        + eleAddCost(p_.n, level_count);
    c += static_cast<double>(rotations) * per_rotation;
    return c;
}

KernelCost
CostModel::rawTail(std::size_t level_count) const
{
    Decomp d = decomp(level_count);
    KernelCost c;
    for (std::size_t j = 0; j < d.digits; ++j) {
        // One dotRows pass over every digit: the two accumulators
        // live in registers across the digit loop, so DRAM sees only
        // the two operand reads per accumulator.
        double e = static_cast<double>(p_.n) * d.unionLimbs;
        c += KernelCost{2 * 2 * e * kBytesPerResidue,
                        2 * e * (kOpsPerModMul + kOpsPerModAdd), 0, 2};
    }
    return c;
}

KernelCost
CostModel::hoistFromCoeff(std::size_t level_count, KernelCost c) const
{
    Decomp d = decomp(level_count);
    for (std::size_t j = 0; j < d.digits; ++j) {
        std::size_t dsz = std::min(d.alpha, level_count - j * d.alpha);
        c += convCost(p_.n, dsz, d.unionLimbs - dsz); // ModUp
        c += nttCost(p_.n, d.unionLimbs, p_.nttVariant);
    }
    return c;
}

KernelCost
CostModel::modDownOne(std::size_t level_count) const
{
    Decomp d = decomp(level_count);
    KernelCost c = nttCost(p_.n, d.unionLimbs, p_.nttVariant);
    c += convCost(p_.n, d.k, level_count);
    c += hadaMultCost(p_.n, level_count); // sub + P^-1 Shoup multiply
    return c;
}

KernelCost
CostModel::matvec(std::size_t level_count, std::size_t diagonals,
                  std::size_t baby, std::size_t giant) const
{
    return blockMatvec(level_count, baby > 0 ? 1 : 0, diagonals, baby,
                       giant);
}

KernelCost
CostModel::blockMatvec(std::size_t level_count, std::size_t blocks,
                       std::size_t diagonals, std::size_t baby,
                       std::size_t giant) const
{
    Decomp d = decomp(level_count);

    // Double-hoisted dataflow (boot::LinearTransformPlan through
    // exec::Dispatcher::applyBsgs / applyBsgsSum):
    //  one head-1 per input block, then per baby step a digit
    //  FrobeniusMap + raw tail + c0 permutation + P-lift (ModDown
    //  deferred);
    KernelCost c;
    c += static_cast<double>(blocks)
        * op(EvalOpKind::KsHoist, level_count);
    KernelCost per_baby = frobeniusCost(p_.n, d.digits * d.unionLimbs)
        + rawTail(level_count)
        + frobeniusCost(p_.n, level_count)   // c0 permutation
        + hadaMultCost(p_.n, level_count);   // P-lift accumulate
    c += static_cast<double>(baby) * per_baby;

    //  per diagonal: CMULT + HADD fused on the extended basis (both
    //  components);
    c += static_cast<double>(diagonals)
        * (2 * hadaMultCost(p_.n, d.unionLimbs)
           + 2 * eleAddCost(p_.n, d.unionLimbs));

    //  per giant step: one c1-only ModDown, its own hoisted head
    //  (head-2, Coeff-domain input so the Dcomp INTT is skipped), a
    //  digit FrobeniusMap + raw tail, the QP c0 permutation, and the
    //  global-accumulator adds;
    KernelCost per_giant = modDownOne(level_count)
        + hoistFromCoeff(level_count)
        + frobeniusCost(p_.n, d.digits * d.unionLimbs)
        + rawTail(level_count)
        + frobeniusCost(p_.n, d.unionLimbs)
        + 3 * eleAddCost(p_.n, d.unionLimbs);
    c += static_cast<double>(giant) * per_giant;

    //  one final ModDown pair (back to the q-basis Eval domain) and
    //  the closing RESCALE.
    c += 2 * modDownOne(level_count);
    c += 2 * nttCost(p_.n, level_count, p_.nttVariant);
    c += op(EvalOpKind::Rescale, level_count);
    return c;
}

KernelCost
CostModel::bsgsLinearTransform(std::size_t level_count,
                               std::size_t slots) const
{
    std::size_t g = rootStride(slots);
    std::size_t n2 = (slots + g - 1) / g;
    // The fully-populated instance of the double-hoisted matvec at
    // the classic root stride (the plan may rebalance g further).
    return matvec(level_count, slots, g - 1, n2 - 1);
}

KernelCost
CostModel::sineEval(std::size_t lc, std::size_t taylor_terms,
                    std::size_t doublings) const
{
    double terms = static_cast<double>(taylor_terms);
    double d = static_cast<double>(doublings);
    double hmults = terms - 1 + d;
    double cmults = terms - 1;
    double hadds = terms + d;
    KernelCost sine;
    sine += hmults * op(EvalOpKind::HMult, lc);
    sine += cmults * op(EvalOpKind::CMult, lc);
    sine += hadds * op(EvalOpKind::HAdd, lc);
    sine += (hmults + cmults) * op(EvalOpKind::Rescale, lc);
    return sine;
}

KernelCost
CostModel::coeffToSlot(std::size_t lc, std::size_t slots) const
{
    KernelCost c = bsgsLinearTransform(lc, slots);
    c += op(EvalOpKind::Conjugate, lc - 1);
    c += 2.0 * op(EvalOpKind::HAdd, lc - 1);
    c += op(EvalOpKind::CMult, lc - 1);
    return c;
}

KernelCost
CostModel::recombine(std::size_t lc) const
{
    KernelCost c = 2.0 * op(EvalOpKind::CMult, lc);
    c += op(EvalOpKind::HAdd, lc);
    c += op(EvalOpKind::Rescale, lc);
    return c;
}

KernelCost
CostModel::bootstrap(std::size_t input_lc, std::size_t raised_lc,
                     std::size_t output_lc, std::size_t slots,
                     std::size_t taylor_terms,
                     std::size_t doublings) const
{
    TFHE_ASSERT(input_lc >= 2);
    TFHE_ASSERT(raised_lc > output_lc);
    // SlotToCoeff runs before the ModRaise, on the input tower — the
    // only stage whose price moves with bootstrap placement.
    KernelCost c = bsgsLinearTransform(input_lc, slots);
    // CoeffToSlot on the freshly raised tower.
    c += coeffToSlot(raised_lc, slots);
    // The sine ladders descend from raised_lc - 1 (C2S consumed one
    // level) toward the refreshed output; bill them at their entry
    // level (a conservative upper bound on the descending ladder).
    c += 2.0 * sineEval(raised_lc - 1, taylor_terms, doublings);
    // Recombine closes just above the refreshed output level.
    c += recombine(output_lc + 1);
    return c;
}

bool
CostModel::hoistedFoldWins(std::size_t level_count, std::size_t m) const
{
    // Exactly the argmin of rotateFold over the two schedules, so the
    // decision can never pick the one the model prices higher.
    return work(rotateFold(level_count, m, true))
        < work(rotateFold(level_count, m, false));
}

KernelCost
CostModel::rotateFold(std::size_t level_count, std::size_t m,
                      bool hoisted) const
{
    if (hoisted) {
        KernelCost c = rotateHoisted(level_count, m - 1);
        c += static_cast<double>(m - 1)
            * op(EvalOpKind::HAdd, level_count);
        return c;
    }
    double rounds = std::ceil(std::log2(static_cast<double>(m)));
    return rounds
        * (op(EvalOpKind::HRotate, level_count)
           + op(EvalOpKind::HAdd, level_count));
}

KernelCost
CostModel::polyActivation(std::size_t level_count, std::size_t powers,
                          std::size_t terms) const
{
    KernelCost c = static_cast<double>(powers)
        * (op(EvalOpKind::HMult, level_count)
           + op(EvalOpKind::Rescale, level_count));
    c += static_cast<double>(terms)
        * (op(EvalOpKind::CMult, level_count)
           + op(EvalOpKind::Rescale, level_count));
    c += static_cast<double>(terms)
        * op(EvalOpKind::HAdd, level_count);
    return c;
}

StrideChoice
CostModel::chooseBsgsStride(std::size_t level_count,
                            const std::vector<std::size_t> &diag_idx,
                            std::size_t slots,
                            bool restrict_to_root_pattern) const
{
    std::size_t root = rootStride(slots);
    std::vector<std::size_t> candidates;
    candidates.push_back(root);
    for (std::size_t g = 1; g < slots; g <<= 1)
        if (g > root)
            candidates.push_back(g);
    candidates.push_back(slots);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    StrideChoice best;
    double best_w = -1;
    for (std::size_t g : candidates) {
        std::vector<std::size_t> babies, giants;
        for (std::size_t d : diag_idx) {
            if (d % g != 0)
                babies.push_back(d % g);
            if (d / g != 0)
                giants.push_back(d / g * g);
        }
        auto uniq = [](std::vector<std::size_t> &v) {
            std::sort(v.begin(), v.end());
            v.erase(std::unique(v.begin(), v.end()), v.end());
        };
        uniq(babies);
        uniq(giants);
        if (restrict_to_root_pattern && g != root) {
            // Key-pattern containment: every step this stride
            // rotates by must already exist in the root-based key
            // grant (analytic pre-generated bundles cover exactly
            // that pattern).
            bool covered = true;
            for (std::size_t b : babies)
                covered = covered && b < root;
            for (std::size_t k : giants)
                covered = covered && k % root == 0;
            if (!covered)
                continue;
        }
        KernelCost c = matvec(level_count, diag_idx.size(),
                              babies.size(), giants.size());
        double w = work(c);
        if (best_w < 0 || w < best_w) {
            best_w = w;
            best = {g, babies.size(), giants.size(), c};
        }
    }
    return best;
}

} // namespace tensorfhe::perf
