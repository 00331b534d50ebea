#include "perf/cost.hh"

#include <cmath>

#include "common/logging.hh"
#include "perf/cost_model.hh"

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

KernelCost
keySwitchHoistCost(const ckks::CkksParams &p, std::size_t level_count)
{
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t alpha = p.alpha();
    std::size_t digits = (level_count + alpha - 1) / alpha;
    std::size_t union_limbs = level_count + k;

    KernelCost c;
    // Dcomp input to coefficient domain.
    c += nttCost(p.n, level_count, p.nttVariant);
    for (std::size_t j = 0; j < digits; ++j) {
        std::size_t dsz = std::min(alpha, level_count - j * alpha);
        c += convCost(p.n, dsz, union_limbs - dsz); // ModUp
        c += nttCost(p.n, union_limbs, p.nttVariant);
    }
    return c;
}

KernelCost
keySwitchTailCost(const ckks::CkksParams &p, std::size_t level_count)
{
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t alpha = p.alpha();
    std::size_t digits = (level_count + alpha - 1) / alpha;
    std::size_t union_limbs = level_count + k;

    KernelCost c;
    for (std::size_t j = 0; j < digits; ++j) {
        // Fused inner-product accumulate (mulAccumulate kernel): the
        // two accumulators live in registers across the digit loop,
        // so DRAM sees only the two operand reads per accumulator.
        double e = static_cast<double>(p.n) * union_limbs;
        c += KernelCost{2 * 2 * e * kBytesPerResidue,
                        2 * e * (kOpsPerModMul + kOpsPerModAdd), 0, 2};
    }
    // ModDown both accumulators.
    c += 2 * nttCost(p.n, union_limbs, p.nttVariant);
    c += 2 * convCost(p.n, k, level_count);
    c += 2 * eleAddCost(p.n, level_count);
    c += 2 * nttCost(p.n, level_count, p.nttVariant);
    return c;
}

KernelCost
keySwitchCost(const ckks::CkksParams &p, std::size_t level_count)
{
    return keySwitchHoistCost(p, level_count)
        + keySwitchTailCost(p, level_count);
}

KernelCost
rotateHoistedCost(const ckks::CkksParams &p, std::size_t level_count,
                  std::size_t rotations)
{
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t alpha = p.alpha();
    std::size_t digits = (level_count + alpha - 1) / alpha;
    std::size_t union_limbs = level_count + k;

    KernelCost c = keySwitchHoistCost(p, level_count);
    KernelCost per_rotation =
        frobeniusCost(p.n, digits * union_limbs) // hoisted digits
        + keySwitchTailCost(p, level_count)
        + frobeniusCost(p.n, level_count) // c0
        + eleAddCost(p.n, level_count);
    c += static_cast<double>(rotations) * per_rotation;
    return c;
}

namespace
{

/**
 * The inner-product-only ("raw") key-switch tail of the
 * double-hoisted path: the per-digit fused mul-accumulate on the
 * union basis, with NO ModDown and no domain moves — those are
 * deferred to the giant steps / the final ModDown.
 */
KernelCost
rawTailCost(const ckks::CkksParams &p, std::size_t level_count)
{
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t alpha = p.alpha();
    std::size_t digits = (level_count + alpha - 1) / alpha;
    std::size_t union_limbs = level_count + k;
    KernelCost c;
    for (std::size_t j = 0; j < digits; ++j) {
        double e = static_cast<double>(p.n) * union_limbs;
        c += KernelCost{2 * 2 * e * kBytesPerResidue,
                        2 * e * (kOpsPerModMul + kOpsPerModAdd), 0, 2};
    }
    return c;
}

/** keySwitchHoistCost for a Coeff-domain input: the Dcomp INTT is
    skipped, leaving the per-digit Conv + union-basis NTT work. */
KernelCost
hoistFromCoeffCost(const ckks::CkksParams &p, std::size_t level_count)
{
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t alpha = p.alpha();
    std::size_t digits = (level_count + alpha - 1) / alpha;
    std::size_t union_limbs = level_count + k;
    KernelCost c;
    for (std::size_t j = 0; j < digits; ++j) {
        std::size_t dsz = std::min(alpha, level_count - j * alpha);
        c += convCost(p.n, dsz, union_limbs - dsz); // ModUp
        c += nttCost(p.n, union_limbs, p.nttVariant);
    }
    return c;
}

/** One ModDown of a single polynomial (c1-only giant-step variant):
    INTT of the union basis, the p->q Conv, and the P^-1 fixup. */
KernelCost
modDownOneCost(const ckks::CkksParams &p, std::size_t level_count)
{
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t union_limbs = level_count + k;
    KernelCost c = nttCost(p.n, union_limbs, p.nttVariant);
    c += convCost(p.n, k, level_count);
    c += hadaMultCost(p.n, level_count); // sub + P^-1 Shoup multiply
    return c;
}

} // namespace

KernelCost
matvecBsgsCost(const ckks::CkksParams &p, std::size_t level_count,
               std::size_t diagonals, std::size_t baby,
               std::size_t giant)
{
    return blockMatvecBsgsCost(p, level_count, baby > 0 ? 1 : 0,
                               diagonals, baby, giant);
}

KernelCost
blockMatvecBsgsCost(const ckks::CkksParams &p, std::size_t level_count,
                    std::size_t blocks, std::size_t diagonals,
                    std::size_t baby, std::size_t giant)
{
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t alpha = p.alpha();
    std::size_t digits = (level_count + alpha - 1) / alpha;
    std::size_t union_limbs = level_count + k;

    // Double-hoisted dataflow (boot::LinearTransformPlan through
    // exec::Dispatcher::applyBsgs / applyBsgsSum):
    //  one head-1 per input block, then per baby step a digit
    //  FrobeniusMap + raw tail + c0 permutation + P-lift (ModDown
    //  deferred);
    KernelCost c;
    c += static_cast<double>(blocks)
        * keySwitchHoistCost(p, level_count);
    KernelCost per_baby = frobeniusCost(p.n, digits * union_limbs)
        + rawTailCost(p, level_count)
        + frobeniusCost(p.n, level_count)   // c0 permutation
        + hadaMultCost(p.n, level_count);   // P-lift accumulate
    c += static_cast<double>(baby) * per_baby;

    //  per diagonal: CMULT + HADD fused on the extended basis (both
    //  components);
    c += static_cast<double>(diagonals)
        * (2 * hadaMultCost(p.n, union_limbs)
           + 2 * eleAddCost(p.n, union_limbs));

    //  per giant step: one c1-only ModDown, its own hoisted head
    //  (head-2, Coeff-domain input so the Dcomp INTT is skipped), a
    //  digit FrobeniusMap + raw tail, the QP c0 permutation, and the
    //  global-accumulator adds;
    KernelCost per_giant = modDownOneCost(p, level_count)
        + hoistFromCoeffCost(p, level_count)
        + frobeniusCost(p.n, digits * union_limbs)
        + rawTailCost(p, level_count)
        + frobeniusCost(p.n, union_limbs)
        + 3 * eleAddCost(p.n, union_limbs);
    c += static_cast<double>(giant) * per_giant;

    //  one final ModDown pair (back to the q-basis Eval domain) and
    //  the closing RESCALE.
    c += 2 * modDownOneCost(p, level_count);
    c += 2 * nttCost(p.n, level_count, p.nttVariant);
    c += opCost(OpKind::Rescale, p, level_count);
    return c;
}

KernelCost
bsgsLinearTransformCost(const ckks::CkksParams &p,
                        std::size_t level_count, std::size_t slots)
{
    auto g = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
    std::size_t n2 = (slots + g - 1) / g;
    // The fully-populated instance of the double-hoisted matvec at
    // the classic root stride (the plan may rebalance g further).
    return matvecBsgsCost(p, level_count, slots, g - 1, n2 - 1);
}

namespace
{

/** One Taylor + double-angle sine evaluation priced at `lc` (mirrors
    boot::sineModeledOps): the Taylor ladder, coefficient steerings,
    odd product and the double-angle chain, each HMULT relinearizing
    once. */
KernelCost
sineEvalCost(const ckks::CkksParams &p, std::size_t lc,
             std::size_t taylor_terms, std::size_t doublings)
{
    double terms = static_cast<double>(taylor_terms);
    double d = static_cast<double>(doublings);
    double hmults = terms + 2 * d - 1;
    double cmults = 2 * terms - 1;
    double hadds = 2 * terms + d - 3;
    KernelCost sine;
    sine += hmults * opCost(OpKind::HMult, p, lc);
    sine += cmults * opCost(OpKind::CMult, p, lc);
    sine += hadds * opCost(OpKind::HAdd, p, lc);
    sine += (hmults + cmults) * opCost(OpKind::Rescale, p, lc);
    return sine;
}

/** Fused CoeffToSlot split pair at `lc`: plain + conjugate branches
    double the diagonal population and add g conjugate-composed tails
    (incl. the b = 0 conjugation) off the SAME head — giant + 2
    conversions each, no standalone conjugation keyswitch. */
KernelCost
coeffToSlotPairCost(const ckks::CkksParams &p, std::size_t lc,
                    std::size_t slots)
{
    auto g = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
    std::size_t n2 = (slots + g - 1) / g;
    return 2.0 * matvecBsgsCost(p, lc, 2 * slots, 2 * g - 1, n2 - 1);
}

/** Recombine at `lc`: two CMULTs, one HADD, one RESCALE. */
KernelCost
recombineCost(const ckks::CkksParams &p, std::size_t lc)
{
    KernelCost c = 2.0 * opCost(OpKind::CMult, p, lc);
    c += opCost(OpKind::HAdd, p, lc);
    c += opCost(OpKind::Rescale, p, lc);
    return c;
}

} // namespace

KernelCost
bootstrapStagedCost(const ckks::CkksParams &p, std::size_t input_lc,
                    std::size_t raised_lc, std::size_t output_lc,
                    std::size_t slots, std::size_t taylor_terms,
                    std::size_t doublings)
{
    TFHE_ASSERT(input_lc >= 2);
    TFHE_ASSERT(raised_lc > output_lc);
    // SlotToCoeff runs before the ModRaise, on the input tower — the
    // only stage whose price moves with bootstrap placement.
    KernelCost c = bsgsLinearTransformCost(p, input_lc, slots);
    // CoeffToSlot pair on the freshly raised tower.
    c += coeffToSlotPairCost(p, raised_lc, slots);
    // The sine ladders descend from raised_lc - 1 (C2S consumed one
    // level) toward the refreshed output; bill them at their entry
    // level (a conservative upper bound on the descending ladder).
    c += 2.0
        * sineEvalCost(p, raised_lc - 1, taylor_terms, doublings);
    // Recombine closes just above the refreshed output level.
    c += recombineCost(p, output_lc + 1);
    return c;
}

bool
hoistedFoldWins(const ckks::CkksParams &p, std::size_t level_count,
                std::size_t m)
{
    // Exactly the argmin of rotateFoldCost over the two schedules,
    // so the decision can never pick the one the model prices
    // higher.
    return CostModel::work(rotateFoldCost(p, level_count, m, true))
        < CostModel::work(rotateFoldCost(p, level_count, m, false));
}

KernelCost
rotateFoldCost(const ckks::CkksParams &p, std::size_t level_count,
               std::size_t m, bool hoisted)
{
    if (hoisted) {
        KernelCost c = rotateHoistedCost(p, level_count, m - 1);
        c += static_cast<double>(m - 1)
            * opCost(OpKind::HAdd, p, level_count);
        return c;
    }
    double rounds = std::ceil(std::log2(static_cast<double>(m)));
    return rounds
        * (opCost(OpKind::HRotate, p, level_count)
           + opCost(OpKind::HAdd, p, level_count));
}

KernelCost
polyActivationCost(const ckks::CkksParams &p, std::size_t level_count,
                   std::size_t powers, std::size_t terms)
{
    KernelCost c = static_cast<double>(powers)
        * (opCost(OpKind::HMult, p, level_count)
           + opCost(OpKind::Rescale, p, level_count));
    c += static_cast<double>(terms)
        * (opCost(OpKind::CMult, p, level_count)
           + opCost(OpKind::Rescale, p, level_count));
    c += static_cast<double>(terms)
        * opCost(OpKind::HAdd, p, level_count);
    return c;
}

const char *
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::HMult: return "HMULT";
      case OpKind::CMult: return "CMULT";
      case OpKind::HAdd: return "HADD";
      case OpKind::HRotate: return "HROTATE";
      case OpKind::Rescale: return "RESCALE";
      case OpKind::Conjugate: return "CONJ";
      default: TFHE_ASSERT(false); return "?";
    }
}

KernelCost
opCost(OpKind op, const ckks::CkksParams &p, std::size_t level_count)
{
    std::size_t lc = level_count;
    switch (op) {
      case OpKind::HAdd:
        return 2 * eleAddCost(p.n, lc);
      case OpKind::CMult:
        return 2 * hadaMultCost(p.n, lc);
      case OpKind::HMult: {
        KernelCost c = 4 * hadaMultCost(p.n, lc)
            + 3 * eleAddCost(p.n, lc);
        c += keySwitchCost(p, lc);
        return c;
      }
      case OpKind::HRotate:
      case OpKind::Conjugate: {
        KernelCost c = 2 * frobeniusCost(p.n, lc)
            + eleAddCost(p.n, lc);
        c += keySwitchCost(p, lc);
        return c;
      }
      case OpKind::Rescale: {
        // Alg. 6: INTT all limbs + scalar fix + NTT on lc-1, x2 polys.
        KernelCost c = 2 * nttCost(p.n, lc, p.nttVariant);
        c += 2 * nttCost(p.n, lc - 1, p.nttVariant);
        c += 2 * eleAddCost(p.n, lc - 1);
        return c;
      }
    }
    TFHE_ASSERT(false);
    return {};
}

double
nttShare(OpKind op, const ckks::CkksParams &p, std::size_t level_count)
{
    KernelCost total = opCost(op, p, level_count);
    // Rebuild only the NTT contributions of the composition.
    KernelCost nc;
    std::size_t k = static_cast<std::size_t>(p.special);
    std::size_t alpha = p.alpha();
    std::size_t lc = level_count;
    std::size_t digits = (lc + alpha - 1) / alpha;
    switch (op) {
      case OpKind::HMult:
      case OpKind::HRotate:
      case OpKind::Conjugate:
        nc += nttCost(p.n, lc, p.nttVariant);
        nc += static_cast<double>(digits)
            * nttCost(p.n, lc + k, p.nttVariant);
        nc += 2 * nttCost(p.n, lc + k, p.nttVariant);
        nc += 2 * nttCost(p.n, lc, p.nttVariant);
        break;
      case OpKind::Rescale:
        nc += 2 * nttCost(p.n, lc, p.nttVariant);
        nc += 2 * nttCost(p.n, lc - 1, p.nttVariant);
        break;
      default:
        return 0.0;
    }
    double t = total.coreOps + total.tcuMacs / 8.0;
    double nn = nc.coreOps + nc.tcuMacs / 8.0;
    return t == 0 ? 0.0 : nn / t;
}

} // namespace tensorfhe::perf
