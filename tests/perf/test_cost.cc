/**
 * @file
 * Perf-model tests: cost composition, roofline behaviour, and the
 * ordering properties that reproduce the paper's headline shape
 * (TensorFHE > TensorFHE-CO > TensorFHE-NT on the A100).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "perf/device_time.hh"
#include "perf/paper_data.hh"

namespace tensorfhe::perf
{
namespace
{

ckks::CkksParams
paperParams(ntt::NttVariant v)
{
    auto p = ckks::Presets::paperDefault();
    p.nttVariant = v;
    return p;
}

TEST(Cost, NttCostMonotoneInSizeAndLimbs)
{
    for (auto v : {ntt::NttVariant::Butterfly, ntt::NttVariant::Gemm,
                   ntt::NttVariant::Tensor}) {
        auto small = nttCost(1 << 12, 4, v);
        auto bigger_n = nttCost(1 << 14, 4, v);
        auto more_limbs = nttCost(1 << 12, 8, v);
        EXPECT_GT(bigger_n.coreOps + bigger_n.tcuMacs,
                  small.coreOps + small.tcuMacs);
        EXPECT_GT(more_limbs.coreOps + more_limbs.tcuMacs,
                  small.coreOps + small.tcuMacs);
    }
}

TEST(Cost, TensorVariantShiftsWorkToTcu)
{
    auto bf = nttCost(1 << 16, 45, ntt::NttVariant::Butterfly);
    auto tc = nttCost(1 << 16, 45, ntt::NttVariant::Tensor);
    EXPECT_EQ(bf.tcuMacs, 0.0);
    EXPECT_GT(tc.tcuMacs, 0.0);
    EXPECT_LT(tc.coreOps, bf.coreOps); // GEMM leaves cores the fixups
}

TEST(Cost, HMultDominatedByKeySwitchNtts)
{
    // Paper Fig. 11: NTT is 92.1% of HMULT time.
    auto p = paperParams(ntt::NttVariant::Tensor);
    double share = nttShare(OpKind::HMult, p, 45);
    EXPECT_GT(share, 0.75);
    EXPECT_LT(share, 1.0);
}

TEST(Cost, OpCostOrdering)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    auto hmult = opCost(OpKind::HMult, p, 45);
    auto hrot = opCost(OpKind::HRotate, p, 45);
    auto rescale = opCost(OpKind::Rescale, p, 45);
    auto hadd = opCost(OpKind::HAdd, p, 45);
    auto work = [](const KernelCost &c) {
        return c.coreOps + c.tcuMacs / 8.0 + c.bytes;
    };
    // HMULT ~ HROTATE >> RESCALE >> HADD (paper Table VI ordering).
    EXPECT_GT(work(hmult), work(rescale));
    EXPECT_GT(work(hrot), work(rescale));
    EXPECT_GT(work(rescale), work(hadd));
    EXPECT_NEAR(work(hmult) / work(hrot), 1.0, 0.3);
}

TEST(Cost, KeySwitchPhasesSumToWhole)
{
    // The hoist/tail split must be a pure partition of the composed
    // key-switch cost (Evaluator::keySwitch == hoist + tail).
    for (auto v : {ntt::NttVariant::Butterfly, ntt::NttVariant::Gemm,
                   ntt::NttVariant::Tensor}) {
        auto p = paperParams(v);
        auto whole = keySwitchCost(p, 45);
        auto sum = keySwitchHoistCost(p, 45) + keySwitchTailCost(p, 45);
        EXPECT_DOUBLE_EQ(whole.coreOps, sum.coreOps);
        EXPECT_DOUBLE_EQ(whole.tcuMacs, sum.tcuMacs);
        EXPECT_DOUBLE_EQ(whole.bytes, sum.bytes);
        EXPECT_DOUBLE_EQ(whole.launches, sum.launches);
    }
}

TEST(Cost, HoistedRotationsBeatSerialRotations)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    auto work = [](const KernelCost &c) {
        return c.coreOps + c.tcuMacs / 8.0 + c.bytes;
    };
    double serial_one = work(opCost(OpKind::HRotate, p, 45));
    for (std::size_t r : {std::size_t(2), std::size_t(8),
                          std::size_t(32)}) {
        double hoisted = work(rotateHoistedCost(p, 45, r));
        EXPECT_LT(hoisted, static_cast<double>(r) * serial_one)
            << r << " rotations";
    }
    // At 8+ rotations the shared head must be a substantial win, not
    // a rounding artifact.
    EXPECT_LT(work(rotateHoistedCost(p, 45, 8)), 0.9 * 8 * serial_one);
}

TEST(Cost, BsgsTransformBeatsNaiveDiagonalMethod)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    auto work = [](const KernelCost &c) {
        return c.coreOps + c.tcuMacs / 8.0 + c.bytes;
    };
    std::size_t slots = p.slots();
    // Naive diagonal method: one full HROTATE + CMULT + HADD per
    // diagonal.
    double naive = static_cast<double>(slots)
        * work(opCost(OpKind::HRotate, p, 45)
               + opCost(OpKind::CMult, p, 45)
               + opCost(OpKind::HAdd, p, 45));
    double bsgs = work(bsgsLinearTransformCost(p, 45, slots));
    EXPECT_LT(bsgs, naive);
}

TEST(Cost, MatvecBsgsMatchesFullyPopulatedTransform)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    std::size_t slots = p.slots();
    auto g = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
    std::size_t n2 = (slots + g - 1) / g;
    // With every diagonal populated, the explicit-count matvec cost
    // is exactly the fully-populated BSGS transform cost.
    auto a = matvecBsgsCost(p, 45, slots, g - 1, n2 - 1);
    auto b = bsgsLinearTransformCost(p, 45, slots);
    EXPECT_DOUBLE_EQ(a.coreOps, b.coreOps);
    EXPECT_DOUBLE_EQ(a.bytes, b.bytes);

    // Fewer populated diagonals only reduce the cost.
    auto sparse = matvecBsgsCost(p, 45, slots / 8, g - 1, n2 - 1);
    EXPECT_LT(sparse.coreOps, a.coreOps);
}

TEST(Cost, BlockMatvecSharesTheFinalModDownAcrossBlocks)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    std::size_t slots = p.slots();
    auto g = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
    std::size_t n2 = (slots + g - 1) / g;

    // One block degenerates to the plain matvec cost.
    auto one = blockMatvecBsgsCost(p, 45, 1, slots, g - 1, n2 - 1);
    auto plain = matvecBsgsCost(p, 45, slots, g - 1, n2 - 1);
    EXPECT_DOUBLE_EQ(one.coreOps, plain.coreOps);
    EXPECT_DOUBLE_EQ(one.bytes, plain.bytes);

    // Two accumulated blocks must be cheaper than two standalone
    // applications: the QP partial sums share one final ModDown pair
    // + RESCALE.
    auto fused = blockMatvecBsgsCost(p, 45, 2, 2 * slots,
                                     2 * (g - 1), 2 * (n2 - 1));
    EXPECT_LT(fused.coreOps, 2 * plain.coreOps);
    EXPECT_LT(fused.bytes, 2 * plain.bytes);
    // But they still pay both heads: more than one application.
    EXPECT_GT(fused.coreOps, plain.coreOps);
}

TEST(Cost, BootstrapCostScalesWithSlotsAndSineShape)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    auto base = bootstrapStagedCost(p, 45, 45, 44, p.slots(), 6, 4);
    EXPECT_GT(base.coreOps, 0.0);
    // The DFT stages dominate and grow with the slot count.
    auto fewer =
        bootstrapStagedCost(p, 45, 45, 44, p.slots() / 4, 6, 4);
    EXPECT_LT(fewer.coreOps, base.coreOps);
    // A deeper double-angle chain only adds work.
    auto deeper = bootstrapStagedCost(p, 45, 45, 44, p.slots(), 6, 6);
    EXPECT_GT(deeper.coreOps, base.coreOps);
    // The three transforms alone exceed one S2C: the fused split
    // pipeline is costed as 3 BSGS transforms, not 2 + a keyswitch.
    auto s2c = bsgsLinearTransformCost(p, 45, p.slots());
    EXPECT_GT(base.coreOps, 3 * s2c.coreOps);
}

TEST(Cost, RotateFoldCostTracksScheduleDecision)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    auto work = [](const KernelCost &c) {
        return c.coreOps + c.tcuMacs / 8.0 + c.bytes;
    };
    // The decision function must pick the cheaper schedule.
    for (std::size_t m : {4u, 16u, 64u}) {
        bool hoisted = hoistedFoldWins(p, 45, m);
        double h = work(rotateFoldCost(p, 45, m, true));
        double d = work(rotateFoldCost(p, 45, m, false));
        EXPECT_EQ(hoisted, h < d) << "m = " << m;
    }
}

TEST(Cost, PolyActivationScalesWithLadderSize)
{
    auto p = paperParams(ntt::NttVariant::Tensor);
    auto deg3 = polyActivationCost(p, 45, 2, 2);  // sigmoid3 shape
    auto deg7 = polyActivationCost(p, 45, 6, 7);
    EXPECT_GT(deg7.coreOps, deg3.coreOps);
    // Ladder products (HMULTs with keyswitch) dominate the term
    // steering CMULTs.
    auto powers_only = polyActivationCost(p, 45, 2, 0);
    auto terms_only = polyActivationCost(p, 45, 0, 2);
    EXPECT_GT(powers_only.coreOps, terms_only.coreOps);
}

TEST(DeviceTime, BatchingImprovesThroughput)
{
    DeviceTimeModel model(gpu::DeviceModel::a100());
    auto p = paperParams(ntt::NttVariant::Tensor);
    auto cost = opCost(OpKind::HMult, p, 45);
    double t1 = model.throughput(cost, 1);
    double t128 = model.throughput(cost, 128);
    EXPECT_GT(t128, t1);
}

TEST(DeviceTime, Table6Shape_VariantOrdering)
{
    // TensorFHE < TensorFHE-CO < TensorFHE-NT in HMULT time
    // (paper Table VI), at batch 128 on the A100 model.
    DeviceTimeModel model(gpu::DeviceModel::a100());
    double t_nt = model.seconds(
        opCost(OpKind::HMult, paperParams(ntt::NttVariant::Butterfly),
               45),
        128);
    double t_co = model.seconds(
        opCost(OpKind::HMult, paperParams(ntt::NttVariant::Gemm), 45),
        128);
    double t_tc = model.seconds(
        opCost(OpKind::HMult, paperParams(ntt::NttVariant::Tensor), 45),
        128);
    EXPECT_LT(t_tc, t_co);
    EXPECT_LT(t_tc, t_nt);
}

TEST(DeviceTime, Table6Shape_V100SlowerThanA100)
{
    DeviceTimeModel a100(gpu::DeviceModel::a100());
    DeviceTimeModel v100(gpu::DeviceModel::v100());
    auto cost = opCost(OpKind::HMult,
                       paperParams(ntt::NttVariant::Tensor), 45);
    EXPECT_GT(v100.seconds(cost, 128), a100.seconds(cost, 128));
}

TEST(DeviceTime, NoTensorCoreFallsBackToCudaCores)
{
    DeviceTimeModel pascal(gpu::DeviceModel::gtx1080ti());
    auto tc_cost = nttCost(1 << 14, 8, ntt::NttVariant::Tensor);
    auto bf_cost = nttCost(1 << 14, 8, ntt::NttVariant::Butterfly);
    // Without TCUs the segmented GEMM work lands on CUDA cores and
    // loses to the butterfly.
    EXPECT_GT(pascal.seconds(tc_cost, 32),
              pascal.seconds(bf_cost, 32));
}

TEST(PaperData, TablesAreInternallyConsistent)
{
    // Spot-check quoted speedups against the prose: HMULT CPU /
    // TensorFHE(A100) ~ 397x.
    const auto &cpu = paper::kTable6.front();
    const auto &best = paper::kTable6.back();
    EXPECT_NEAR(cpu.hmult / best.hmult, 397.1, 1.0);
    // HROTATE published occupancy rows exist for all five ops.
    EXPECT_EQ(paper::kTable9.size(), 5u);
}

} // namespace
} // namespace tensorfhe::perf
