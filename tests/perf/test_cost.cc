/**
 * @file
 * Perf-model tests: cost composition, roofline behaviour, and the
 * ordering properties that reproduce the paper's headline shape
 * (TensorFHE > TensorFHE-CO > TensorFHE-NT on the A100).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "perf/cost_model.hh"
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
    double share = CostModel(p).nttShare(EvalOpKind::HMult, 45);
    EXPECT_GT(share, 0.75);
    EXPECT_LT(share, 1.0);
}

TEST(Cost, OpCostOrdering)
{
    CostModel m(paperParams(ntt::NttVariant::Tensor));
    auto hmult = m.op(EvalOpKind::HMult, 45);
    auto hrot = m.op(EvalOpKind::HRotate, 45);
    auto rescale = m.op(EvalOpKind::Rescale, 45);
    auto hadd = m.op(EvalOpKind::HAdd, 45);
    auto work = CostModel::work;
    // HMULT ~ HROTATE >> RESCALE >> HADD (paper Table VI ordering).
    EXPECT_GT(work(hmult), work(rescale));
    EXPECT_GT(work(hrot), work(rescale));
    EXPECT_GT(work(rescale), work(hadd));
    EXPECT_NEAR(work(hmult) / work(hrot), 1.0, 0.3);
}

TEST(Cost, KeySwitchPhasesSumToWhole)
{
    // The hoist/tail split must be a pure partition of the composed
    // key-switch cost (a key switch is Dispatcher::hoist + tail).
    for (auto v : {ntt::NttVariant::Butterfly, ntt::NttVariant::Gemm,
                   ntt::NttVariant::Tensor}) {
        CostModel m(paperParams(v));
        auto whole = m.keySwitch(45);
        auto sum = m.op(EvalOpKind::KsHoist, 45)
            + m.op(EvalOpKind::KsTail, 45);
        EXPECT_DOUBLE_EQ(whole.coreOps, sum.coreOps);
        EXPECT_DOUBLE_EQ(whole.tcuMacs, sum.tcuMacs);
        EXPECT_DOUBLE_EQ(whole.bytes, sum.bytes);
        EXPECT_DOUBLE_EQ(whole.launches, sum.launches);
    }
}

TEST(Cost, HoistedRotationsBeatSerialRotations)
{
    CostModel m(paperParams(ntt::NttVariant::Tensor));
    auto work = CostModel::work;
    double serial_one = work(m.op(EvalOpKind::HRotate, 45));
    for (std::size_t r : {std::size_t(2), std::size_t(8),
                          std::size_t(32)}) {
        double hoisted = work(m.rotateHoisted(45, r));
        EXPECT_LT(hoisted, static_cast<double>(r) * serial_one)
            << r << " rotations";
    }
    // At 8+ rotations the shared head must be a substantial win, not
    // a rounding artifact.
    EXPECT_LT(work(m.rotateHoisted(45, 8)), 0.9 * 8 * serial_one);
}

TEST(Cost, BsgsTransformBeatsNaiveDiagonalMethod)
{
    CostModel m(paperParams(ntt::NttVariant::Tensor));
    auto work = CostModel::work;
    std::size_t slots = m.params().slots();
    // Naive diagonal method: one full HROTATE + CMULT + HADD per
    // diagonal.
    double naive = static_cast<double>(slots)
        * work(m.op(EvalOpKind::HRotate, 45)
               + m.op(EvalOpKind::CMult, 45)
               + m.op(EvalOpKind::HAdd, 45));
    double bsgs = work(m.bsgsLinearTransform(45, slots));
    EXPECT_LT(bsgs, naive);
}

TEST(Cost, MatvecBsgsMatchesFullyPopulatedTransform)
{
    CostModel m(paperParams(ntt::NttVariant::Tensor));
    std::size_t slots = m.params().slots();
    auto g = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
    std::size_t n2 = (slots + g - 1) / g;
    // With every diagonal populated, the explicit-count matvec cost
    // is exactly the fully-populated BSGS transform cost.
    auto a = m.matvec(45, slots, g - 1, n2 - 1);
    auto b = m.bsgsLinearTransform(45, slots);
    EXPECT_DOUBLE_EQ(a.coreOps, b.coreOps);
    EXPECT_DOUBLE_EQ(a.bytes, b.bytes);

    // Fewer populated diagonals only reduce the cost.
    auto sparse = m.matvec(45, slots / 8, g - 1, n2 - 1);
    EXPECT_LT(sparse.coreOps, a.coreOps);
}

TEST(Cost, BlockMatvecSharesTheFinalModDownAcrossBlocks)
{
    CostModel m(paperParams(ntt::NttVariant::Tensor));
    std::size_t slots = m.params().slots();
    auto g = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
    std::size_t n2 = (slots + g - 1) / g;

    // One block degenerates to the plain matvec cost.
    auto one = m.blockMatvec(45, 1, slots, g - 1, n2 - 1);
    auto plain = m.matvec(45, slots, g - 1, n2 - 1);
    EXPECT_DOUBLE_EQ(one.coreOps, plain.coreOps);
    EXPECT_DOUBLE_EQ(one.bytes, plain.bytes);

    // Two accumulated blocks must be cheaper than two standalone
    // applications: the QP partial sums share one final ModDown pair
    // + RESCALE.
    auto fused = m.blockMatvec(45, 2, 2 * slots, 2 * (g - 1),
                               2 * (n2 - 1));
    EXPECT_LT(fused.coreOps, 2 * plain.coreOps);
    EXPECT_LT(fused.bytes, 2 * plain.bytes);
    // But they still pay both heads: more than one application.
    EXPECT_GT(fused.coreOps, plain.coreOps);
}

TEST(Cost, BootstrapCostScalesWithSlotsAndSineShape)
{
    CostModel m(paperParams(ntt::NttVariant::Tensor));
    std::size_t slots = m.params().slots();
    auto base = m.bootstrap(45, 45, 44, slots, 6, 4);
    EXPECT_GT(base.coreOps, 0.0);
    // The DFT stages dominate and grow with the slot count.
    auto fewer = m.bootstrap(45, 45, 44, slots / 4, 6, 4);
    EXPECT_LT(fewer.coreOps, base.coreOps);
    // A deeper double-angle chain only adds work.
    auto deeper = m.bootstrap(45, 45, 44, slots, 6, 6);
    EXPECT_GT(deeper.coreOps, base.coreOps);
    // S2C and C2S are transforms of one shape; the split after C2S
    // adds a conjugation and three elementwise ops, not a third
    // transform.
    auto s2c = m.bsgsLinearTransform(45, slots);
    EXPECT_GT(base.coreOps, 2 * s2c.coreOps);
    EXPECT_LT(base.coreOps, 3 * s2c.coreOps);
}

TEST(Cost, RotateFoldCostTracksScheduleDecision)
{
    CostModel model(paperParams(ntt::NttVariant::Tensor));
    auto work = CostModel::work;
    // The decision function must pick the cheaper schedule.
    for (std::size_t m : {4u, 16u, 64u}) {
        bool hoisted = model.hoistedFoldWins(45, m);
        double h = work(model.rotateFold(45, m, true));
        double d = work(model.rotateFold(45, m, false));
        EXPECT_EQ(hoisted, h < d) << "m = " << m;
    }
}

TEST(Cost, PolyActivationScalesWithLadderSize)
{
    CostModel m(paperParams(ntt::NttVariant::Tensor));
    auto deg3 = m.polyActivation(45, 2, 2);  // sigmoid3 shape
    auto deg7 = m.polyActivation(45, 6, 7);
    EXPECT_GT(deg7.coreOps, deg3.coreOps);
    // Ladder products (HMULTs with keyswitch) dominate the term
    // steering CMULTs.
    auto powers_only = m.polyActivation(45, 2, 0);
    auto terms_only = m.polyActivation(45, 0, 2);
    EXPECT_GT(powers_only.coreOps, terms_only.coreOps);
}

// ------------------------------------------------------------------
// Golden prices. The paper-table model rows, the BSGS stride choice
// and the planner all read these prices, so every public pricing
// entry is pinned here bit for bit: a restructuring that reorders a
// sum, or reprices an operation by accident, fails. Regenerate the
// tables only with a change that means to reprice.

ckks::CkksParams
deepParams()
{
    // The deep functional set of tests/plan/test_cost_model.cc.
    auto p = ckks::Presets::bootTest();
    p.levels = 20;
    p.secretHamming = 8;
    return p;
}

/**
 * Every public pricing entry at one (parameter set, level count), in
 * a fixed order: the four KernelCost fields of each priced entry,
 * nttShare beside each Table II kind, then hoistedFoldWins for
 * m = 4, 16 and 64 as 0 or 1. `top` is the set's full level count.
 */
std::vector<std::pair<std::string, double>>
priceEverything(const ckks::CkksParams &p, std::size_t lc,
                std::size_t top)
{
    CostModel m(p);
    std::vector<std::pair<std::string, double>> out;
    auto cost = [&](const std::string &entry, const KernelCost &c) {
        out.emplace_back(entry + ".bytes", c.bytes);
        out.emplace_back(entry + ".coreOps", c.coreOps);
        out.emplace_back(entry + ".tcuMacs", c.tcuMacs);
        out.emplace_back(entry + ".launches", c.launches);
    };
    for (EvalOpKind k : {EvalOpKind::HMult, EvalOpKind::CMult,
                         EvalOpKind::HAdd, EvalOpKind::HRotate,
                         EvalOpKind::Rescale, EvalOpKind::Conjugate}) {
        std::string name = evalOpKindName(k);
        cost("op " + name, m.op(k, lc));
        out.emplace_back("nttShare " + name, m.nttShare(k, lc));
    }
    cost("op KS-hoist", m.op(EvalOpKind::KsHoist, lc));
    cost("op KS-tail", m.op(EvalOpKind::KsTail, lc));
    cost("keySwitch", m.keySwitch(lc));
    cost("rotateHoisted", m.rotateHoisted(lc, 8));
    cost("bsgsLinearTransform", m.bsgsLinearTransform(lc, p.slots()));
    cost("matvec", m.matvec(lc, 16, 7, 3));
    cost("blockMatvec", m.blockMatvec(lc, 2, 32, 14, 6));
    cost("bootstrap", m.bootstrap(lc, top, top / 2, p.slots(), 7, 4));
    cost("polyActivation", m.polyActivation(lc, 3, 4));
    cost("rotateFold hoisted", m.rotateFold(lc, 16, true));
    cost("rotateFold doubling", m.rotateFold(lc, 16, false));
    for (std::size_t fold : {4, 16, 64})
        out.emplace_back("hoistedFoldWins m=" + std::to_string(fold),
                         m.hoistedFoldWins(lc, fold) ? 1.0 : 0.0);
    return out;
}

ckks::CkksParams
goldenParams(const std::string &set)
{
    if (set == "paper/Butterfly")
        return paperParams(ntt::NttVariant::Butterfly);
    if (set == "paper/Gemm")
        return paperParams(ntt::NttVariant::Gemm);
    if (set == "paper/Tensor")
        return paperParams(ntt::NttVariant::Tensor);
    return deepParams();
}

struct GoldenPrices
{
    const char *set;
    std::size_t lc;
    std::vector<double> values; ///< priceEverything order
};

const GoldenPrices kGoldenPrices[] = {
    {"paper/Butterfly", 45, {
        7872970752, 89201639424, 0, 196, 0.97205440563540468, 70778880,
        35389440, 0, 2, 0, 70778880, 8847360, 0, 2, 0, 7707820032,
        89124962304, 0, 192, 0.97289069583268073, 442499072, 6727925760,
        0, 6, 0.99871420222092344, 7707820032, 89124962304, 0, 192,
        0.97289069583268073, 4978114560, 80188047360, 0, 91, 2647130112,
        8929542144, 0, 98, 7625244672, 89117589504, 0, 189, 35309223936,
        152214208512, 0, 899, 6862425817088, 16786092785664, 0, 181850,
        56664522752, 356521082880, 0, 1384, 112409968640, 699393048576,
        0, 2754, 13899935514624, 35582369005568, 0, 368006, 27282636800,
        314877345792, 0, 646, 62910627840, 215369809920, 0, 1636,
        31114395648, 356535238656, 0, 776, 1, 1, 0,
    }},
    {"paper/Gemm", 45, {
        7872970752, 81975902208, 0, 296, 0.96959115099855864, 70778880,
        35389440, 0, 2, 0, 70778880, 8847360, 0, 2, 0, 7707820032,
        81899225088, 0, 292, 0.97049891852573811, 442499072, 6167986176,
        0, 14, 0.99859747545582045, 7707820032, 81899225088, 0, 292,
        0.97049891852573811, 4978114560, 73534832640, 0, 183,
        2647130112, 8357019648, 0, 106, 7625244672, 81891852288, 0, 289,
        35309223936, 140980813824, 0, 1055, 6862425817088,
        15580162228224, 0, 198518, 56664522752, 328766324736, 0, 1768,
        112409968640, 645015994368, 0, 3506, 13899935514624,
        33007244607488, 0, 403664, 27282636800, 289280557056, 0, 1002,
        62910627840, 200128757760, 0, 1848, 31114395648, 327632289792,
        0, 1176, 1, 1, 0,
    }},
    {"paper/Tensor", 45, {
        7872970752, 9718530048, 1233192484864, 396, 0.98478776174092286,
        70778880, 35389440, 0, 2, 0, 70778880, 8847360, 0, 2, 0,
        7707820032, 9641852928, 1233192484864, 392, 0.98524878053464815,
        442499072, 568590336, 95563022336, 22, 0.9993087123195844,
        7707820032, 9641852928, 1233192484864, 392, 0.98524878053464815,
        4978114560, 7002685440, 1135481978880, 275, 2647130112,
        2631794688, 97710505984, 114, 7625244672, 9634480128,
        1233192484864, 389, 35309223936, 28646866944, 1917166026752,
        1211, 6862425817088, 3520856653824, 205812148469760, 215186,
        56664522752, 51218743296, 4736812056576, 2152, 112409968640,
        101245452288, 9280350584832, 4258, 13899935514624,
        7256000626688, 439487897272320, 439322, 27282636800,
        33312669696, 4368518610944, 1358, 62910627840, 47718236160,
        2601139568640, 2060, 31114395648, 38602801152, 4932769939456,
        1576, 1, 1, 0,
    }},
    {"deep", 2, {
        165888, 1377536, 0, 24, 0.96338970451588923, 12288, 6144, 0, 2,
        0, 12288, 1536, 0, 2, 0, 137216, 1364224, 0, 20,
        0.97279039219365737, 30720, 443136, 0, 6, 0.99826689774696709,
        137216, 1364224, 0, 20, 0.97279039219365737, 38912, 595456, 0,
        5, 83968, 767488, 0, 12, 122880, 1362944, 0, 17, 890880,
        6749696, 0, 125, 6594560, 10587904, 0, 768, 1417216, 4270080, 0,
        180, 2744320, 7347968, 0, 346, 254559232, 1510238720, 0, 5042,
        811008, 7265280, 0, 130, 1820672, 12157696, 0, 260, 598016,
        5463040, 0, 88, 0, 0, 0,
    }},
    {"deep", 11, {
        1778688, 14641664, 0, 60, 0.95170822114207787, 67584, 33792, 0,
        2, 0, 67584, 8448, 0, 2, 0, 1620992, 14568448, 0, 56,
        0.95649117874464051, 233472, 3104256, 0, 6, 0.99752597723899061,
        1620992, 14568448, 0, 56, 0.95649117874464051, 720896, 10637440,
        0, 23, 821248, 3923968, 0, 30, 1542144, 14561408, 0, 53,
        9904128, 42209408, 0, 287, 46822400, 141803008, 0, 1344,
        14817280, 55543296, 0, 432, 29120512, 104539904, 0, 850,
        294787072, 1641453824, 0, 5618, 7511040, 65823744, 0, 238,
        18953216, 69961600, 0, 548, 6754304, 58307584, 0, 232, 1, 0, 0,
    }},
    {"deep", 21, {
        5321728, 44239104, 0, 100, 0.9482839435446071, 129024, 64512, 0,
        2, 0, 129024, 16128, 0, 2, 0, 5020672, 44099328, 0, 96,
        0.95128959788230782, 458752, 6061056, 0, 6, 0.99746578813988851,
        5020672, 44099328, 0, 96, 0.95128959788230782, 2451456,
        35925120, 0, 43, 2418688, 8160768, 0, 50, 4870144, 44085888, 0,
        93, 30230528, 101770368, 0, 467, 126735360, 458859008, 0, 1984,
        45271040, 176572416, 0, 712, 89556992, 340648704, 0, 1410,
        374700032, 1958509824, 0, 6258, 20208640, 175467264, 0, 358,
        56472576, 159626880, 0, 868, 20598784, 176461824, 0, 392, 1, 0,
        0,
    }},
};

TEST(CostGolden, EveryPriceIsPinned)
{
    for (const auto &g : kGoldenPrices) {
        auto p = goldenParams(g.set);
        auto got = priceEverything(p, g.lc, p.levels + 1);
        ASSERT_EQ(got.size(), g.values.size()) << g.set;
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].second, g.values[i])
                << g.set << " at " << g.lc << " limbs: "
                << got[i].first;
    }
}

struct GoldenStride
{
    std::size_t population; ///< index into the populations below
    std::size_t lc;
    bool restricted;
    std::size_t g, baby, giant;
    double work;
};

const GoldenStride kGoldenStrides[] = {
    {0, 4, false, 12, 7, 0, 6641152},
    {0, 4, true, 12, 7, 0, 6641152},
    {0, 12, false, 12, 7, 0, 34127360},
    {0, 12, true, 12, 7, 0, 34127360},
    {1, 4, false, 128, 7, 0, 6641152},
    {1, 4, true, 12, 6, 5, 17787136},
    {1, 12, false, 128, 7, 0, 34127360},
    {1, 12, true, 12, 6, 5, 108673280},
    {2, 4, false, 128, 7, 0, 6641152},
    {2, 4, true, 12, 2, 7, 21419776},
    {2, 12, false, 128, 7, 0, 34127360},
    {2, 12, true, 12, 2, 7, 132519680},
    {3, 4, false, 128, 2, 0, 5091072},
    {3, 4, true, 12, 2, 1, 7366144},
    {3, 12, false, 128, 2, 0, 24784640},
    {3, 12, true, 12, 2, 1, 40025600},
};

TEST(CostGolden, EveryStrideChoiceIsPinned)
{
    // The four diagonal populations of tests/plan/test_cost_model.cc.
    const std::vector<std::size_t> populations[] = {
        {1, 2, 3, 4, 5, 6, 7},
        {1, 3, 17, 33, 64, 96, 127},
        {16, 32, 48, 64, 80, 96, 112},
        {1, 127},
    };
    CostModel m(deepParams());
    for (const auto &s : kGoldenStrides) {
        auto c = m.chooseBsgsStride(s.lc, populations[s.population],
                                    128, s.restricted);
        EXPECT_EQ(c.g, s.g) << "population " << s.population;
        EXPECT_EQ(c.baby, s.baby) << "population " << s.population;
        EXPECT_EQ(c.giant, s.giant) << "population " << s.population;
        EXPECT_EQ(CostModel::work(c.cost), s.work)
            << "population " << s.population;
    }
}

TEST(DeviceTime, BatchingImprovesThroughput)
{
    DeviceTimeModel model(gpu::DeviceModel::a100());
    auto cost = CostModel(paperParams(ntt::NttVariant::Tensor))
                    .op(EvalOpKind::HMult, 45);
    double t1 = model.throughput(cost, 1);
    double t128 = model.throughput(cost, 128);
    EXPECT_GT(t128, t1);
}

TEST(DeviceTime, Table6Shape_VariantOrdering)
{
    // TensorFHE < TensorFHE-CO < TensorFHE-NT in HMULT time
    // (paper Table VI), at batch 128 on the A100 model.
    DeviceTimeModel model(gpu::DeviceModel::a100());
    auto hmult = [](ntt::NttVariant v) {
        return CostModel(paperParams(v)).op(EvalOpKind::HMult, 45);
    };
    double t_nt = model.seconds(hmult(ntt::NttVariant::Butterfly), 128);
    double t_co = model.seconds(hmult(ntt::NttVariant::Gemm), 128);
    double t_tc = model.seconds(hmult(ntt::NttVariant::Tensor), 128);
    EXPECT_LT(t_tc, t_co);
    EXPECT_LT(t_tc, t_nt);
}

TEST(DeviceTime, Table6Shape_V100SlowerThanA100)
{
    DeviceTimeModel a100(gpu::DeviceModel::a100());
    DeviceTimeModel v100(gpu::DeviceModel::v100());
    auto cost = CostModel(paperParams(ntt::NttVariant::Tensor))
                    .op(EvalOpKind::HMult, 45);
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
