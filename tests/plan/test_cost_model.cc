/**
 * @file
 * The planner's pricing contract: every perf::CostModel entry is
 * evaluable at an EXPLICIT level count and monotone in it (more
 * active limbs never cost less), the staged bootstrap price varies
 * with placement through its SlotToCoeff stage, and the BSGS stride
 * chooser is deterministic, honors the root-pattern key restriction,
 * and never does worse when the restriction is lifted.
 */

#include <gtest/gtest.h>

#include "perf/cost_model.hh"

namespace tensorfhe::perf
{
namespace
{

ckks::CkksParams
deepParams()
{
    auto p = ckks::Presets::bootTest();
    p.levels = 20;
    p.secretHamming = 8;
    return p;
}

constexpr std::size_t kMaxLc = 21; // levels + 1 q-limbs

TEST(CostModel, PolyActivationCostIsMonotoneInLevel)
{
    CostModel m(deepParams());
    double prev = 0;
    for (std::size_t lc = 1; lc <= kMaxLc; ++lc) {
        double w = CostModel::work(m.polyActivation(lc, 3, 4));
        EXPECT_GE(w, prev) << "level " << lc;
        prev = w;
    }
    // Strict overall: pricing at the tower top must exceed pricing
    // near the floor, else the planner has no reason to drop limbs.
    EXPECT_GT(CostModel::work(m.polyActivation(kMaxLc, 3, 4)),
              CostModel::work(m.polyActivation(2, 3, 4)));
}

TEST(CostModel, MatvecCostIsMonotoneInLevel)
{
    CostModel m(deepParams());
    double prev = 0;
    for (std::size_t lc = 1; lc <= kMaxLc; ++lc) {
        double w = CostModel::work(m.matvec(lc, 16, 7, 3));
        EXPECT_GE(w, prev) << "level " << lc;
        prev = w;
    }
    EXPECT_GT(CostModel::work(m.matvec(kMaxLc, 16, 7, 3)),
              CostModel::work(m.matvec(2, 16, 7, 3)));
}

TEST(CostModel, KeySwitchCostIsMonotoneInLevel)
{
    CostModel m(deepParams());
    double prev = 0;
    for (std::size_t lc = 1; lc <= kMaxLc; ++lc) {
        double w = CostModel::work(m.keySwitch(lc));
        EXPECT_GE(w, prev) << "level " << lc;
        prev = w;
    }
}

TEST(CostModel, StagedBootstrapCostIsMonotoneInInputLevel)
{
    // Only the SlotToCoeff stage depends on where the bootstrap is
    // placed; the raised/output stages are pinned. The planner relies
    // on "refresh earlier (lower input level) is never pricier".
    CostModel m(deepParams());
    double prev = 0;
    for (std::size_t in_lc = 2; in_lc <= kMaxLc; ++in_lc) {
        double w = CostModel::work(
            m.bootstrap(in_lc, kMaxLc, 10, 128, 6, 4));
        EXPECT_GE(w, prev) << "input level " << in_lc;
        prev = w;
    }
    EXPECT_GT(CostModel::work(m.bootstrap(kMaxLc, kMaxLc, 10, 128, 6, 4)),
              CostModel::work(m.bootstrap(2, kMaxLc, 10, 128, 6, 4)));
}

TEST(CostModel, StrideChoiceIsDeterministic)
{
    CostModel m(deepParams());
    std::vector<std::size_t> diags{1, 3, 17, 33, 64, 96, 127};
    for (bool restricted : {false, true}) {
        auto a = m.chooseBsgsStride(8, diags, 128, restricted);
        auto b = m.chooseBsgsStride(8, diags, 128, restricted);
        EXPECT_EQ(a.g, b.g);
        EXPECT_EQ(a.baby, b.baby);
        EXPECT_EQ(a.giant, b.giant);
        EXPECT_EQ(CostModel::work(a.cost), CostModel::work(b.cost));
        EXPECT_GT(a.g, 0u) << "no candidate survived";
    }
}

TEST(CostModel, UnrestrictedStrideIsNeverWorse)
{
    // Lifting the root-pattern key restriction only widens the
    // candidate set, so the chosen cost can only drop. This is the
    // win that generating keys for the planned steps unlocks.
    CostModel m(deepParams());
    std::vector<std::vector<std::size_t>> populations{
        {1, 2, 3, 4, 5, 6, 7},
        {1, 3, 17, 33, 64, 96, 127},
        {16, 32, 48, 64, 80, 96, 112},
        {1, 127},
    };
    for (const auto &diags : populations)
        for (std::size_t lc : {std::size_t{4}, std::size_t{12}}) {
            auto open = m.chooseBsgsStride(lc, diags, 128, false);
            auto rooted = m.chooseBsgsStride(lc, diags, 128, true);
            EXPECT_LE(CostModel::work(open.cost),
                      CostModel::work(rooted.cost))
                << "lc " << lc << " pop size " << diags.size();
        }
}

TEST(CostModel, StrideChoiceCostMatchesTheMatvecEntry)
{
    // The chooser's reported cost must be the same matvec entry the
    // planner would re-derive from the choice — one pricing, not two.
    CostModel m(deepParams());
    std::vector<std::size_t> diags{1, 3, 17, 33, 64, 96, 127};
    auto c = m.chooseBsgsStride(8, diags, 128, false);
    auto direct = m.matvec(8, diags.size(), c.baby, c.giant);
    EXPECT_EQ(CostModel::work(c.cost), CostModel::work(direct));
}

TEST(CostModel, StrideChoiceCostIsMonotoneInLevel)
{
    CostModel m(deepParams());
    std::vector<std::size_t> diags{1, 3, 17, 33, 64, 96, 127};
    double prev = 0;
    for (std::size_t lc = 2; lc <= kMaxLc; ++lc) {
        auto c = m.chooseBsgsStride(lc, diags, 128, false);
        double w = CostModel::work(c.cost);
        EXPECT_GE(w, prev) << "level " << lc;
        prev = w;
    }
}

} // namespace
} // namespace tensorfhe::perf
