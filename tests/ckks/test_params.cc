/**
 * @file
 * Parameter preset and validation tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "ckks/params.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace tensorfhe::ckks
{
namespace
{

TEST(Params, PaperTableVPresets)
{
    EXPECT_EQ(Presets::paperDefault().n, std::size_t(1) << 16);
    EXPECT_EQ(Presets::paperDefault().levels, 44);
    EXPECT_EQ(Presets::paperResNet20().levels, 29);
    EXPECT_EQ(Presets::paperLogisticRegression().levels, 38);
    EXPECT_EQ(Presets::paperLstm().n, std::size_t(1) << 15);
    EXPECT_EQ(Presets::paperLstm().levels, 25);
    EXPECT_EQ(Presets::paperPackedBootstrapping().levels, 57);
    for (auto p : {Presets::paperDefault(), Presets::paperResNet20(),
                   Presets::paperLogisticRegression(),
                   Presets::paperLstm(),
                   Presets::paperPackedBootstrapping()}) {
        EXPECT_EQ(p.special, 1);
        EXPECT_NO_THROW(p.validate());
    }
}

TEST(Params, HeaxSets)
{
    EXPECT_EQ(Presets::heaxSetA().n, std::size_t(1) << 12);
    EXPECT_EQ(Presets::heaxSetB().n, std::size_t(1) << 13);
    EXPECT_EQ(Presets::heaxSetC().n, std::size_t(1) << 14);
    EXPECT_EQ(Presets::heaxSetA().special, 2);
    EXPECT_EQ(Presets::heaxSetB().special, 4);
    EXPECT_EQ(Presets::heaxSetC().special, 8);
    for (auto p : {Presets::heaxSetA(), Presets::heaxSetB(),
                   Presets::heaxSetC()})
        EXPECT_NO_THROW(p.validate());
}

TEST(Params, AlphaAndDnum)
{
    CkksParams p = Presets::small(); // L = 6 -> 7 primes
    EXPECT_EQ(p.effectiveDnum(), 7);
    EXPECT_EQ(p.alpha(), 1u);
    p.dnum = 4;
    EXPECT_EQ(p.alpha(), 2u); // ceil(7/4)
    p.dnum = 3;
    EXPECT_EQ(p.alpha(), 3u);
}

TEST(Params, ValidationCatchesSmallSpecialModulus)
{
    CkksParams p = Presets::small();
    p.dnum = 1; // one digit of 30 + 6*25 = 180 bits vs P = 30 bits
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p.special = 6;
    p.dnum = 2;
    EXPECT_NO_THROW(p.validate());
}

TEST(Params, ScaleAndSlots)
{
    CkksParams p = Presets::tiny();
    EXPECT_DOUBLE_EQ(p.scale(), double(u64(1) << 25));
    EXPECT_EQ(p.slots(), p.n / 2);
}

TEST(SpecialRule, DerivedKValidatesAndOneFewerThrowsForEveryDnum)
{
    for (const CkksParams &base :
         {Presets::paperDefault(), Presets::paperResNet20(),
          Presets::paperLogisticRegression(), Presets::paperLstm(),
          Presets::paperPackedBootstrapping(), Presets::heaxSetA(),
          Presets::heaxSetB(), Presets::heaxSetC(), Presets::tiny(),
          Presets::small(), Presets::medium(), Presets::bootTest()}) {
        for (int dnum = 1; dnum <= base.levels + 1; ++dnum) {
            SCOPED_TRACE("N=" + std::to_string(base.n) + " L="
                         + std::to_string(base.levels)
                         + " dnum=" + std::to_string(dnum));
            CkksParams p = base;
            p.dnum = dnum;
            p.special = p.minSpecial();
            EXPECT_GE(p.special, 1);
            EXPECT_NO_THROW(p.validate());
            p.special -= 1;
            EXPECT_THROW(p.validate(), std::invalid_argument);
        }
    }
}

TEST(SpecialRule, CoversTheWidestDigitInBits)
{
    CkksParams p = Presets::tiny(); // q0 30 bits, scale 25, p 30
    EXPECT_EQ(p.minSpecial(), 1);   // one-limb digits: 30 bits
    p.dnum = 2;                     // 30 + 25 = 55 bits -> 2 primes
    EXPECT_EQ(p.alpha(), 2u);
    EXPECT_EQ(p.minSpecial(), 2);
    p.dnum = 1;                     // 30 + 3 * 25 = 105 -> 4 primes
    EXPECT_EQ(p.minSpecial(), 4);
}

TEST(SpecialRule, WorkloadDecompositions)
{
    using workloads::EncryptedCnnClassifier;
    using workloads::EncryptedLstmCell;
    struct Row
    {
        CkksParams p;
        int dnum;
        int special;
        int logPQ;
    } rows[] = {
        {EncryptedCnnClassifier::recommendedDeepParams(), 7, 3, 684},
        {EncryptedCnnClassifier::recommendedParams(), 4, 2, 265},
        {EncryptedLstmCell::recommendedParams(), 12, 1, 335},
        {Presets::small(), 7, 1, 210},
    };
    for (const auto &r : rows) {
        SCOPED_TRACE("dnum " + std::to_string(r.dnum));
        EXPECT_EQ(r.p.effectiveDnum(), r.dnum);
        EXPECT_EQ(r.p.special, r.p.minSpecial());
        EXPECT_EQ(r.p.special, r.special);
        EXPECT_EQ(r.p.nominalLogPQ(), r.logPQ);
        EXPECT_NO_THROW(r.p.validate());
    }
}

} // namespace
} // namespace tensorfhe::ckks
