/**
 * @file
 * Bit-identity assertions shared by the test suites: two polynomials
 * are equal when their limb sets, domains and every residue agree;
 * two ciphertexts when both components and the scale double agree
 * exactly.
 */

#ifndef TENSORFHE_TESTS_CT_EQ_HH
#define TENSORFHE_TESTS_CT_EQ_HH

#include <gtest/gtest.h>

#include "ckks/ciphertext.hh"

namespace tensorfhe::test
{

inline void
expectPolyEq(const rns::RnsPolynomial &x, const rns::RnsPolynomial &y)
{
    ASSERT_EQ(x.limbIndices(), y.limbIndices());
    ASSERT_EQ(x.domain(), y.domain());
    for (std::size_t i = 0; i < x.numLimbs(); ++i) {
        const u64 *px = x.limb(i);
        const u64 *py = y.limb(i);
        for (std::size_t c = 0; c < x.n(); ++c)
            ASSERT_EQ(px[c], py[c]) << "limb " << i << " coeff " << c;
    }
}

inline void
expectCtEq(const ckks::Ciphertext &x, const ckks::Ciphertext &y)
{
    expectPolyEq(x.c0, y.c0);
    expectPolyEq(x.c1, y.c1);
    EXPECT_EQ(x.scale, y.scale); // exact, not DOUBLE_EQ
}

} // namespace tensorfhe::test

#endif // TENSORFHE_TESTS_CT_EQ_HH
