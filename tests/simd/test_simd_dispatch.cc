/**
 * @file
 * Backend-selection machinery tests: the TFHE_SIMD vocabulary parses
 * exactly, the scalar fallback is always available, supportedBackends
 * is scalar-first and consistent with backendSupported, and
 * setBackend round-trips through activeBackend/ops without touching
 * the selection on an unsupported request.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "simd/simd.hh"

namespace tensorfhe::simd
{
namespace
{

TEST(SimdDispatch, ParseBackendCoversTheTfheSimdVocabulary)
{
    Backend b = Backend::Avx512;
    EXPECT_TRUE(parseBackend("scalar", b));
    EXPECT_EQ(b, Backend::Scalar);
    EXPECT_TRUE(parseBackend("avx2", b));
    EXPECT_EQ(b, Backend::Avx2);
    EXPECT_TRUE(parseBackend("avx512", b));
    EXPECT_EQ(b, Backend::Avx512);

    // Rejections must not clobber the out-param.
    b = Backend::Avx2;
    EXPECT_FALSE(parseBackend("AVX2", b));
    EXPECT_FALSE(parseBackend("avx-512", b));
    EXPECT_FALSE(parseBackend("", b));
    EXPECT_FALSE(parseBackend(nullptr, b));
    EXPECT_EQ(b, Backend::Avx2);
}

TEST(SimdDispatch, ParseAndNameRoundTrip)
{
    for (Backend b :
         {Backend::Scalar, Backend::Avx2, Backend::Avx512}) {
        Backend parsed;
        ASSERT_TRUE(parseBackend(backendName(b), parsed));
        EXPECT_EQ(parsed, b);
    }
}

TEST(SimdDispatch, ScalarFallbackIsAlwaysRunnable)
{
    EXPECT_TRUE(backendSupported(Backend::Scalar));
    ASSERT_NE(scalarOps(), nullptr);
    EXPECT_STREQ(scalarOps()->name, "scalar");
}

TEST(SimdDispatch, SupportedBackendsIsScalarFirstAndConsistent)
{
    auto all = supportedBackends();
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(all.front(), Backend::Scalar);
    for (Backend b : all)
        EXPECT_TRUE(backendSupported(b)) << backendName(b);
    for (Backend b :
         {Backend::Scalar, Backend::Avx2, Backend::Avx512}) {
        bool listed = false;
        for (Backend s : all)
            listed = listed || s == b;
        EXPECT_EQ(listed, backendSupported(b)) << backendName(b);
    }
}

TEST(SimdDispatch, SetBackendRoundTripsThroughActiveAndOps)
{
    Backend saved = activeBackend();
    for (Backend b : supportedBackends()) {
        ASSERT_TRUE(setBackend(b)) << backendName(b);
        EXPECT_EQ(activeBackend(), b);
        EXPECT_STREQ(ops().name, backendName(b));
    }
    ASSERT_TRUE(setBackend(saved));
    EXPECT_EQ(activeBackend(), saved);
}

TEST(SimdDispatch, SetBackendRefusesUnsupportedWithoutSideEffects)
{
    for (Backend b : {Backend::Avx2, Backend::Avx512}) {
        if (backendSupported(b))
            continue; // nothing to refuse on this host
        Backend saved = activeBackend();
        EXPECT_FALSE(setBackend(b));
        EXPECT_EQ(activeBackend(), saved);
    }
    SUCCEED();
}

TEST(SimdDispatch, EveryCompiledVtableIsFullyPopulated)
{
    for (const Ops *t : {scalarOps(), avx2Ops(), avx512Ops()}) {
        if (!t)
            continue; // ISA compiled out of this build
        EXPECT_NE(t->name, nullptr);
        EXPECT_NE(t->addSpan, nullptr);
        EXPECT_NE(t->subSpan, nullptr);
        EXPECT_NE(t->mulSpan, nullptr);
        EXPECT_NE(t->mulTriple, nullptr);
        EXPECT_NE(t->dotRows, nullptr);
        EXPECT_NE(t->mulShoup, nullptr);
        EXPECT_NE(t->mulShoupAccum, nullptr);
        EXPECT_NE(t->fusedEle, nullptr);
        EXPECT_NE(t->nttForward, nullptr);
        EXPECT_NE(t->nttInverse, nullptr);
    }
}

} // namespace
} // namespace tensorfhe::simd
