/**
 * @file
 * AVX-512 backend: 8 x u64 lanes (F + DQ + VL). NTT lane order of
 * preference: beta = 2^32 (q < 2^30, single-multiply butterflies),
 * the IFMA beta = 2^52 sub-path (q < 2^50, separate TU so only it is
 * compiled with -mavx512ifma), then the generic beta = 2^64 lane.
 */

#include "simd/simd.hh"
#include "simd/vec_avx512.hh"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <cstdlib>

#include "simd/vec_kernels.hh"

namespace tensorfhe::simd
{

namespace
{

using V = VecAvx512;

bool
hostHasIfma()
{
#if defined(__x86_64__) || defined(__i386__)
    // TFHE_SIMD_NOIFMA lets tests exercise the generic beta = 2^64
    // lane on hosts where IFMA would otherwise always win.
    static const bool has = __builtin_cpu_supports("avx512ifma")
        && std::getenv("TFHE_SIMD_NOIFMA") == nullptr;
    return has;
#else
    return false;
#endif
}

bool
nttForwardAvx512(const ntt::TwiddleTable &t, u64 *a)
{
    if (t.n() < 2 * V::W)
        return false;
    const ntt::ButterflyTables &bf = t.butterfly();
    if (bf.haveShoup32)
        return vec::nttForward<V, vec::Shoup32<V>>(t, a, 32);
    if (hostHasIfma() && bf.haveShoup52 && detail::nttForwardIfma(t, a))
        return true;
    return vec::nttForward<V, vec::Shoup64<V>>(t, a, 64);
}

bool
nttInverseAvx512(const ntt::TwiddleTable &t, u64 *a)
{
    if (t.n() < 2 * V::W)
        return false;
    const ntt::ButterflyTables &bf = t.butterfly();
    if (bf.haveShoup32)
        return vec::nttInverse<V, vec::Shoup32<V>>(t, a, 32);
    if (hostHasIfma() && bf.haveShoup52 && detail::nttInverseIfma(t, a))
        return true;
    return vec::nttInverse<V, vec::Shoup64<V>>(t, a, 64);
}

const Ops kAvx512Ops = {
    "avx512",         vec::addSpan<V>,       vec::subSpan<V>,
    vec::mulSpan<V>,  vec::mulTriple<V>,     vec::dotRows<V>,
    vec::mulShoup<V>, vec::mulShoupAccum<V>, vec::fusedEle<V>,
    nttForwardAvx512, nttInverseAvx512,
};

} // namespace

const Ops *
avx512Ops()
{
    return &kAvx512Ops;
}

} // namespace tensorfhe::simd

#else // !(__AVX512F__ && __AVX512DQ__)

namespace tensorfhe::simd
{

const Ops *
avx512Ops()
{
    return nullptr;
}

} // namespace tensorfhe::simd

#endif
