/**
 * @file
 * AVX2 backend: 4 x u64 lanes. 64-bit multiplies are emulated from
 * 32x32 pieces (mulhi is the classic 4-product schoolbook; mullo is
 * three), unsigned compares go through a sign-bit flip + signed
 * compare. The NTT uses the beta = 2^32 Shoup lane whenever q < 2^30
 * — single-multiply butterflies, which is where the AVX2 speedup
 * lives — and the emulated beta = 2^64 lane otherwise.
 *
 * This TU is compiled with -mavx2 only (no global -march); when the
 * toolchain can't target AVX2 the entry point returns null and the
 * dispatcher never offers the backend.
 */

#include "simd/simd.hh"

#if defined(__AVX2__)

#include <immintrin.h>

#include "simd/vec_kernels.hh"

namespace tensorfhe::simd
{

namespace
{

struct VecAvx2
{
    static constexpr std::size_t W = 4;
    using reg = __m256i;

    static reg
    load(const u64 *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void
    store(u64 *p, reg x)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
    }
    static reg
    set1(u64 x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }
    static reg add(reg a, reg b) { return _mm256_add_epi64(a, b); }
    static reg sub(reg a, reg b) { return _mm256_sub_epi64(a, b); }
    static reg vand(reg a, reg b) { return _mm256_and_si256(a, b); }
    static reg srl(reg a, int s) { return _mm256_srli_epi64(a, s); }
    static reg sll(reg a, int s) { return _mm256_slli_epi64(a, s); }

    /** low32(a) * low32(b), full 64-bit product. */
    static reg mul32(reg a, reg b) { return _mm256_mul_epu32(a, b); }

    /** Low 64 bits of a * b. */
    static reg
    mullo(reg a, reg b)
    {
        reg bswap = _mm256_shuffle_epi32(b, 0xB1); // [b_hi, b_lo] pairs
        reg cross = _mm256_mullo_epi32(a, bswap);  // [al*bh, ah*bl]
        reg sum = _mm256_add_epi32(cross, _mm256_srli_epi64(cross, 32));
        return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                                _mm256_slli_epi64(sum, 32));
    }

    /** High 64 bits of a * b (schoolbook, carries exact). */
    static reg
    mulhi(reg a, reg b)
    {
        reg ah = _mm256_srli_epi64(a, 32);
        reg bh = _mm256_srli_epi64(b, 32);
        reg ll = _mm256_mul_epu32(a, b);
        reg lh = _mm256_mul_epu32(a, bh);
        reg hl = _mm256_mul_epu32(ah, b);
        reg hh = _mm256_mul_epu32(ah, bh);
        reg lo32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
        reg t = _mm256_add_epi64(lh, _mm256_srli_epi64(ll, 32));
        reg t2 = _mm256_add_epi64(hl, _mm256_and_si256(t, lo32));
        return _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64(t, 32)),
            _mm256_srli_epi64(t2, 32));
    }

    /** All-ones where a < b (unsigned). */
    static reg
    ltMask(reg a, reg b)
    {
        reg s = set1(u64(1) << 63);
        return _mm256_cmpgt_epi64(_mm256_xor_si256(b, s),
                                  _mm256_xor_si256(a, s));
    }

    /** True when every lane is below 2^32. */
    static bool
    fits32(reg x)
    {
        return _mm256_testz_si256(x, set1(~u64(0) << 32)) != 0;
    }

    /** x >= b ? x - b : x (unsigned). */
    static reg
    condSub(reg x, reg b)
    {
        return _mm256_sub_epi64(x, _mm256_andnot_si256(ltMask(x, b), b));
    }

    static reg
    gather(const u64 *base, reg idx)
    {
        return _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(base), idx, 8);
    }

    // --- folded-NTT shuffles (t = 2 layout: [u0,u1,x0,x1]) ---

    static void
    unpackHalf(reg A, reg B, reg &u, reg &x)
    {
        u = _mm256_permute2x128_si256(A, B, 0x20);
        x = _mm256_permute2x128_si256(A, B, 0x31);
    }
    static void
    packHalf(reg u, reg x, reg &A, reg &B)
    {
        A = _mm256_permute2x128_si256(u, x, 0x20);
        B = _mm256_permute2x128_si256(u, x, 0x31);
    }
    /** Two consecutive twiddles, each repeated W/2 times. */
    static reg
    twidHalf(const u64 *p)
    {
        __m128i t =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm256_permute4x64_epi64(_mm256_castsi128_si256(t), 0x50);
    }
    /** (s, d) lanes -> interleaved pairs [s0,d0,s1,d1 | s2,d2,s3,d3]. */
    static void
    packInterleave(reg s, reg d, reg &A, reg &B)
    {
        reg lo = _mm256_unpacklo_epi64(s, d);
        reg hi = _mm256_unpackhi_epi64(s, d);
        A = _mm256_permute2x128_si256(lo, hi, 0x20);
        B = _mm256_permute2x128_si256(lo, hi, 0x31);
    }
};

using V = VecAvx2;

bool
nttForwardAvx2(const ntt::TwiddleTable &t, u64 *a)
{
    if (t.n() < 2 * V::W)
        return false;
    if (t.butterfly().haveShoup32)
        return vec::nttForward<V, vec::Shoup32<V>>(t, a, 32);
    return vec::nttForward<V, vec::Shoup64<V>>(t, a, 64);
}

bool
nttInverseAvx2(const ntt::TwiddleTable &t, u64 *a)
{
    if (t.n() < 2 * V::W)
        return false;
    if (t.butterfly().haveShoup32)
        return vec::nttInverse<V, vec::Shoup32<V>>(t, a, 32);
    return vec::nttInverse<V, vec::Shoup64<V>>(t, a, 64);
}

const Ops kAvx2Ops = {
    "avx2",           vec::addSpan<V>,       vec::subSpan<V>,
    vec::mulSpan<V>,  vec::mulTriple<V>,     vec::dotRows<V>,
    vec::mulShoup<V>, vec::mulShoupAccum<V>, vec::fusedEle<V>,
    nttForwardAvx2,   nttInverseAvx2,
};

} // namespace

const Ops *
avx2Ops()
{
    return &kAvx2Ops;
}

} // namespace tensorfhe::simd

#else // !__AVX2__

namespace tensorfhe::simd
{

const Ops *
avx2Ops()
{
    return nullptr;
}

} // namespace tensorfhe::simd

#endif
