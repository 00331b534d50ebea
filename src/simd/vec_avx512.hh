/**
 * @file
 * AVX-512 lane wrapper (8 x u64), shared by kernels_avx512.cc and the
 * IFMA sub-path TU kernels_avx512ifma.cc (which is compiled with
 * -mavx512ifma on top and must not duplicate the wrapper). Native
 * 64-bit low multiplies (DQ) and mask-register compares; mulhi is
 * still the 32x32 schoolbook.
 */

#ifndef TENSORFHE_SIMD_VEC_AVX512_HH
#define TENSORFHE_SIMD_VEC_AVX512_HH

#include "common/types.hh"
#include "ntt/twiddle.hh"

namespace tensorfhe::simd::detail
{

/** IFMA NTT hooks (kernels_avx512ifma.cc). Return false when the
    build lacks AVX-512IFMA support or q has no beta = 2^52 tables;
    the caller falls back to the DQ lanes. */
bool nttForwardIfma(const ntt::TwiddleTable &t, u64 *a);
bool nttInverseIfma(const ntt::TwiddleTable &t, u64 *a);

} // namespace tensorfhe::simd::detail

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace tensorfhe::simd
{

struct VecAvx512
{
    static constexpr std::size_t W = 8;
    using reg = __m512i;

    static reg
    load(const u64 *p)
    {
        return _mm512_loadu_si512(static_cast<const void *>(p));
    }
    static void
    store(u64 *p, reg x)
    {
        _mm512_storeu_si512(static_cast<void *>(p), x);
    }
    static reg
    set1(u64 x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    static reg add(reg a, reg b) { return _mm512_add_epi64(a, b); }
    static reg sub(reg a, reg b) { return _mm512_sub_epi64(a, b); }
    static reg vand(reg a, reg b) { return _mm512_and_si512(a, b); }
    static reg srl(reg a, int s) { return _mm512_srli_epi64(a, s); }
    static reg sll(reg a, int s) { return _mm512_slli_epi64(a, s); }

    static reg mul32(reg a, reg b) { return _mm512_mul_epu32(a, b); }
    static reg mullo(reg a, reg b) { return _mm512_mullo_epi64(a, b); }

    static reg
    mulhi(reg a, reg b)
    {
        reg ah = _mm512_srli_epi64(a, 32);
        reg bh = _mm512_srli_epi64(b, 32);
        reg ll = _mm512_mul_epu32(a, b);
        reg lh = _mm512_mul_epu32(a, bh);
        reg hl = _mm512_mul_epu32(ah, b);
        reg hh = _mm512_mul_epu32(ah, bh);
        reg lo32 = _mm512_set1_epi64(0xFFFFFFFFLL);
        reg t = _mm512_add_epi64(lh, _mm512_srli_epi64(ll, 32));
        reg t2 = _mm512_add_epi64(hl, _mm512_and_si512(t, lo32));
        return _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64(t, 32)),
            _mm512_srli_epi64(t2, 32));
    }

    static reg
    ltMask(reg a, reg b)
    {
        return _mm512_movm_epi64(_mm512_cmplt_epu64_mask(a, b));
    }

    /** True when every lane is below 2^32. */
    static bool
    fits32(reg x)
    {
        return _mm512_test_epi64_mask(x, set1(~u64(0) << 32)) == 0;
    }

    static reg
    condSub(reg x, reg b)
    {
        __mmask8 m = _mm512_cmpge_epu64_mask(x, b);
        return _mm512_mask_sub_epi64(x, m, x, b);
    }

    static reg
    gather(const u64 *base, reg idx)
    {
        // Masked form with an explicit src: the plain intrinsic's
        // undefined pass-through operand trips -Wmaybe-uninitialized
        // on GCC.
        return _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), 0xFF, idx,
            static_cast<const void *>(base), 8);
    }

    // --- folded-NTT shuffles ---

    /** t = 4 layout: A/B are whole groups [u0..u3, x0..x3]. */
    static void
    unpackHalf(reg A, reg B, reg &u, reg &x)
    {
        u = _mm512_shuffle_i64x2(A, B, 0x44);
        x = _mm512_shuffle_i64x2(A, B, 0xEE);
    }
    static void
    packHalf(reg u, reg x, reg &A, reg &B)
    {
        A = _mm512_shuffle_i64x2(u, x, 0x44);
        B = _mm512_shuffle_i64x2(u, x, 0xEE);
    }
    static reg
    twidHalf(const u64 *p)
    {
        __m128i t =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        reg idx = _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0);
        return _mm512_permutexvar_epi64(idx, _mm512_zextsi128_si512(t));
    }

    /** t = 2 layout: A/B each hold two groups [u0,u1,x0,x1]. */
    static void
    unpackQuarter(reg A, reg B, reg &u, reg &x)
    {
        reg iu = _mm512_set_epi64(13, 12, 9, 8, 5, 4, 1, 0);
        reg ix = _mm512_set_epi64(15, 14, 11, 10, 7, 6, 3, 2);
        u = _mm512_permutex2var_epi64(A, iu, B);
        x = _mm512_permutex2var_epi64(A, ix, B);
    }
    static void
    packQuarter(reg u, reg x, reg &A, reg &B)
    {
        reg ia = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
        reg ib = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
        A = _mm512_permutex2var_epi64(u, ia, x);
        B = _mm512_permutex2var_epi64(u, ib, x);
    }
    static reg
    twidQuarter(const u64 *p)
    {
        __m256i t =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        reg idx = _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0);
        return _mm512_permutexvar_epi64(idx, _mm512_zextsi256_si512(t));
    }

    /** (s, d) -> interleaved pairs [s0,d0,...,s3,d3 | s4,d4,...]. */
    static void
    packInterleave(reg s, reg d, reg &A, reg &B)
    {
        reg ia = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
        reg ib = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
        A = _mm512_permutex2var_epi64(s, ia, d);
        B = _mm512_permutex2var_epi64(s, ib, d);
    }
};

} // namespace tensorfhe::simd

#endif // __AVX512F__ && __AVX512DQ__

#endif // TENSORFHE_SIMD_VEC_AVX512_HH
