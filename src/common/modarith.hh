/**
 * @file
 * Modular arithmetic over word-sized prime moduli.
 *
 * TensorFHE's RNS design keeps every residue below 2^31 so that the
 * tensor-core segmentation scheme (four u8 limbs per coefficient,
 * paper SIV-C) covers a full residue. The routines here are
 * nevertheless written for any q < 2^62: Barrett reduction for
 * variable-operand products and Shoup multiplication for products
 * against a precomputed constant (twiddle factors).
 */

#ifndef TENSORFHE_COMMON_MODARITH_HH
#define TENSORFHE_COMMON_MODARITH_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace tensorfhe
{

/** a + b mod q, for a, b < q < 2^63. */
inline u64
addMod(u64 a, u64 b, u64 q)
{
    u64 s = a + b;
    return s >= q ? s - q : s;
}

/** a - b mod q, for a, b < q. */
inline u64
subMod(u64 a, u64 b, u64 q)
{
    return a >= b ? a - b : a + q - b;
}

/** -a mod q, for a < q. */
inline u64
negMod(u64 a, u64 q)
{
    return a == 0 ? 0 : q - a;
}

/** a * b mod q via 128-bit product; any q < 2^64. */
inline u64
mulMod(u64 a, u64 b, u64 q)
{
    return static_cast<u64>(static_cast<u128>(a) * b % q);
}

/** a^e mod q by square-and-multiply. */
u64 powMod(u64 a, u64 e, u64 q);

/** Multiplicative inverse of a mod prime q (Fermat). a must be nonzero. */
u64 invMod(u64 a, u64 q);

/**
 * Barrett reduction context for a fixed modulus q < 2^62.
 *
 * Precomputes ratio = floor(2^128 / q) once; reduce() then maps any
 * 128-bit value x < q * 2^64 to x mod q with two multiplies and at
 * most two conditional subtractions.
 */
class Modulus
{
  public:
    Modulus() = default;

    /** @param q A prime (or at least odd) modulus, 2 < q < 2^62. */
    explicit Modulus(u64 q);

    u64 value() const { return q_; }
    int bits() const { return bits_; }

    /** x mod q for a full 128-bit operand. */
    u64
    reduce(u128 x) const
    {
        u64 xl = static_cast<u64>(x);
        u64 xh = static_cast<u64>(x >> 64);
        // Estimate k = floor(x * ratio / 2^128) <= floor(x / q).
        u128 lo_r0 = static_cast<u128>(xl) * r0_;
        u128 lo_r1 = static_cast<u128>(xl) * r1_;
        u128 hi_r0 = static_cast<u128>(xh) * r0_;
        u128 mid = (lo_r0 >> 64) + static_cast<u64>(lo_r1)
            + static_cast<u64>(hi_r0);
        u64 k = xh * r1_ + static_cast<u64>(lo_r1 >> 64)
            + static_cast<u64>(hi_r0 >> 64) + static_cast<u64>(mid >> 64);
        u64 r = xl - k * q_; // mod 2^64: correct residue up to +2q
        if (r >= q_)
            r -= q_;
        if (r >= q_)
            r -= q_;
        return r;
    }

    /** a * b mod q for a, b < 2^64 with a*b < q * 2^64. */
    u64 mul(u64 a, u64 b) const { return reduce(static_cast<u128>(a) * b); }

    u64 add(u64 a, u64 b) const { return addMod(a, b, q_); }
    u64 sub(u64 a, u64 b) const { return subMod(a, b, q_); }
    u64 neg(u64 a) const { return negMod(a, q_); }
    u64 pow(u64 a, u64 e) const { return powMod(a, e, q_); }
    u64 inv(u64 a) const { return invMod(a, q_); }

    /** The Barrett ratio words floor(2^128 / q) — the SIMD backends
        replicate reduce() lane-wise from these. */
    u64 ratioLo() const { return r0_; }
    u64 ratioHi() const { return r1_; }

  private:
    u64 q_ = 0;
    u64 r0_ = 0; ///< low word of floor(2^128 / q)
    u64 r1_ = 0; ///< high word of floor(2^128 / q)
    int bits_ = 0;
};

/**
 * Shoup precomputation for multiplying by a fixed constant w mod q.
 * Returns w' = floor(w * 2^64 / q). Requires w < q < 2^63.
 */
inline u64
shoupPrecompute(u64 w, u64 q)
{
    return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

/**
 * Shoup precomputation against a reduced wordbase beta = 2^bits
 * (bits <= 62): floor(w * 2^bits / q). The SIMD lanes use bits = 32
 * (q < 2^30, products via single 32x32 multiplies) and bits = 52
 * (q < 2^50, AVX-512IFMA madd52 high halves).
 */
inline u64
shoupPrecomputeBeta(u64 w, u64 q, int bits)
{
    return static_cast<u64>((static_cast<u128>(w) << bits) / q);
}

/**
 * a * w mod q using the Shoup trick: one high-half multiply, one wrap
 * multiply, one conditional subtraction. Requires w < q < 2^63; a may
 * be any u64 (the pre-subtraction value is below 2q for every a, so
 * the result is canonical).
 */
inline u64
mulModShoup(u64 a, u64 w, u64 w_shoup, u64 q)
{
    u64 hi = static_cast<u64>((static_cast<u128>(a) * w_shoup) >> 64);
    u64 r = a * w - hi * q; // both mults wrap mod 2^64
    return r >= q ? r - q : r;
}

/** Reverse the low `bits` bits of x (used by iterative NTT orderings). */
inline u32
bitReverse(u32 x, int bits)
{
    u32 r = 0;
    for (int i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

/** floor(log2(x)) for x >= 1. */
inline int
log2Floor(u64 x)
{
    TFHE_ASSERT(x != 0);
    return 63 - __builtin_clzll(x);
}

/** True iff x is a power of two (x >= 1). */
inline bool
isPowerOfTwo(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace tensorfhe

#endif // TENSORFHE_COMMON_MODARITH_HH
