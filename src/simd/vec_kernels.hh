/**
 * @file
 * ISA-generic vector kernel bodies, templated on a lane wrapper V.
 *
 * Each per-ISA translation unit (kernels_avx2.cc, kernels_avx512.cc)
 * defines a V struct — W lanes of u64 with loads/stores, mod-2^64
 * add/sub, 64x64 low/high multiplies, unsigned compares, gathers and
 * the handful of cross-lane shuffles the folded NTT stages need —
 * and instantiates the templates here. All the arithmetic lives in
 * this header so the three modmul flavors stay in one place:
 *
 *  - SmallBarrett (q < 2^30): mu = floor(2^(2L+1) / q) fits 32 bits,
 *    every product is a single 32x32 multiply. reduceLazy() maps
 *    x < q^2 to [0, 3.5q); two conditional subtractions canonicalize.
 *  - GenBarrett (any q < 2^62): replicates Modulus::reduce() lane-wise
 *    from the ratio words, including the 128-bit carry chain (carries
 *    are computed by unsigned compare and folded in by subtracting the
 *    all-ones mask). reduceLazy() lands in [0, 3q) exactly like the
 *    scalar estimate; the same two conditional subtractions follow.
 *  - Shoup lazy multiply against a precomputed constant, in three
 *    wordbases: beta = 2^64 (any q < 2^62, emulated mulhi on AVX2),
 *    beta = 2^32 (single-multiply products: the fast NTT path for
 *    q < 2^30, and the Shoup spans' lane for q < 2^31), and
 *    beta = 2^52 (q < 2^50, AVX-512IFMA, policy defined in the avx512
 *    TU). All satisfy: x < 4q in, result < 2q out, result congruent
 *    to x*w mod q.
 *
 * dotRows sums 32x32 row products unreduced in u64 lanes for
 * q < 2^31 and reduces each sum once (WordFold).
 *
 * The NTT bodies keep the Longa-Naehrig lazy invariants — forward
 * values stay < 4q, inverse values < 2q — and fold the bit-reverse
 * permutation into the last (forward) / first (inverse) stage via
 * gathers over brHalf. Outputs are canonical, bit-identical to the
 * scalar butterfly + permute path. docs/SIMD.md derives the bounds.
 *
 * Because canonical residues are unique, producing canonical outputs
 * by any internal route preserves bit-identity with the scalar
 * backend; every entry point's outputs are canonical.
 */

#ifndef TENSORFHE_SIMD_VEC_KERNELS_HH
#define TENSORFHE_SIMD_VEC_KERNELS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ntt/twiddle.hh"
#include "simd/simd.hh"

namespace tensorfhe::simd::vec
{

constexpr u64 kSmallQBound = u64(1) << 30;

/** q < 2^31: residues are 31-bit words, so a 32x32 product is below
    (q - 1)^2 < 2^62 and a few of them sum unreduced in a u64 lane. */
constexpr u64 kWordQBound = u64(1) << 31;

// ---------------------------------------------------------------
// Barrett contexts
// ---------------------------------------------------------------

/** q < 2^30: single 32x32 multiplies, estimate within 3.5q. */
template <class V>
struct SmallBarrett
{
    using reg = typename V::reg;
    reg q, q2, mu;
    int sh1, sh2;

    explicit SmallBarrett(const Modulus &m)
    {
        int L = m.bits(); // 2^(L-1) <= q < 2^L, L <= 30
        u64 muv = static_cast<u64>((static_cast<u128>(1) << (2 * L + 1))
                                   / m.value());
        q = V::set1(m.value());
        q2 = V::set1(2 * m.value());
        mu = V::set1(muv);
        sh1 = L - 1;
        sh2 = L + 2;
    }

    /** x < q^2 -> r congruent to x, r in [0, 3.5q). */
    reg
    reduceLazy(reg x) const
    {
        reg v = V::srl(x, sh1);
        reg k = V::srl(V::mul32(v, mu), sh2);
        return V::sub(x, V::mul32(k, q));
    }

    /** a, b canonical -> canonical product. */
    reg
    mul(reg a, reg b) const
    {
        reg r = reduceLazy(V::mul32(a, b));
        return V::condSub(V::condSub(r, q2), q);
    }
};

/** Any q < 2^62: lane-wise Modulus::reduce() from the ratio words. */
template <class V>
struct GenBarrett
{
    using reg = typename V::reg;
    reg q, q2, r0, r1;

    explicit GenBarrett(const Modulus &m)
    {
        q = V::set1(m.value());
        q2 = V::set1(2 * m.value());
        r0 = V::set1(m.ratioLo());
        r1 = V::set1(m.ratioHi());
    }

    /**
     * (xh:xl) < q * 2^64 -> r congruent to x, r in [0, 3q). The
     * carry chain mirrors Modulus::reduce(): mid is the u128 sum of
     * three words, whose high word is exactly the two add carries;
     * subtracting an all-ones compare mask adds 1 to the lanes that
     * carried.
     */
    reg
    reduceLazy(reg xl, reg xh) const
    {
        reg lo_r0_hi = V::mulhi(xl, r0);
        reg lo_r1_lo = V::mullo(xl, r1);
        reg lo_r1_hi = V::mulhi(xl, r1);
        reg hi_r0_lo = V::mullo(xh, r0);
        reg hi_r0_hi = V::mulhi(xh, r0);
        reg s = V::add(lo_r0_hi, lo_r1_lo);
        reg c1 = V::ltMask(s, lo_r1_lo);
        reg mid = V::add(s, hi_r0_lo);
        reg c2 = V::ltMask(mid, hi_r0_lo);
        reg k = V::add(V::mullo(xh, r1), V::add(lo_r1_hi, hi_r0_hi));
        k = V::sub(V::sub(k, c1), c2);
        return V::sub(xl, V::mullo(k, q));
    }

    /** a, b canonical -> canonical product. */
    reg
    mul(reg a, reg b) const
    {
        reg r = reduceLazy(V::mullo(a, b), V::mulhi(a, b));
        return V::condSub(V::condSub(r, q), q);
    }
};

// ---------------------------------------------------------------
// Shoup lazy-multiply policies (NTT butterflies)
// ---------------------------------------------------------------

/** beta = 2^64, any q < 2^62: x < 4q -> x*w mod q + {0, q}, < 2q. */
template <class V>
struct Shoup64
{
    static typename V::reg
    lazy(typename V::reg x, typename V::reg w, typename V::reg wsh,
         typename V::reg q)
    {
        typename V::reg k = V::mulhi(x, wsh);
        return V::sub(V::mullo(x, w), V::mullo(k, q));
    }
};

/** beta = 2^32: x < 2^32 and w < q < 2^32, so every product is a
    single 32x32 multiply. The NTT's x < 4q makes that q < 2^30; the
    Shoup spans check x per vector. */
template <class V>
struct Shoup32
{
    static typename V::reg
    lazy(typename V::reg x, typename V::reg w, typename V::reg wsh,
         typename V::reg q)
    {
        typename V::reg k = V::srl(V::mul32(x, wsh), 32);
        return V::sub(V::mul32(x, w), V::mul32(k, q));
    }
};

/**
 * The Shoup spans' product by one constant w < q, for any u64 input:
 * when q < 2^31, a vector whose lanes all fit 32 bits takes the
 * beta = 2^32 product, whose companion floor(w * 2^32 / q) is the
 * beta = 2^64 one shifted down 32 bits; any other vector takes the
 * beta = 2^64 product. Result < 2q.
 */
template <class V>
struct ShoupConst
{
    using reg = typename V::reg;
    reg q, w, wsh, wsh32;
    bool word;

    ShoupConst(u64 wv, u64 wShoup, u64 qv)
        : q(V::set1(qv)), w(V::set1(wv)), wsh(V::set1(wShoup)),
          wsh32(V::set1(wShoup >> 32)), word(qv < kWordQBound)
    {}

    reg
    lazy(reg x) const
    {
        if (word && V::fits32(x))
            return Shoup32<V>::lazy(x, w, wsh32, q);
        return Shoup64<V>::lazy(x, w, wsh, q);
    }
};

/**
 * The once-per-sum reduction of dotRows (q < 2^31): x = hi*2^32 + lo
 * is congruent to hi*(2^32 mod q) + lo*1, and both terms are
 * beta = 2^32 Shoup products of 32-bit words, each below 2q, so two
 * conditional subtractions canonicalize their sum. Products of
 * canonical residues are at most (q - 1)^2, so `cap` of them sum in a
 * u64 lane without wrapping: 4 at 31 bits, 16 at 30.
 */
template <class V>
struct WordFold
{
    using reg = typename V::reg;
    reg q, q2, lo32, r32, r32sh, oneSh;
    std::size_t cap; ///< rows summed between two reductions

    explicit WordFold(u64 qv)
    {
        u64 r = (u64(1) << 32) % qv;
        q = V::set1(qv);
        q2 = V::set1(2 * qv);
        lo32 = V::set1(0xFFFFFFFFu);
        r32 = V::set1(r);
        r32sh = V::set1(shoupPrecomputeBeta(r, qv, 32));
        oneSh = V::set1(shoupPrecomputeBeta(1, qv, 32));
        cap = static_cast<std::size_t>(~u64(0) / ((qv - 1) * (qv - 1)));
    }

    /** Any u64 x -> x mod q, canonical. */
    reg
    reduce(reg x) const
    {
        reg hi = Shoup32<V>::lazy(V::srl(x, 32), r32, r32sh, q);
        // Shoup32 by w = 1: the low word minus its quotient estimate.
        reg lo = V::vand(x, lo32);
        lo = V::sub(lo, V::mul32(V::srl(V::mul32(lo, oneSh), 32), q));
        return V::condSub(V::condSub(V::add(hi, lo), q2), q);
    }
};

// ---------------------------------------------------------------
// Span kernels
// ---------------------------------------------------------------

template <class V>
void
addSpan(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    using reg = typename V::reg;
    reg qv = V::set1(q);
    std::size_t i = 0;
    for (; i + V::W <= n; i += V::W)
        V::store(a + i, V::condSub(V::add(V::load(a + i), V::load(b + i)),
                                   qv));
    for (; i < n; ++i)
        a[i] = addMod(a[i], b[i], q);
}

template <class V>
void
subSpan(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    using reg = typename V::reg;
    reg qv = V::set1(q);
    std::size_t i = 0;
    for (; i + V::W <= n; i += V::W) {
        reg x = V::load(a + i);
        reg y = V::load(b + i);
        reg d = V::add(V::sub(x, y), V::vand(V::ltMask(x, y), qv));
        V::store(a + i, d);
    }
    for (; i < n; ++i)
        a[i] = subMod(a[i], b[i], q);
}

template <class V, class B>
void
mulSpanWith(const B &bar, u64 *a, const u64 *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + V::W <= n; i += V::W)
        V::store(a + i, bar.mul(V::load(a + i), V::load(b + i)));
    (void)i; // tail handled by the caller
}

template <class V>
void
mulSpan(u64 *a, const u64 *b, std::size_t n, const Modulus &m)
{
    std::size_t body = n - n % V::W;
    if (m.value() < kSmallQBound)
        mulSpanWith<V>(SmallBarrett<V>(m), a, b, body);
    else
        mulSpanWith<V>(GenBarrett<V>(m), a, b, body);
    for (std::size_t i = body; i < n; ++i)
        a[i] = m.mul(a[i], b[i]);
}

template <class V, class B>
void
mulTripleWith(const B &bar, u64 *d0, u64 *d1, u64 *d2, const u64 *a0,
              const u64 *a1, const u64 *b0, const u64 *b1, std::size_t n)
{
    using reg = typename V::reg;
    for (std::size_t i = 0; i + V::W <= n; i += V::W) {
        reg ra0 = V::load(a0 + i);
        reg ra1 = V::load(a1 + i);
        reg rb0 = V::load(b0 + i);
        reg rb1 = V::load(b1 + i);
        reg p01 = bar.mul(ra0, rb1);
        reg p10 = bar.mul(ra1, rb0);
        V::store(d0 + i, bar.mul(ra0, rb0));
        V::store(d1 + i, V::condSub(V::add(p01, p10), bar.q));
        V::store(d2 + i, bar.mul(ra1, rb1));
    }
}

template <class V>
void
mulTriple(u64 *d0, u64 *d1, u64 *d2, const u64 *a0, const u64 *a1,
          const u64 *b0, const u64 *b1, std::size_t n, const Modulus &m)
{
    std::size_t body = n - n % V::W;
    if (m.value() < kSmallQBound)
        mulTripleWith<V>(SmallBarrett<V>(m), d0, d1, d2, a0, a1, b0, b1,
                         body);
    else
        mulTripleWith<V>(GenBarrett<V>(m), d0, d1, d2, a0, a1, b0, b1,
                         body);
    for (std::size_t i = body; i < n; ++i) {
        d0[i] = m.mul(a0[i], b0[i]);
        d1[i] = m.add(m.mul(a0[i], b1[i]), m.mul(a1[i], b0[i]));
        d2[i] = m.mul(a1[i], b1[i]);
    }
}

/**
 * Row inner products, one pass per vector of cells. For q < 2^31 the
 * rows' 32x32 products sum unreduced in u64 lanes and WordFold
 * reduces every run of at most WordFold::cap of them once; the runs'
 * canonical sums add mod q. Larger q (only the test lanes) keeps a
 * canonical Barrett chain per row. Tail cells run the scalar chain.
 */
template <class V>
void
dotRows(u64 *acc0, u64 *acc1, const u64 *const *u, const u64 *const *b,
        const u64 *const *a, std::size_t rows, std::size_t n,
        const Modulus &m)
{
    using reg = typename V::reg;
    std::size_t body = n - n % V::W;
    const reg zero = V::set1(0);
    if (m.value() < kWordQBound) {
        WordFold<V> fold(m.value());
        for (std::size_t i = 0; i < body; i += V::W) {
            reg t0 = zero, t1 = zero;
            for (std::size_t j0 = 0; j0 < rows; j0 += fold.cap) {
                std::size_t j1 = std::min(rows, j0 + fold.cap);
                reg s0 = zero, s1 = zero;
                for (std::size_t j = j0; j < j1; ++j) {
                    reg ru = V::load(u[j] + i);
                    s0 = V::add(s0, V::mul32(ru, V::load(b[j] + i)));
                    s1 = V::add(s1, V::mul32(ru, V::load(a[j] + i)));
                }
                t0 = V::condSub(V::add(t0, fold.reduce(s0)), fold.q);
                t1 = V::condSub(V::add(t1, fold.reduce(s1)), fold.q);
            }
            V::store(acc0 + i, t0);
            V::store(acc1 + i, t1);
        }
    } else {
        // Each lazy product (< 3q) joins a canonical sum: < 4q, two
        // conditional subtractions.
        GenBarrett<V> bar(m);
        auto step = [&](reg t, reg x, reg y) {
            reg p = bar.reduceLazy(V::mullo(x, y), V::mulhi(x, y));
            return V::condSub(V::condSub(V::add(t, p), bar.q2), bar.q);
        };
        for (std::size_t i = 0; i < body; i += V::W) {
            reg t0 = zero, t1 = zero;
            for (std::size_t j = 0; j < rows; ++j) {
                reg ru = V::load(u[j] + i);
                t0 = step(t0, ru, V::load(b[j] + i));
                t1 = step(t1, ru, V::load(a[j] + i));
            }
            V::store(acc0 + i, t0);
            V::store(acc1 + i, t1);
        }
    }
    for (std::size_t c = body; c < n; ++c) {
        u64 s0 = 0, s1 = 0;
        for (std::size_t j = 0; j < rows; ++j) {
            s0 = m.add(s0, m.mul(u[j][c], b[j][c]));
            s1 = m.add(s1, m.mul(u[j][c], a[j][c]));
        }
        acc0[c] = s0;
        acc1[c] = s1;
    }
}

template <class V>
void
mulShoup(u64 *a, u64 w, u64 wShoup, std::size_t n, u64 q)
{
    ShoupConst<V> sc(w, wShoup, q);
    std::size_t i = 0;
    for (; i + V::W <= n; i += V::W)
        V::store(a + i, V::condSub(sc.lazy(V::load(a + i)), sc.q));
    for (; i < n; ++i)
        a[i] = mulModShoup(a[i], w, wShoup, q);
}

template <class V>
void
mulShoupAccum(u64 *acc, const u64 *src, u64 w, u64 wShoup, std::size_t n,
              u64 q)
{
    using reg = typename V::reg;
    ShoupConst<V> sc(w, wShoup, q);
    std::size_t i = 0;
    for (; i + V::W <= n; i += V::W) {
        reg r = V::condSub(sc.lazy(V::load(src + i)), sc.q);
        V::store(acc + i, V::condSub(V::add(V::load(acc + i), r), sc.q));
    }
    for (; i < n; ++i)
        acc[i] = addMod(acc[i], mulModShoup(src[i], w, wShoup, q), q);
}

// ---------------------------------------------------------------
// Fused-elementwise register program
// ---------------------------------------------------------------

template <class V, class B>
void
fusedEleWith(const B &bar, const EleIns *ins, std::size_t numIns,
             u16 result, u64 *o0, u64 *o1, const u64 *const *in0,
             const u64 *const *in1, const u64 *const *pts, std::size_t n)
{
    using reg = typename V::reg;
    constexpr std::size_t kMaxRegs = 8;
    for (std::size_t c = 0; c + V::W <= n; c += V::W) {
        reg r0[kMaxRegs];
        reg r1[kMaxRegs];
        for (std::size_t k = 0; k < numIns; ++k) {
            const EleIns &in = ins[k];
            switch (in.op) {
              case 0: // Load
                  r0[in.dst] = V::load(in0[in.idx] + c);
                  r1[in.dst] = V::load(in1[in.idx] + c);
                  break;
              case 1: // AddCt
                  r0[in.dst] =
                      V::condSub(V::add(r0[in.dst], r0[in.src]), bar.q);
                  r1[in.dst] =
                      V::condSub(V::add(r1[in.dst], r1[in.src]), bar.q);
                  break;
              case 2: { // SubCt
                  reg x0 = r0[in.dst];
                  reg x1 = r1[in.dst];
                  r0[in.dst] =
                      V::add(V::sub(x0, r0[in.src]),
                             V::vand(V::ltMask(x0, r0[in.src]), bar.q));
                  r1[in.dst] =
                      V::add(V::sub(x1, r1[in.src]),
                             V::vand(V::ltMask(x1, r1[in.src]), bar.q));
                  break;
              }
              case 3: { // MulPt
                  reg p = V::load(pts[in.idx] + c);
                  r0[in.dst] = bar.mul(r0[in.dst], p);
                  r1[in.dst] = bar.mul(r1[in.dst], p);
                  break;
              }
              case 4: { // AddPt
                  reg p = V::load(pts[in.idx] + c);
                  r0[in.dst] = V::condSub(V::add(r0[in.dst], p), bar.q);
                  break;
              }
            }
        }
        V::store(o0 + c, r0[result]);
        V::store(o1 + c, r1[result]);
    }
}

template <class V>
void
fusedEle(const EleIns *ins, std::size_t numIns, u16 result, u64 *o0,
         u64 *o1, const u64 *const *in0, const u64 *const *in1,
         const u64 *const *pts, std::size_t n, const Modulus &m)
{
    std::size_t body = n - n % V::W;
    if (m.value() < kSmallQBound)
        fusedEleWith<V>(SmallBarrett<V>(m), ins, numIns, result, o0, o1,
                        in0, in1, pts, body);
    else
        fusedEleWith<V>(GenBarrett<V>(m), ins, numIns, result, o0, o1, in0,
                        in1, pts, body);
    // Tail cells: the exact scalar interpreter body.
    constexpr std::size_t kMaxRegs = 8;
    for (std::size_t c = body; c < n; ++c) {
        u64 r0[kMaxRegs];
        u64 r1[kMaxRegs];
        for (std::size_t k = 0; k < numIns; ++k) {
            const EleIns &in = ins[k];
            switch (in.op) {
              case 0:
                  r0[in.dst] = in0[in.idx][c];
                  r1[in.dst] = in1[in.idx][c];
                  break;
              case 1:
                  r0[in.dst] = m.add(r0[in.dst], r0[in.src]);
                  r1[in.dst] = m.add(r1[in.dst], r1[in.src]);
                  break;
              case 2:
                  r0[in.dst] = m.sub(r0[in.dst], r0[in.src]);
                  r1[in.dst] = m.sub(r1[in.dst], r1[in.src]);
                  break;
              case 3: {
                  u64 p = pts[in.idx][c];
                  r0[in.dst] = m.mul(r0[in.dst], p);
                  r1[in.dst] = m.mul(r1[in.dst], p);
                  break;
              }
              case 4:
                  r0[in.dst] = m.add(r0[in.dst], pts[in.idx][c]);
                  break;
            }
        }
        o0[c] = r0[result];
        o1[c] = r1[result];
    }
}

// ---------------------------------------------------------------
// NTT (folded bit-reverse permutation)
// ---------------------------------------------------------------

/** Twiddle pointers for one transform, beta-selected. */
struct NttTabs
{
    const u64 *psi = nullptr;       ///< psiRev (values)
    const u64 *psiSh = nullptr;     ///< Shoup companions, chosen beta
    const u64 *psiInv = nullptr;
    const u64 *psiInvSh = nullptr;
    const u64 *fwdTw = nullptr;     ///< reordered forward last stage
    const u64 *fwdTwSh = nullptr;
    const u64 *brHalf = nullptr;
    u64 nInv = 0, nInvSh = 0;
    u64 invW = 0, invWSh = 0;       ///< psiInvRev[1] * nInv
    u64 q = 0;
    std::size_t n = 0;
};

inline NttTabs
makeTabs(const ntt::TwiddleTable &t, int beta)
{
    const ntt::ButterflyTables &bf = t.butterfly();
    NttTabs tb;
    tb.psi = bf.psiRev.data();
    tb.psiInv = bf.psiInvRev.data();
    tb.fwdTw = bf.fwdLastTw.data();
    tb.brHalf = bf.brHalf.data();
    tb.nInv = bf.nInv;
    tb.invW = bf.invLastW;
    tb.q = t.q();
    tb.n = t.n();
    switch (beta) {
      case 32:
          tb.psiSh = bf.psiRevShoup32.data();
          tb.psiInvSh = bf.psiInvRevShoup32.data();
          tb.fwdTwSh = bf.fwdLastTwShoup32.data();
          tb.nInvSh = bf.nInvShoup32;
          tb.invWSh = bf.invLastWShoup32;
          break;
      case 52:
          tb.psiSh = bf.psiRevShoup52.data();
          tb.psiInvSh = bf.psiInvRevShoup52.data();
          tb.fwdTwSh = bf.fwdLastTwShoup52.data();
          tb.nInvSh = bf.nInvShoup52;
          tb.invWSh = bf.invLastWShoup52;
          break;
      default:
          tb.psiSh = bf.psiRevShoup.data();
          tb.psiInvSh = bf.psiInvRevShoup.data();
          tb.fwdTwSh = bf.fwdLastTwShoup.data();
          tb.nInvSh = bf.nInvShoup;
          tb.invWSh = bf.invLastWShoup;
          break;
    }
    return tb;
}

/**
 * Forward CT pass, natural order in and out. Values stay < 4q across
 * stages (input u gets one conditional 2q subtraction, the lazy Shoup
 * product is < 2q, so both outputs are < 4q). Stage t == 2 writes to
 * `tmp`; the final t == 1 stage gathers its pairs from tmp through
 * brHalf, applies the reordered fwdTw twiddles and stores canonical
 * natural-order outputs — the standalone bit-reverse pass vanishes
 * into those gathers. Requires n >= 2 * V::W.
 */
template <class V, class MulT>
void
nttForwardCore(const NttTabs &tb, u64 *a, u64 *tmp)
{
    using reg = typename V::reg;
    constexpr std::size_t W = V::W;
    const std::size_t n = tb.n;
    const reg qv = V::set1(tb.q);
    const reg q2 = V::set1(2 * tb.q);

    // Full-width stages: t = n/2 ... W, twiddle splat per group.
    std::size_t t = n / 2;
    std::size_t m = 1;
    for (; t >= W; m <<= 1, t >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const reg s = V::set1(tb.psi[m + i]);
            const reg ssh = V::set1(tb.psiSh[m + i]);
            u64 *base = a + 2 * i * t;
            for (std::size_t j = 0; j < t; j += W) {
                reg u = V::condSub(V::load(base + j), q2);
                reg v = MulT::lazy(V::load(base + j + t), s, ssh, qv);
                V::store(base + j, V::add(u, v));
                V::store(base + j + t, V::add(V::sub(u, v), q2));
            }
        }
    }

    // Half-width stage: t = W/2, two groups per register pair. For
    // W == 4 this is the t == 2 stage and writes tmp.
    {
        const std::size_t mm = n / W;
        u64 *dst = (W == 4) ? tmp : a;
        for (std::size_t i = 0; i < mm; i += 2) {
            reg A = V::load(a + i * W);
            reg B = V::load(a + i * W + W);
            reg u, x;
            V::unpackHalf(A, B, u, x);
            const reg s = V::twidHalf(tb.psi + mm + i);
            const reg ssh = V::twidHalf(tb.psiSh + mm + i);
            u = V::condSub(u, q2);
            reg v = MulT::lazy(x, s, ssh, qv);
            V::packHalf(V::add(u, v), V::add(V::sub(u, v), q2), A, B);
            V::store(dst + i * W, A);
            V::store(dst + i * W + W, B);
        }
    }

    // Quarter-width stage (W == 8 only): t = 2, writes tmp.
    if constexpr (W == 8) {
        const std::size_t mm = n / 4;
        for (std::size_t i = 0; i < mm; i += 4) {
            reg A = V::load(a + i * 4);
            reg B = V::load(a + i * 4 + W);
            reg u, x;
            V::unpackQuarter(A, B, u, x);
            const reg s = V::twidQuarter(tb.psi + mm + i);
            const reg ssh = V::twidQuarter(tb.psiSh + mm + i);
            u = V::condSub(u, q2);
            reg v = MulT::lazy(x, s, ssh, qv);
            V::packQuarter(V::add(u, v), V::add(V::sub(u, v), q2), A, B);
            V::store(tmp + i * 4, A);
            V::store(tmp + i * 4 + W, B);
        }
    }

    // Final stage t = 1 with the permutation folded in: output
    // position r takes the pre-stage pair tmp[2*brHalf[r] + {0,1}]
    // and twiddle fwdTw[r]; both outputs are canonicalized.
    {
        const std::size_t half = n / 2;
        for (std::size_t r = 0; r < half; r += W) {
            reg idx = V::sll(V::load(tb.brHalf + r), 1);
            reg u = V::condSub(V::gather(tmp, idx), q2);
            reg v = MulT::lazy(V::gather(tmp + 1, idx),
                               V::load(tb.fwdTw + r),
                               V::load(tb.fwdTwSh + r), qv);
            reg s0 = V::condSub(V::condSub(V::add(u, v), q2), qv);
            reg d0 = V::condSub(
                V::condSub(V::add(V::sub(u, v), q2), q2), qv);
            V::store(a + r, s0);
            V::store(a + r + half, d0);
        }
    }
}

/**
 * Inverse GS pass, natural order in and out, values < 2q across
 * stages. The first (t == 1) stage gathers natural-order inputs
 * through brHalf — folding the bit-reverse permutation — and writes
 * interleaved pairs to tmp; stage t == 2 moves tmp back into a; the
 * last stage multiplies by nInv (and psiInvRev[1]*nInv on the
 * difference leg) and canonicalizes. Requires n >= 2 * V::W.
 */
template <class V, class MulT>
void
nttInverseCore(const NttTabs &tb, u64 *a, u64 *tmp)
{
    using reg = typename V::reg;
    constexpr std::size_t W = V::W;
    const std::size_t n = tb.n;
    const std::size_t half = n / 2;
    const reg qv = V::set1(tb.q);
    const reg q2 = V::set1(2 * tb.q);

    // Stage t = 1 (h = n/2 groups): group i reads a[brHalf[i]] and
    // a[brHalf[i] + n/2] (canonical inputs), writes pairs tmp[2i],
    // tmp[2i+1]. Sum leg stays < 2q; difference leg goes through the
    // lazy Shoup multiply.
    for (std::size_t i = 0; i < half; i += W) {
        reg idx = V::load(tb.brHalf + i);
        reg u = V::gather(a, idx);
        reg v = V::gather(a + half, idx);
        reg s0 = V::add(u, v);
        reg d = MulT::lazy(V::add(V::sub(u, v), qv),
                           V::load(tb.psiInv + half + i),
                           V::load(tb.psiInvSh + half + i), qv);
        reg A, B;
        V::packInterleave(s0, d, A, B);
        V::store(tmp + 2 * i, A);
        V::store(tmp + 2 * i + W, B);
    }

    // Quarter-width stage (W == 8 only): t = 2, tmp -> a.
    if constexpr (W == 8) {
        const std::size_t h = n / 4;
        for (std::size_t i = 0; i < h; i += 4) {
            reg A = V::load(tmp + i * 4);
            reg B = V::load(tmp + i * 4 + W);
            reg u, x;
            V::unpackQuarter(A, B, u, x);
            reg s0 = V::condSub(V::add(u, x), q2);
            reg d = MulT::lazy(V::add(V::sub(u, x), q2),
                               V::twidQuarter(tb.psiInv + h + i),
                               V::twidQuarter(tb.psiInvSh + h + i), qv);
            V::packQuarter(s0, d, A, B);
            V::store(a + i * 4, A);
            V::store(a + i * 4 + W, B);
        }
    }

    // Half-width stage: t = W/2. For W == 4 this is the t == 2 stage
    // and reads tmp; for W == 8 it runs in place on a.
    {
        const std::size_t h = n / W;
        const u64 *src = (W == 4) ? tmp : a;
        for (std::size_t i = 0; i < h; i += 2) {
            reg A = V::load(src + i * W);
            reg B = V::load(src + i * W + W);
            reg u, x;
            V::unpackHalf(A, B, u, x);
            reg s0 = V::condSub(V::add(u, x), q2);
            reg d = MulT::lazy(V::add(V::sub(u, x), q2),
                               V::twidHalf(tb.psiInv + h + i),
                               V::twidHalf(tb.psiInvSh + h + i), qv);
            V::packHalf(s0, d, A, B);
            V::store(a + i * W, A);
            V::store(a + i * W + W, B);
        }
    }

    // Full-width stages: t = W ... n/4, twiddle splat per group.
    for (std::size_t t = W; t <= n / 4; t <<= 1) {
        const std::size_t h = n / (2 * t);
        for (std::size_t i = 0; i < h; ++i) {
            const reg s = V::set1(tb.psiInv[h + i]);
            const reg ssh = V::set1(tb.psiInvSh[h + i]);
            u64 *base = a + 2 * i * t;
            for (std::size_t j = 0; j < t; j += W) {
                reg u = V::load(base + j);
                reg x = V::load(base + j + t);
                V::store(base + j, V::condSub(V::add(u, x), q2));
                V::store(base + j + t,
                         MulT::lazy(V::add(V::sub(u, x), q2), s, ssh, qv));
            }
        }
    }

    // Last stage t = n/2 (one group): fold in nInv on the sum leg and
    // psiInvRev[1] * nInv on the difference leg, canonicalize.
    {
        const reg sN = V::set1(tb.nInv);
        const reg sNsh = V::set1(tb.nInvSh);
        const reg sW = V::set1(tb.invW);
        const reg sWsh = V::set1(tb.invWSh);
        for (std::size_t j = 0; j < half; j += W) {
            reg u = V::load(a + j);
            reg x = V::load(a + j + half);
            reg s0 = MulT::lazy(V::condSub(V::add(u, x), q2), sN, sNsh, qv);
            reg d = MulT::lazy(V::add(V::sub(u, x), q2), sW, sWsh, qv);
            V::store(a + j, V::condSub(s0, qv));
            V::store(a + j + half, V::condSub(d, qv));
        }
    }
}

/** Per-transform scratch for the folded stages. */
inline u64 *
nttScratch(std::size_t n)
{
    thread_local std::vector<u64> buf;
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

template <class V, class MulT>
bool
nttForward(const ntt::TwiddleTable &t, u64 *a, int beta)
{
    nttForwardCore<V, MulT>(makeTabs(t, beta), a, nttScratch(t.n()));
    return true;
}

template <class V, class MulT>
bool
nttInverse(const ntt::TwiddleTable &t, u64 *a, int beta)
{
    nttInverseCore<V, MulT>(makeTabs(t, beta), a, nttScratch(t.n()));
    return true;
}

} // namespace tensorfhe::simd::vec

#endif // TENSORFHE_SIMD_VEC_KERNELS_HH
