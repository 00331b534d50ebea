/**
 * @file
 * Scalar backend: the exact pre-SIMD loop bodies of exec/kernels.cc
 * and ntt_butterfly.cc, kernel by kernel. This is the bit-identity
 * reference the vector lanes are tested against, and the fallback on
 * hosts (or forced runs) without AVX.
 */

#include "simd/simd.hh"

namespace tensorfhe::simd
{

namespace
{

void
addSpanScalar(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = addMod(a[c], b[c], q);
}

void
subSpanScalar(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = subMod(a[c], b[c], q);
}

void
mulSpanScalar(u64 *a, const u64 *b, std::size_t n, const Modulus &m)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = m.mul(a[c], b[c]);
}

void
mulTripleScalar(u64 *d0, u64 *d1, u64 *d2, const u64 *a0,
                const u64 *a1, const u64 *b0, const u64 *b1,
                std::size_t n, const Modulus &m)
{
    for (std::size_t c = 0; c < n; ++c) {
        d0[c] = m.mul(a0[c], b0[c]);
        d1[c] = m.add(m.mul(a0[c], b1[c]), m.mul(a1[c], b0[c]));
        d2[c] = m.mul(a1[c], b1[c]);
    }
}

void
dotRowsScalar(u64 *acc0, u64 *acc1, const u64 *const *u,
              const u64 *const *b, const u64 *const *a,
              std::size_t rows, std::size_t n, const Modulus &m)
{
    for (std::size_t c = 0; c < n; ++c) {
        u64 s0 = 0, s1 = 0;
        for (std::size_t j = 0; j < rows; ++j) {
            s0 = m.add(s0, m.mul(u[j][c], b[j][c]));
            s1 = m.add(s1, m.mul(u[j][c], a[j][c]));
        }
        acc0[c] = s0;
        acc1[c] = s1;
    }
}

void
mulShoupScalar(u64 *a, u64 w, u64 wShoup, std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = mulModShoup(a[c], w, wShoup, q);
}

void
mulShoupAccumScalar(u64 *acc, const u64 *src, u64 w, u64 wShoup,
                    std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        acc[c] = addMod(acc[c], mulModShoup(src[c], w, wShoup, q), q);
}

void
fusedEleScalar(const EleIns *ins, std::size_t numIns, u16 result,
               u64 *o0, u64 *o1, const u64 *const *in0,
               const u64 *const *in1, const u64 *const *pts,
               std::size_t n, const Modulus &m)
{
    constexpr std::size_t kMaxRegs = 8;
    for (std::size_t c = 0; c < n; ++c) {
        u64 r0[kMaxRegs];
        u64 r1[kMaxRegs];
        for (std::size_t k = 0; k < numIns; ++k) {
            const EleIns &in = ins[k];
            switch (in.op) {
              case 0: // Load
                  r0[in.dst] = in0[in.idx][c];
                  r1[in.dst] = in1[in.idx][c];
                  break;
              case 1: // AddCt
                  r0[in.dst] = m.add(r0[in.dst], r0[in.src]);
                  r1[in.dst] = m.add(r1[in.dst], r1[in.src]);
                  break;
              case 2: // SubCt
                  r0[in.dst] = m.sub(r0[in.dst], r0[in.src]);
                  r1[in.dst] = m.sub(r1[in.dst], r1[in.src]);
                  break;
              case 3: { // MulPt
                  u64 p = pts[in.idx][c];
                  r0[in.dst] = m.mul(r0[in.dst], p);
                  r1[in.dst] = m.mul(r1[in.dst], p);
                  break;
              }
              case 4: // AddPt
                  r0[in.dst] = m.add(r0[in.dst], pts[in.idx][c]);
                  break;
            }
        }
        o0[c] = r0[result];
        o1[c] = r1[result];
    }
}

bool
nttDecline(const ntt::TwiddleTable &, u64 *)
{
    // The scalar NTT lives in ntt_butterfly.cc (CT/GS + permute);
    // declining routes the caller there.
    return false;
}

const Ops kScalarOps = {
    "scalar",        addSpanScalar,       subSpanScalar,
    mulSpanScalar,   mulTripleScalar,     dotRowsScalar,
    mulShoupScalar,  mulShoupAccumScalar, fusedEleScalar,
    nttDecline,      nttDecline,
};

} // namespace

const Ops *
scalarOps()
{
    return &kScalarOps;
}

} // namespace tensorfhe::simd
