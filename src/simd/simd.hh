/**
 * @file
 * Runtime-dispatched vector backend for modular arithmetic.
 *
 * Every u64 hot loop of the execution layer — the CT/GS NTT
 * butterflies, the span kernels of exec/kernels.cc and the Conv
 * basis conversion of rns/conv.cc — routes through the
 * function-pointer table returned by ops(). Three
 * backends implement it: a scalar fallback (the exact pre-SIMD
 * formulas), an AVX2 lane and an AVX-512 lane (which adds an
 * AVX-512IFMA sub-path for q < 2^50). The backend is selected ONCE
 * at first use via CPUID, overridable with TFHE_SIMD=scalar|avx2|
 * avx512 or programmatically with setBackend() (tests/benches).
 *
 * The hard contract is bit-identity: every entry point produces
 * canonical [0, q) residues identical to the scalar backend on every
 * input (lazy [0, 2q) and unreduced u64 representations stay inside
 * a kernel body). All span kernels are aliasing-safe for the in-place
 * pattern: each output cell reads only its own index before writing.
 * docs/SIMD.md walks the invariants and how to add a kernel.
 */

#ifndef TENSORFHE_SIMD_SIMD_HH
#define TENSORFHE_SIMD_SIMD_HH

#include <cstddef>
#include <vector>

#include "common/modarith.hh"
#include "common/types.hh"

namespace tensorfhe::ntt
{
class TwiddleTable;
}

namespace tensorfhe::simd
{

enum class Backend : int
{
    Scalar = 0,
    Avx2,
    Avx512
};

/** One instruction of the fused-elementwise register program —
    layout-compatible with exec::FusedSpec::Ins (op order: Load,
    AddCt, SubCt, MulPt, AddPt). Mirrored here so the simd layer does
    not depend on exec. */
struct EleIns
{
    u8 op;
    u16 dst;
    u16 src;
    u16 idx;
};

/**
 * The backend vtable. Span arguments may alias elementwise (a == b,
 * acc == src); n is arbitrary (vector bodies handle tails scalar).
 * All inputs are canonical [0, q) residues unless noted.
 */
struct Ops
{
    const char *name;

    /** a[i] = a[i] +/- b[i] mod q. */
    void (*addSpan)(u64 *a, const u64 *b, std::size_t n, u64 q);
    void (*subSpan)(u64 *a, const u64 *b, std::size_t n, u64 q);

    /** a[i] = a[i] * b[i] mod q (Barrett). */
    void (*mulSpan)(u64 *a, const u64 *b, std::size_t n,
                    const Modulus &m);

    /** HMULT core: d0 = a0*b0, d1 = a0*b1 + a1*b0, d2 = a1*b1. */
    void (*mulTriple)(u64 *d0, u64 *d1, u64 *d2, const u64 *a0,
                      const u64 *a1, const u64 *b0, const u64 *b1,
                      std::size_t n, const Modulus &m);

    /**
     * Row inner products in one pass: acc0[i] = sum_j u[j][i]*b[j][i]
     * and acc1[i] = sum_j u[j][i]*a[j][i] mod q over `rows` rows,
     * written canonical; the accumulators' prior contents are never
     * read, and rows == 0 writes zeros. For q < 2^31 the 32x32
     * products sum unreduced in u64 and reduce once per
     * floor((2^64 - 1) / (q - 1)^2) rows. The key-switch inner product
     * (rows = digits) and a BSGS group's diagonal products (rows =
     * entries) each take one call per limb.
     */
    void (*dotRows)(u64 *acc0, u64 *acc1, const u64 *const *u,
                    const u64 *const *b, const u64 *const *a,
                    std::size_t rows, std::size_t n, const Modulus &m);

    /**
     * a[i] = a[i] * w mod q, w < q a fixed constant with its
     * beta=2^64 Shoup companion. a[i] may be ANY u64, not only a
     * canonical residue (Conv multiplies residues of another prime,
     * which can exceed q): the Shoup product is canonical for every
     * input below 2^64. For q < 2^31 a vector of inputs all below
     * 2^32 takes the beta = 2^32 product (companion wShoup >> 32).
     */
    void (*mulShoup)(u64 *a, u64 w, u64 wShoup, std::size_t n, u64 q);

    /** acc[i] = acc[i] + src[i] * w mod q (P-lift accumulate, Conv
        rows). acc is canonical; src[i] may be any u64, as in
        mulShoup. */
    void (*mulShoupAccum)(u64 *acc, const u64 *src, u64 w, u64 wShoup,
                          std::size_t n, u64 q);

    /**
     * Fused elementwise register program over one limb: evaluates
     * `ins` per cell (vector-width cells at a time) and writes
     * register `result` to o0/o1. in0/in1 index the instruction
     * stream's Load ops, pts its plaintext ops. o0/o1 must not alias
     * any input span.
     */
    void (*fusedEle)(const EleIns *ins, std::size_t numIns, u16 result,
                     u64 *o0, u64 *o1, const u64 *const *in0,
                     const u64 *const *in1, const u64 *const *pts,
                     std::size_t n, const Modulus &m);

    /**
     * In-place forward/inverse negacyclic NTT, natural order in and
     * out, with the bit-reverse permutation folded into the
     * first/last vector stage. Returns false when this backend
     * declines (scalar backend always; vector backends for n < 2
     * vector widths) — the caller then runs the scalar butterfly +
     * permute path.
     */
    bool (*nttForward)(const ntt::TwiddleTable &t, u64 *a);
    bool (*nttInverse)(const ntt::TwiddleTable &t, u64 *a);
};

/** The active backend's vtable (selects on first use). */
const Ops &ops();

Backend activeBackend();

/**
 * Force a backend (tests/benches; call while kernels are quiescent).
 * Returns false — and leaves the selection unchanged — when the host
 * cannot run `b`.
 */
bool setBackend(Backend b);

const char *backendName(Backend b);

/** True when the host CPU (and this build) can run backend b. */
bool backendSupported(Backend b);

/** Every backend runnable on this host, scalar first. */
std::vector<Backend> supportedBackends();

/** Parse "scalar" / "avx2" / "avx512" (the TFHE_SIMD vocabulary). */
bool parseBackend(const char *name, Backend &out);

/** Entry points of the per-ISA translation units (each returns null
    when its ISA was compiled out). */
const Ops *scalarOps();
const Ops *avx2Ops();
const Ops *avx512Ops();

} // namespace tensorfhe::simd

#endif // TENSORFHE_SIMD_SIMD_HH
