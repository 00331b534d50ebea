/**
 * @file
 * Span-based polynomial kernels of the unified execution layer.
 *
 * Every kernel operates on a span of ciphertexts / polynomials and
 * flattens its full iteration space — batch slot s in [0, B) crossed
 * with RNS tower (limb) i — into one ThreadPool::parallelFor2D
 * dispatch, exactly the CTA-filling shape of the paper's batched
 * kernels (SIV-D). Batch B = 1 is the degenerate case: one
 * ciphertext is a one-element batch through the same kernels, so
 * there is one implementation of every Table II primitive and a
 * batch-1 call is bit-identical to its slot of a wider batch by
 * construction.
 *
 * All kernels are aliasing-safe for the in-place pattern (the output
 * span may be the input span: each (slot, limb, coeff) cell reads
 * only itself before writing). Kernel timers record into KernelStats
 * with the same element accounting the pre-refactor code used, so the
 * Fig. 11-13 breakdown benches are unaffected.
 */

#ifndef TENSORFHE_EXEC_KERNELS_HH
#define TENSORFHE_EXEC_KERNELS_HH

#include <cstddef>
#include <vector>

#include "ckks/ciphertext.hh"
#include "ckks/encoder.hh"
#include "common/stats.hh"

namespace tensorfhe
{
class ThreadPool;
}

namespace tensorfhe::exec
{

/** Execution context the span kernels dispatch through. */
struct KernelCtx
{
    ThreadPool *pool = nullptr; ///< never null once constructed

    explicit KernelCtx(ThreadPool *p);
};

/** out[s] += / -= b[s], both components, flattened (slot x tower). */
void eleAddCts(const KernelCtx &ctx, ckks::Ciphertext *out,
               const ckks::Ciphertext *b, std::size_t batch);
void eleSubCts(const KernelCtx &ctx, ckks::Ciphertext *out,
               const ckks::Ciphertext *b, std::size_t batch);

/** out[s].c0 += p, one shared plaintext across the batch. */
void addPlainC0(const KernelCtx &ctx, ckks::Ciphertext *out,
                const ckks::Plaintext &p, std::size_t batch);

/** out[s] = out[s] (had) p on both components (CMULT core). */
void hadaMultPlainCts(const KernelCtx &ctx, ckks::Ciphertext *out,
                      const ckks::Plaintext &p, std::size_t batch);

/**
 * HMULT product core (paper Alg. 2): d0 = a0*b0, d1 = a0*b1 + a1*b0,
 * d2 = a1*b1 per slot, written over every limb of preshaped
 * polynomials (their prior contents are never read).
 */
void multiplyTriple(const KernelCtx &ctx, const ckks::Ciphertext *a,
                    const ckks::Ciphertext *b,
                    rns::RnsPolynomial *const *d0s,
                    rns::RnsPolynomial *const *d1s,
                    rns::RnsPolynomial *const *d2s, std::size_t batch);

/** acc[s] += b[s] over the polynomials' shared limb count. */
void addPolysInPlace(const KernelCtx &ctx,
                     rns::RnsPolynomial *const *accs,
                     const rns::RnsPolynomial *const *bs,
                     std::size_t batch);

/**
 * Row inner products, one launch for all rows:
 * acc0[s] = sum_j u[j][s] (had) b[j][s] and
 * acc1[s] = sum_j u[j][s] (had) a[j][s] over acc's limbs, flattened
 * (slot x tower) and reduced once per sum (simd::Ops::dotRows). The
 * tables hold `rows` x batch polynomials, row after row
 * ([j * batch + s]); a row every slot shares repeats its pointer.
 * Writes every limb of the accumulators, whose prior contents are
 * never read. The key-switch tail runs one per key switch (u = the
 * hoisted digits, b/a = the key), a BSGS group one per group (u = the
 * diagonals, b/a = the baby-step pairs). Records one Hada-Mult
 * launch of 2 * rows * batch * limbs * n elements: two products per
 * row and cell.
 */
void dotRows(const KernelCtx &ctx, rns::RnsPolynomial *const *acc0,
             rns::RnsPolynomial *const *acc1,
             const rns::RnsPolynomial *const *u,
             const rns::RnsPolynomial *const *b,
             const rns::RnsPolynomial *const *a, std::size_t rows,
             std::size_t batch);

/**
 * P-lift accumulate: acc[s].limb(i) += (P mod q_i) * src[s].limb(i)
 * for the first src-limb-count limbs of acc (the q-part), leaving the
 * special limbs untouched. Lifts a basis-Q polynomial into an
 * extended-basis accumulator so the final ModDown recovers src
 * exactly (ModDown(P*x) == x). `pmodq` / `pmodqShoup` index by acc
 * limb position.
 */
void addPLifted(const KernelCtx &ctx, rns::RnsPolynomial *const *accs,
                const rns::RnsPolynomial *const *srcs,
                const std::vector<u64> &pmodq,
                const std::vector<u64> &pmodqShoup, std::size_t batch);

/**
 * Dcomp digit scaling: digit[s] .limb(i) *= scalars[i] with Shoup
 * precomputation shared across the batch.
 */
void mulScalarShoup(const KernelCtx &ctx,
                    rns::RnsPolynomial *const *polys,
                    const std::vector<u64> &scalars,
                    const std::vector<u64> &scalarsShoup,
                    std::size_t batch);

/**
 * A fused elementwise chain: the graph scheduler collapses adjacent
 * single-consumer elementwise launches (Ele-Add / Ele-Sub / CMULT
 * cores / plain-c0 adds) into ONE span pass described by this little
 * register program. Because every member op is exact modular u64
 * arithmetic on independent (slot, limb, coeff) cells, evaluating the
 * whole expression tree per cell is bit-identical to running the
 * member kernels back-to-back — fusion reorders memory traffic, never
 * arithmetic.
 *
 * Registers hold one (c0, c1) residue pair per cell. Instructions:
 *   Load   r[dst] = inputs[idx][s]           (both components)
 *   AddCt  r[dst] += r[src]                  (both components)
 *   SubCt  r[dst] -= r[src]                  (both components)
 *   MulPt  r[dst] *= pts[idx]                (both components)
 *   AddPt  r[dst].c0 += pts[idx]             (c0 only, HADD-plain)
 */
struct FusedSpec
{
    enum class Op : u8
    {
        Load,
        AddCt,
        SubCt,
        MulPt,
        AddPt
    };

    struct Ins
    {
        Op op;
        u16 dst = 0; ///< destination register
        u16 src = 0; ///< source register (AddCt / SubCt)
        u16 idx = 0; ///< input index (Load) or plaintext index (pt ops)
    };

    std::vector<Ins> ins;
    std::size_t numRegs = 0;
    std::size_t numInputs = 0;
    std::size_t numPts = 0;
    u16 result = 0; ///< register holding the chain's output

    /** Member-op accounting so the fused launch records the SAME
        EvalOpStats and element volume as the launches it replaces. */
    u64 addLike = 0;        ///< HAdd-recording members
    u64 mulLike = 0;        ///< CMult-recording members
    u64 elementsFactor = 0; ///< sum of member factors (x batch*L*n)

    static constexpr std::size_t kMaxRegs = 8;
};

/**
 * Execute a FusedSpec over the batch: out[s] is written from the
 * result register (both components; out must not alias any input).
 * inputs[i][s] is batch slot s of fused input i; all inputs and out
 * share one level count. Records ONE KernelKind::FusedEle launch.
 */
void fusedElementwise(const KernelCtx &ctx, const FusedSpec &spec,
                      ckks::Ciphertext *out,
                      const ckks::Ciphertext *const *inputs,
                      const ckks::Plaintext *const *pts,
                      std::size_t batch);

} // namespace tensorfhe::exec

#endif // TENSORFHE_EXEC_KERNELS_HH
