#include "exec/kernels.hh"

#include "common/logging.hh"
#include "common/modarith.hh"
#include "common/thread_pool.hh"
#include "simd/simd.hh"

namespace tensorfhe::exec
{

KernelCtx::KernelCtx(ThreadPool *p)
    : pool(p ? p : &ThreadPool::global())
{}

namespace
{

/** Shared body of the ciphertext-pair elementwise kernels; addOp
    selects addSpan vs subSpan of the active SIMD backend. */
void
elementwisePair(const KernelCtx &ctx, ckks::Ciphertext *out,
                const ckks::Ciphertext *b, std::size_t batch,
                KernelKind kind, bool addOp)
{
    if (batch == 0)
        return;
    std::size_t limbs = out[0].levelCount();
    std::size_t n = out[0].c0.n();
    const simd::Ops &v = simd::ops();
    auto span = addOp ? v.addSpan : v.subSpan;
    ScopedKernelTimer timer(kind, 2 * batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        u64 q = out[s].c0.limbModulus(i).value();
        span(out[s].c0.limb(i), b[s].c0.limb(i), n, q);
        span(out[s].c1.limb(i), b[s].c1.limb(i), n, q);
    });
}

} // namespace

void
eleAddCts(const KernelCtx &ctx, ckks::Ciphertext *out,
          const ckks::Ciphertext *b, std::size_t batch)
{
    elementwisePair(ctx, out, b, batch, KernelKind::EleAdd, true);
}

void
eleSubCts(const KernelCtx &ctx, ckks::Ciphertext *out,
          const ckks::Ciphertext *b, std::size_t batch)
{
    elementwisePair(ctx, out, b, batch, KernelKind::EleSub, false);
}

void
addPlainC0(const KernelCtx &ctx, ckks::Ciphertext *out,
           const ckks::Plaintext &p, std::size_t batch)
{
    if (batch == 0)
        return;
    std::size_t limbs = out[0].levelCount();
    std::size_t n = out[0].c0.n();
    const simd::Ops &v = simd::ops();
    ScopedKernelTimer timer(KernelKind::EleAdd, batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        v.addSpan(out[s].c0.limb(i), p.poly.limb(i), n,
                  out[s].c0.limbModulus(i).value());
    });
}

void
hadaMultPlainCts(const KernelCtx &ctx, ckks::Ciphertext *out,
                 const ckks::Plaintext &p, std::size_t batch)
{
    if (batch == 0)
        return;
    std::size_t limbs = out[0].levelCount();
    std::size_t n = out[0].c0.n();
    const simd::Ops &v = simd::ops();
    ScopedKernelTimer timer(KernelKind::HadaMult, 2 * batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        const Modulus &mod = out[s].c0.limbModulus(i);
        const u64 *pp = p.poly.limb(i);
        v.mulSpan(out[s].c0.limb(i), pp, n, mod);
        v.mulSpan(out[s].c1.limb(i), pp, n, mod);
    });
}

void
multiplyTriple(const KernelCtx &ctx, const ckks::Ciphertext *a,
               const ckks::Ciphertext *b,
               rns::RnsPolynomial *const *d0s,
               rns::RnsPolynomial *const *d1s,
               rns::RnsPolynomial *const *d2s, std::size_t batch)
{
    if (batch == 0)
        return;
    std::size_t limbs = a[0].levelCount();
    std::size_t n = a[0].c0.n();
    const simd::Ops &v = simd::ops();
    ScopedKernelTimer timer(KernelKind::HadaMult, 4 * batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        const Modulus &mod = d0s[s]->limbModulus(i);
        v.mulTriple(d0s[s]->limb(i), d1s[s]->limb(i), d2s[s]->limb(i),
                    a[s].c0.limb(i), a[s].c1.limb(i), b[s].c0.limb(i),
                    b[s].c1.limb(i), n, mod);
    });
}

void
addPolysInPlace(const KernelCtx &ctx, rns::RnsPolynomial *const *accs,
                const rns::RnsPolynomial *const *bs, std::size_t batch)
{
    if (batch == 0)
        return;
    std::size_t limbs = accs[0]->numLimbs();
    std::size_t n = accs[0]->n();
    const simd::Ops &v = simd::ops();
    ScopedKernelTimer timer(KernelKind::EleAdd, batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        v.addSpan(accs[s]->limb(i), bs[s]->limb(i), n,
                  accs[s]->limbModulus(i).value());
    });
}

void
dotRows(const KernelCtx &ctx, rns::RnsPolynomial *const *acc0,
        rns::RnsPolynomial *const *acc1, const rns::RnsPolynomial *const *u,
        const rns::RnsPolynomial *const *b,
        const rns::RnsPolynomial *const *a, std::size_t rows,
        std::size_t batch)
{
    if (batch == 0)
        return;
    std::size_t limbs = acc0[0]->numLimbs();
    std::size_t n = acc0[0]->n();
    const simd::Ops &v = simd::ops();
    ScopedKernelTimer timer(KernelKind::HadaMult,
                            2 * rows * batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        // Per-limb row tables: u, b and a for every row. A row on the
        // accumulator's basis holds its limb at i; a wider one (a
        // full-tower key) is looked up once by the tower index.
        std::size_t t = acc0[s]->limbIndex(i);
        auto at = [i, t](const rns::RnsPolynomial *p) {
            bool same = i < p->numLimbs() && p->limbIndex(i) == t;
            return p->limb(same ? i : p->limbPosition(t));
        };
        thread_local std::vector<const u64 *> spans;
        spans.resize(3 * rows);
        for (std::size_t j = 0; j < rows; ++j) {
            std::size_t k = j * batch + s;
            spans[j] = at(u[k]);
            spans[rows + j] = at(b[k]);
            spans[2 * rows + j] = at(a[k]);
        }
        v.dotRows(acc0[s]->limb(i), acc1[s]->limb(i), spans.data(),
                  spans.data() + rows, spans.data() + 2 * rows, rows, n,
                  acc0[s]->limbModulus(i));
    });
}

void
addPLifted(const KernelCtx &ctx, rns::RnsPolynomial *const *accs,
           const rns::RnsPolynomial *const *srcs,
           const std::vector<u64> &pmodq,
           const std::vector<u64> &pmodqShoup, std::size_t batch)
{
    if (batch == 0)
        return;
    std::size_t limbs = srcs[0]->numLimbs(); // the q-part only
    std::size_t n = srcs[0]->n();
    TFHE_ASSERT(accs[0]->numLimbs() >= limbs,
                "accumulator smaller than the lifted source");
    const simd::Ops &v = simd::ops();
    ScopedKernelTimer timer(KernelKind::HadaMult, batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        v.mulShoupAccum(accs[s]->limb(i), srcs[s]->limb(i), pmodq[i],
                        pmodqShoup[i], n,
                        accs[s]->limbModulus(i).value());
    });
}

void
fusedElementwise(const KernelCtx &ctx, const FusedSpec &spec,
                 ckks::Ciphertext *out,
                 const ckks::Ciphertext *const *inputs,
                 const ckks::Plaintext *const *pts, std::size_t batch)
{
    if (batch == 0 || spec.ins.empty())
        return;
    TFHE_ASSERT(spec.numRegs <= FusedSpec::kMaxRegs,
                "fused chain exceeds the register file");
    std::size_t limbs = out[0].levelCount();
    std::size_t n = out[0].c0.n();

    // Translate the program once per launch into the simd layer's
    // layout-mirrored instruction form.
    std::vector<simd::EleIns> ins(spec.ins.size());
    for (std::size_t k = 0; k < spec.ins.size(); ++k) {
        ins[k].op = static_cast<u8>(spec.ins[k].op);
        ins[k].dst = spec.ins[k].dst;
        ins[k].src = spec.ins[k].src;
        ins[k].idx = spec.ins[k].idx;
    }
    constexpr std::size_t kMaxPtrs = 32;
    TFHE_ASSERT(spec.numInputs <= kMaxPtrs && spec.numPts <= kMaxPtrs,
                "fused chain exceeds the pointer file");

    const simd::Ops &v = simd::ops();
    ScopedKernelTimer timer(KernelKind::FusedEle,
                            spec.elementsFactor * batch * limbs * n);
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        const u64 *in0[kMaxPtrs];
        const u64 *in1[kMaxPtrs];
        const u64 *pp[kMaxPtrs];
        for (std::size_t k = 0; k < spec.numInputs; ++k) {
            in0[k] = inputs[k][s].c0.limb(i);
            in1[k] = inputs[k][s].c1.limb(i);
        }
        for (std::size_t k = 0; k < spec.numPts; ++k)
            pp[k] = pts[k]->poly.limb(i);
        v.fusedEle(ins.data(), ins.size(), spec.result,
                   out[s].c0.limb(i), out[s].c1.limb(i), in0, in1, pp, n,
                   out[s].c0.limbModulus(i));
    });
}

void
mulScalarShoup(const KernelCtx &ctx, rns::RnsPolynomial *const *polys,
               const std::vector<u64> &scalars,
               const std::vector<u64> &scalarsShoup, std::size_t batch)
{
    if (batch == 0)
        return;
    std::size_t limbs = polys[0]->numLimbs();
    std::size_t n = polys[0]->n();
    const simd::Ops &v = simd::ops();
    ctx.pool->parallelFor2D(batch, limbs,
                            [&](std::size_t s, std::size_t i) {
        v.mulShoup(polys[s]->limb(i), scalars[i], scalarsShoup[i], n,
                   polys[s]->limbModulus(i).value());
    });
}

} // namespace tensorfhe::exec
