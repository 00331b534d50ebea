#include "ntt/ntt.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace tensorfhe::ntt
{

namespace
{

void
dispatchOne(const NttContext &ctx, u64 *a, NttVariant v, bool fwd)
{
    switch (v) {
      case NttVariant::Reference:
        fwd ? detail::forwardReference(ctx.tables(), a)
            : detail::inverseReference(ctx.tables(), a);
        break;
      case NttVariant::Butterfly:
        fwd ? detail::forwardButterfly(ctx.tables(), a)
            : detail::inverseButterfly(ctx.tables(), a);
        break;
      case NttVariant::Gemm:
        fwd ? detail::forwardGemm(ctx.tables(), a)
            : detail::inverseGemm(ctx.tables(), a);
        break;
      case NttVariant::Tensor:
        fwd ? detail::forwardTensor(ctx.tables(), a)
            : detail::inverseTensor(ctx.tables(), a);
        break;
    }
}

void
dispatchJobs(const std::vector<NttJob> &jobs, NttVariant v, bool fwd,
             ThreadPool *pool)
{
    if (jobs.empty())
        return;
    u64 elements = 0;
    for (const auto &j : jobs)
        elements += j.ctx->n();
    ScopedKernelTimer timer(fwd ? KernelKind::Ntt : KernelKind::Intt,
                            elements);
    if (!pool)
        pool = &ThreadPool::global();
    if (v == NttVariant::Tensor) {
        // Jobs sharing a prime (batch slots at the same tower) fuse
        // into one large segment GEMM each; the 16 segment GEMMs
        // inside parallelize across the pool.
        std::vector<std::pair<const NttContext *, std::vector<u64 *>>>
            groups;
        for (const auto &j : jobs) {
            auto it = std::find_if(groups.begin(), groups.end(),
                                   [&](const auto &g) {
                                       return g.first == j.ctx;
                                   });
            if (it == groups.end())
                groups.push_back({j.ctx, {j.data}});
            else
                it->second.push_back(j.data);
        }
        for (auto &g : groups) {
            if (g.second.size() == 1) {
                dispatchOne(*g.first, g.second[0], v, fwd);
            } else if (fwd) {
                detail::forwardTensorBatch(g.first->tables(),
                                           g.second.data(),
                                           g.second.size(), pool);
            } else {
                detail::inverseTensorBatch(g.first->tables(),
                                           g.second.data(),
                                           g.second.size(), pool);
            }
        }
        return;
    }
    pool->parallelFor(0, jobs.size(), [&](std::size_t i) {
        dispatchOne(*jobs[i].ctx, jobs[i].data, v, fwd);
    });
}

} // namespace

const char *
nttVariantName(NttVariant v)
{
    switch (v) {
      case NttVariant::Reference: return "Reference";
      case NttVariant::Butterfly: return "Butterfly(NT)";
      case NttVariant::Gemm: return "GEMM(CO)";
      case NttVariant::Tensor: return "Tensor(TCU)";
      default: TFHE_ASSERT(false); return "?";
    }
}

NttContext::NttContext(std::size_t n, u64 q) : table_(n, q) {}

void
NttContext::forward(u64 *a, NttVariant v) const
{
    ScopedKernelTimer timer(KernelKind::Ntt, table_.n());
    switch (v) {
      case NttVariant::Reference: detail::forwardReference(table_, a); break;
      case NttVariant::Butterfly: detail::forwardButterfly(table_, a); break;
      case NttVariant::Gemm: detail::forwardGemm(table_, a); break;
      case NttVariant::Tensor: detail::forwardTensor(table_, a); break;
    }
}

void
NttContext::inverse(u64 *a, NttVariant v) const
{
    ScopedKernelTimer timer(KernelKind::Intt, table_.n());
    switch (v) {
      case NttVariant::Reference: detail::inverseReference(table_, a); break;
      case NttVariant::Butterfly: detail::inverseButterfly(table_, a); break;
      case NttVariant::Gemm: detail::inverseGemm(table_, a); break;
      case NttVariant::Tensor: detail::inverseTensor(table_, a); break;
    }
}

void
NttContext::forwardBatch(u64 *const *polys, std::size_t count,
                         NttVariant v, ThreadPool *pool) const
{
    if (count == 0)
        return;
    if (v == NttVariant::Tensor && count > 1) {
        ScopedKernelTimer timer(KernelKind::Ntt, count * table_.n());
        detail::forwardTensorBatch(table_, polys, count, pool);
        return;
    }
    std::vector<NttJob> jobs(count);
    for (std::size_t i = 0; i < count; ++i)
        jobs[i] = {this, polys[i]};
    ntt::forwardBatch(jobs, v, pool);
}

void
NttContext::inverseBatch(u64 *const *polys, std::size_t count,
                         NttVariant v, ThreadPool *pool) const
{
    if (count == 0)
        return;
    if (v == NttVariant::Tensor && count > 1) {
        ScopedKernelTimer timer(KernelKind::Intt, count * table_.n());
        detail::inverseTensorBatch(table_, polys, count, pool);
        return;
    }
    std::vector<NttJob> jobs(count);
    for (std::size_t i = 0; i < count; ++i)
        jobs[i] = {this, polys[i]};
    ntt::inverseBatch(jobs, v, pool);
}

void
forwardBatch(const std::vector<NttJob> &jobs, NttVariant v,
             ThreadPool *pool)
{
    dispatchJobs(jobs, v, true, pool);
}

void
inverseBatch(const std::vector<NttJob> &jobs, NttVariant v,
             ThreadPool *pool)
{
    dispatchJobs(jobs, v, false, pool);
}

std::vector<u64>
NttContext::negacyclicMultiply(const std::vector<u64> &a,
                               const std::vector<u64> &b,
                               NttVariant v) const
{
    std::size_t n = table_.n();
    requireArg(a.size() == n && b.size() == n, "operand length != N");
    std::vector<u64> fa = a;
    std::vector<u64> fb = b;
    forward(fa.data(), v);
    forward(fb.data(), v);
    const Modulus &mod = table_.modulus();
    for (std::size_t i = 0; i < n; ++i)
        fa[i] = mod.mul(fa[i], fb[i]);
    inverse(fa.data(), v);
    return fa;
}

namespace detail
{

void
bitReversePermute(u64 *a, std::size_t n)
{
    int bits = log2Floor(n);
    for (u32 i = 0; i < n; ++i) {
        u32 j = bitReverse(i, bits);
        if (i < j)
            std::swap(a[i], a[j]);
    }
}

} // namespace detail

} // namespace tensorfhe::ntt
