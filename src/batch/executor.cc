#include "batch/executor.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace tensorfhe::batch
{

BatchedEvaluator::BatchedEvaluator(const ckks::CkksContext &ctx,
                                   const ckks::KeyBundle &keys,
                                   ThreadPool *pool)
    : ctx_(ctx),
      disp_(std::make_shared<exec::Dispatcher>(ctx, keys, pool))
{}

BatchedEvaluator::BatchedEvaluator(
    const ckks::CkksContext &ctx,
    std::shared_ptr<const ckks::KeyStore> store, ThreadPool *pool)
    : ctx_(ctx),
      disp_(std::make_shared<exec::Dispatcher>(ctx, std::move(store),
                                               pool))
{}

std::size_t
BatchedEvaluator::requireUniformLevel(const Cts &a,
                                      std::size_t min_level) const
{
    std::size_t limbs = a[0].levelCount();
    for (const auto &ct : a)
        requireArg(ct.levelCount() == limbs,
                   "batched ops require a uniform level");
    requireArg(limbs >= min_level,
               min_level >= 2 ? "cannot rescale at level 0"
                              : "batched op needs at least one limb");
    return limbs;
}

void
BatchedEvaluator::requireCompatiblePair(const Cts &a, const Cts &b) const
{
    requireArg(a.size() == b.size(), "batch size mismatch");
    if (a.empty())
        return;
    std::size_t limbs = requireUniformLevel(a);
    for (std::size_t s = 0; s < a.size(); ++s) {
        requireArg(b[s].levelCount() == limbs,
                   "batched ops require a uniform level");
        requireArg(std::abs(a[s].scale - b[s].scale)
                       <= 1e-6 * std::max(a[s].scale, b[s].scale),
                   "ciphertext scales differ");
    }
}

BatchedEvaluator::Cts
BatchedEvaluator::add(const Cts &a, const Cts &b) const
{
    Cts out = a;
    addInPlace(out, b);
    return out;
}

void
BatchedEvaluator::addInPlace(Cts &a, const Cts &b) const
{
    requireCompatiblePair(a, b);
    disp_->addInPlace(a.data(), b.data(), a.size());
}

BatchedEvaluator::Cts
BatchedEvaluator::sub(const Cts &a, const Cts &b) const
{
    requireCompatiblePair(a, b);
    Cts out = a;
    disp_->subInPlace(out.data(), b.data(), out.size());
    return out;
}

BatchedEvaluator::Cts
BatchedEvaluator::multiplyPlain(const Cts &a,
                                const ckks::Plaintext &p) const
{
    if (a.empty())
        return {};
    std::size_t limbs = requireUniformLevel(a);
    requireArg(p.levelCount() == limbs, "plaintext level mismatch");
    Cts out = a;
    disp_->multiplyPlainInPlace(out.data(), p, out.size());
    return out;
}

BatchedEvaluator::Cts
BatchedEvaluator::addPlain(const Cts &a, const ckks::Plaintext &p) const
{
    if (a.empty())
        return {};
    std::size_t limbs = requireUniformLevel(a);
    for (const auto &ct : a)
        requireArg(ct.levelCount() == p.levelCount()
                       && ct.levelCount() == limbs
                       && std::abs(ct.scale - p.scale)
                           <= 1e-6 * ct.scale,
                   "plaintext incompatible with ciphertext");
    Cts out = a;
    disp_->addPlainInPlace(out.data(), p, out.size());
    return out;
}

BatchedEvaluator::Cts
BatchedEvaluator::rescale(const Cts &a) const
{
    if (a.empty())
        return {};
    Cts out = a;
    rescaleInPlace(out);
    return out;
}

void
BatchedEvaluator::rescaleInPlace(Cts &a) const
{
    if (a.empty())
        return;
    requireUniformLevel(a, 2);
    disp_->rescaleInPlace(a.data(), a.size());
}

BatchedEvaluator::Cts
BatchedEvaluator::multiply(const Cts &a, const Cts &b) const
{
    requireArg(a.size() == b.size(), "batch size mismatch");
    if (a.empty())
        return {};
    std::size_t limbs = requireUniformLevel(a);
    for (std::size_t s = 0; s < a.size(); ++s)
        requireArg(b[s].levelCount() == limbs,
                   "batched ops require a uniform level");
    requireArg(limbs >= 2, "no level budget left for multiplication");
    Cts out = a;
    disp_->multiplyInPlace(out.data(), b.data(), out.size());
    return out;
}

BatchedEvaluator::Cts
BatchedEvaluator::rotate(const Cts &a, s64 step) const
{
    auto out = rotateManyBatch(a, {step});
    return std::move(out[0]);
}

BatchedEvaluator::Cts
BatchedEvaluator::multiplyConstToScale(const Cts &a, double c,
                                       double target_scale) const
{
    if (a.empty())
        return {};
    std::size_t lc = a[0].levelCount();
    requireArg(lc >= 2, "no level left for the rescale");
    for (const auto &ct : a)
        requireArg(ct.levelCount() == lc
                       && std::abs(ct.scale - a[0].scale)
                           <= 1e-6 * a[0].scale,
                   "batched ops require a uniform level and scale");
    u64 q_last = ctx_.tower().prime(lc - 1);
    double pt_scale =
        target_scale * static_cast<double>(q_last) / a[0].scale;
    requireArg(pt_scale >= 2.0, "target scale too small for level");
    auto pt = ctx_.encoder().encodeConstant(ckks::Complex(c, 0),
                                            pt_scale, lc);
    auto out = rescale(multiplyPlain(a, pt));
    for (auto &ct : out)
        ct.scale = target_scale; // exact by construction
    return out;
}

BatchedEvaluator::Cts
BatchedEvaluator::addConst(const Cts &a, double c) const
{
    if (a.empty())
        return {};
    std::size_t lc = requireUniformLevel(a);
    for (const auto &ct : a)
        requireArg(std::abs(ct.scale - a[0].scale) <= 1e-6 * a[0].scale,
                   "batched ops require a uniform scale");
    auto pt = ctx_.encoder().encodeConstant(ckks::Complex(c, 0),
                                            a[0].scale, lc);
    Cts out = a;
    disp_->addPlainInPlace(out.data(), pt, out.size());
    return out;
}

BatchedEvaluator::Cts
BatchedEvaluator::negate(const Cts &a) const
{
    Cts out = a;
    for (auto &ct : out) {
        rns::negateInPlace(ct.c0);
        rns::negateInPlace(ct.c1);
    }
    return out;
}

BatchedEvaluator::Cts
BatchedEvaluator::dropToLevelCount(const Cts &a,
                                   std::size_t level_count) const
{
    Cts out = a;
    for (auto &ct : out) {
        requireArg(level_count >= 1 && level_count <= ct.levelCount(),
                   "bad target level");
        ct.c0.truncateLimbs(level_count);
        ct.c1.truncateLimbs(level_count);
    }
    return out;
}

std::vector<BatchedEvaluator::Cts>
BatchedEvaluator::rotateManyBatch(const Cts &a,
                                  const std::vector<s64> &steps) const
{
    if (a.empty())
        return std::vector<Cts>(steps.size());
    requireUniformLevel(a);
    return disp_->rotateMany(a.data(), a.size(), steps);
}

double
workingSetBytesPerOp(const ckks::CkksParams &params)
{
    double n = static_cast<double>(params.n);
    double lc = static_cast<double>(params.levels) + 1;
    double k = static_cast<double>(params.special);
    double residue = 4.0; // 32-bit device residues
    // Two input ciphertexts (2 polys each), the three HMULT products,
    // and the key-switching scratch over the union basis (digits
    // stream through reused buffers: ModUp staging plus the two
    // inner-product accumulators and one spare).
    double cts = (4 + 3) * lc * n * residue;
    double ks = 4.0 * (lc + k) * n * residue;
    return cts + ks;
}

std::size_t
bestBatchSize(const ckks::CkksParams &params, const gpu::DeviceModel &dev,
              std::size_t requested)
{
    requireArg(requested >= 1, "requested batch must be positive");
    double usable = dev.vramBytes * 0.8; // leave headroom for keys
    auto cap = static_cast<std::size_t>(
        usable / workingSetBytesPerOp(params));
    if (cap == 0)
        cap = 1;
    return std::min(requested, cap);
}

} // namespace tensorfhe::batch
