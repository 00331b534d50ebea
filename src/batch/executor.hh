/**
 * @file
 * Operation-level batching (paper SIV-D/E): the API layer receives
 * batches of identical FHE operation requests sharing the same level
 * L (so all reuse one twiddle table), picks a batch size from the
 * device VRAM budget, and dispatches the batched kernels across the
 * worker pool — the CPU stand-in for filling the GPGPU with CTAs.
 *
 * # Threading model
 *
 * The engine never parallelizes "one ciphertext at a time". Every
 * batched operation flattens its full iteration space — batch slot b
 * in [0, B) crossed with RNS tower (limb) i in [0, L') — into one
 * work-queue and drains it through a ThreadPool in a single dispatch
 * (ThreadPool::parallelFor2D). Lanes pull (slot, tower) index chunks
 * from a shared atomic cursor, so an expensive tower on one slot
 * cannot serialize the rest of the batch: this mirrors the paper's
 * CTA-level scheduling, where batched NTT/IOp kernels fill all SMs
 * regardless of which operation a CTA belongs to.
 *
 * The kernels live in src/exec/ (exec::Dispatcher +
 * exec/kernels.hh): this class validates batch shape and delegates.
 * It is the library's only evaluator — one ciphertext is a
 * one-element batch through the same path, so there is one
 * implementation of every operation, and each slot of a batched
 * result is bit-identical to the batch-1 call on that slot by
 * construction. Scratch polynomials come from the dispatcher's
 * exec::Workspace arena instead of the allocator.
 *
 * The pool is injectable (constructor argument) so callers can pin a
 * thread budget — tests run the same engine on a 1-worker pool and on
 * the process-global pool and compare bits.
 */

#ifndef TENSORFHE_BATCH_EXECUTOR_HH
#define TENSORFHE_BATCH_EXECUTOR_HH

#include <vector>

#include "ckks/ciphertext.hh"
#include "exec/dispatch.hh"
#include "gpu/device.hh"

namespace tensorfhe
{
class ThreadPool;
}

namespace tensorfhe::batch
{

/**
 * The CKKS evaluator: every operation of the paper's hierarchical
 * reconstruction (Table II, Algs. 1-6) over a batch of ciphertexts.
 */
class BatchedEvaluator
{
  public:
    /**
     * @param keys must outlive the evaluator; the dispatcher reads
     *             every key from it in place.
     * @param pool worker pool the (slot x tower) work-queues drain
     *             through; null = process-global pool.
     */
    BatchedEvaluator(const ckks::CkksContext &ctx,
                     const ckks::KeyBundle &keys,
                     ThreadPool *pool = nullptr);

    using Cts = std::vector<ckks::Ciphertext>;

    Cts add(const Cts &a, const Cts &b) const;
    Cts sub(const Cts &a, const Cts &b) const;
    Cts multiply(const Cts &a, const Cts &b) const;
    Cts multiplyPlain(const Cts &a, const ckks::Plaintext &p) const;
    Cts addPlain(const Cts &a, const ckks::Plaintext &p) const;

    /** In-place HADD: a[s] += b[s] without copying the batch. */
    void addInPlace(Cts &a, const Cts &b) const;

    /**
     * Multiply by a real constant and rescale so every output lands
     * at exactly `target_scale` (the plaintext scale is chosen as
     * target * q_last / a.scale): one encoded constant shared by the
     * batch, one CMULT + RESCALE per slot. The standard way to keep
     * parallel branches addable despite unequal prime chains.
     */
    Cts multiplyConstToScale(const Cts &a, double c,
                             double target_scale) const;
    /** Add a real constant to every slot (one shared plaintext). */
    Cts addConst(const Cts &a, double c) const;
    /** Negate all slots (no key material, no level). */
    Cts negate(const Cts &a) const;
    Cts rescale(const Cts &a) const;
    /** In-place RESCALE of the whole batch. */
    void rescaleInPlace(Cts &a) const;
    Cts rotate(const Cts &a, s64 step) const;
    /** Level alignment across the batch (no arithmetic). */
    Cts dropToLevelCount(const Cts &a, std::size_t level_count) const;

    /**
     * Hoisted HROTATE across both the batch and the step dimension:
     * the decompose+ModUp+NTT key-switch head runs once per batch
     * slot (not once per (slot, step)), and every per-step stage —
     * the digit FrobeniusMap, the key inner product, ModDown — is
     * flattened over (batch-slot x rotation x tower) through the
     * work-queue. result[i] is the whole batch rotated by steps[i];
     * bit-identical to rotate() per (slot, step).
     */
    std::vector<Cts> rotateManyBatch(const Cts &a,
                                     const std::vector<s64> &steps) const;

    /** The CKKS context every operation runs under. */
    const ckks::CkksContext &ctx() const { return ctx_; }

    /** The unified execution layer this engine dispatches through. */
    const exec::Dispatcher &dispatcher() const { return *disp_; }

    ThreadPool &pool() const { return disp_->pool(); }

  private:
    /** Shared batch validation: uniform level (optionally >= floor). */
    std::size_t requireUniformLevel(const Cts &a,
                                    std::size_t min_level = 1) const;
    /** Pairwise validation shared by add/sub/addInPlace. */
    void requireCompatiblePair(const Cts &a, const Cts &b) const;

    const ckks::CkksContext &ctx_;
    std::shared_ptr<exec::Dispatcher> disp_;
};

/**
 * The API layer's batch-size policy: the largest batch whose working
 * set fits the usable VRAM fraction (paper SVI-E: "the batch size of
 * TensorFHE is mainly determined by the VRAM capacity").
 */
std::size_t bestBatchSize(const ckks::CkksParams &params,
                          const gpu::DeviceModel &dev,
                          std::size_t requested);

/** Bytes of device memory one in-flight batched HMULT consumes. */
double workingSetBytesPerOp(const ckks::CkksParams &params);

} // namespace tensorfhe::batch

#endif // TENSORFHE_BATCH_EXECUTOR_HH
