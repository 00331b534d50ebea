/**
 * @file
 * Negacyclic NTT engines over Z_q[X]/(X^N + 1).
 *
 * Four interchangeable implementations of paper Eq. 4:
 *  - Reference: direct O(N^2) summation (oracle for tests);
 *  - Butterfly: iterative CT/GS with Shoup multiplication — the
 *    kernel inside "TensorFHE-NT" and the CPU baseline;
 *  - Gemm: the three-matrix Cooley-Tukey form of Eq. 9 with one
 *    deferred modulo per output — "TensorFHE-CO";
 *  - Tensor: the same three GEMMs executed on the simulated INT8
 *    tensor core via segment-fusion — "TensorFHE".
 *
 * All variants use natural (standard) coefficient order at the API
 * boundary and agree bit-for-bit; tests enforce this.
 */

#ifndef TENSORFHE_NTT_NTT_HH
#define TENSORFHE_NTT_NTT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "ntt/twiddle.hh"

namespace tensorfhe
{
class ThreadPool;
}

namespace tensorfhe::ntt
{

/** Which engine executes the transform. */
enum class NttVariant
{
    Reference,
    Butterfly, ///< TensorFHE-NT
    Gemm,      ///< TensorFHE-CO
    Tensor     ///< TensorFHE (TCU path)
};

const char *nttVariantName(NttVariant v);

/**
 * All state needed to transform length-N polynomials mod one prime q.
 * Owns the twiddle tables; thread-safe for concurrent transforms.
 */
class NttContext
{
  public:
    NttContext(std::size_t n, u64 q);

    std::size_t n() const { return table_.n(); }
    u64 q() const { return table_.q(); }
    const Modulus &modulus() const { return table_.modulus(); }
    const TwiddleTable &tables() const { return table_; }

    /** In-place forward NTT of a[0..N), natural order in and out. */
    void forward(u64 *a, NttVariant v = NttVariant::Butterfly) const;

    /** In-place inverse NTT, natural order in and out. */
    void inverse(u64 *a, NttVariant v = NttVariant::Butterfly) const;

    /**
     * Batched forward NTT: transform `count` polynomials in place,
     * all under this context's prime. One kernel timer covers the
     * batch and all transforms share the precomputed twiddle tables
     * (paper SIV-B "Data Reuse"). Butterfly/GEMM/Reference jobs are
     * dispatched across `pool` (null = process-global); the Tensor
     * variant instead fuses the batch into single large segment-fusion
     * GEMMs (paper SIV-D: batching fills the TCU), whose 16 segment
     * GEMMs parallelize across the pool. Results are bit-identical to
     * `count` serial forward() calls.
     */
    void forwardBatch(u64 *const *polys, std::size_t count,
                      NttVariant v = NttVariant::Butterfly,
                      ThreadPool *pool = nullptr) const;

    /** Batched inverse NTT; mirrors forwardBatch. */
    void inverseBatch(u64 *const *polys, std::size_t count,
                      NttVariant v = NttVariant::Butterfly,
                      ThreadPool *pool = nullptr) const;

    /**
     * Negacyclic polynomial product c = a * b mod (X^N + 1, q),
     * via forward/pointwise/inverse (test and encoder helper).
     */
    std::vector<u64> negacyclicMultiply(
        const std::vector<u64> &a, const std::vector<u64> &b,
        NttVariant v = NttVariant::Butterfly) const;

  private:
    TwiddleTable table_;
};

/**
 * One (batch-slot x RNS-tower) transform task of the batched
 * execution engine: `data` holds the N coefficients of one residue
 * polynomial under `ctx`'s prime. A batched HE operation flattens its
 * whole iteration space into a vector of these and drains it through
 * the pool in one dispatch.
 */
struct NttJob
{
    const NttContext *ctx = nullptr;
    u64 *data = nullptr;
};

/**
 * Forward-transform every job in place, dispatched dynamically across
 * `pool` (null = process-global). Jobs may mix primes and lengths —
 * this is the (slot x tower) work-queue shape. One timer covers the
 * whole batch. Bit-identical to running each job's forward() serially.
 */
void forwardBatch(const std::vector<NttJob> &jobs,
                  NttVariant v = NttVariant::Butterfly,
                  ThreadPool *pool = nullptr);

/** Inverse-transform every job; mirrors forwardBatch(jobs). */
void inverseBatch(const std::vector<NttJob> &jobs,
                  NttVariant v = NttVariant::Butterfly,
                  ThreadPool *pool = nullptr);

namespace detail
{

void forwardReference(const TwiddleTable &t, u64 *a);
void inverseReference(const TwiddleTable &t, u64 *a);
void forwardButterfly(const TwiddleTable &t, u64 *a);
void inverseButterfly(const TwiddleTable &t, u64 *a);
void forwardGemm(const TwiddleTable &t, u64 *a);
void inverseGemm(const TwiddleTable &t, u64 *a);
void forwardTensor(const TwiddleTable &t, u64 *a);
void inverseTensor(const TwiddleTable &t, u64 *a);

/**
 * Batched TCU NTT: all `count` polynomials fused into single large
 * segment-fusion GEMMs (stage A concatenates the batch column-wise,
 * stage C stacks it row-wise), so the 16-GEMM dispatch and twiddle
 * segments amortize across the batch. Work drains through `pool`
 * (null = process-global).
 */
void forwardTensorBatch(const TwiddleTable &t, u64 *const *polys,
                        std::size_t count, ThreadPool *pool = nullptr);
void inverseTensorBatch(const TwiddleTable &t, u64 *const *polys,
                        std::size_t count, ThreadPool *pool = nullptr);

/** Natural <-> bit-reversed reordering (in place). */
void bitReversePermute(u64 *a, std::size_t n);

} // namespace detail

} // namespace tensorfhe::ntt

#endif // TENSORFHE_NTT_NTT_HH
