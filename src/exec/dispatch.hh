/**
 * @file
 * The unified kernel/dispatch layer (paper SIV-D/E): ONE execution
 * path for every CKKS operation. batch::BatchedEvaluator, the only
 * evaluator, validates its inputs and delegates here; one ciphertext
 * is a batch of one. The Dispatcher flattens each operation over the
 * (batch-slot x tower) space through the span kernels
 * (exec/kernels.hh), checks scratch out of the Workspace arena, and
 * records the executed-operation counters the op-count models are
 * checked against.
 *
 * The Dispatcher also executes the double-hoisted BSGS linear
 * transform (applyBsgs): boot::LinearTransformPlan compiles its
 * diagonals into a BsgsProgram and this layer runs it — see
 * src/exec/README.md for the head-1/head-2 dataflow.
 */

#ifndef TENSORFHE_EXEC_DISPATCH_HH
#define TENSORFHE_EXEC_DISPATCH_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "ckks/context.hh"
#include "ckks/keystore.hh"
#include "exec/kernels.hh"
#include "exec/workspace.hh"

namespace tensorfhe::exec
{

/**
 * The hoisted key-switch head of a batch: digits[j][s] is digit j of
 * batch slot s — Dcomp-scaled, ModUp-extended to the union basis,
 * Eval domain. Buffers are Workspace leases: the head's storage
 * returns to the arena when the batch dies. Dispatcher::hoist fills
 * `table` with the digits' addresses, row after row, which is the
 * row table the key-switch tail's dotRows reads; moving the batch
 * keeps them valid, and a digit may be overwritten in place.
 */
struct HoistedBatch
{
    std::vector<std::vector<Workspace::Pooled>> digits;
    std::size_t levelCount = 0;
    std::vector<const rns::RnsPolynomial *> table; ///< j * batch + s

    std::size_t numDigits() const { return digits.size(); }
    std::size_t
    batch() const
    {
        return digits.empty() ? 0 : digits[0].size();
    }
};

/**
 * A compiled BSGS linear transform: the nonzero diagonals regrouped
 * d = k*g + b, with the per-level encoded diagonal plaintexts
 * (extended to the key-switch union basis) owned by the compiling
 * plan. entry.baby == 0 means the unrotated input; group.shift == 0
 * means no giant rotation.
 */
struct BsgsEntry
{
    s64 baby;
    const ckks::Plaintext *pt; ///< union-basis encoded diagonal
};

struct BsgsGroup
{
    s64 shift;
    std::vector<BsgsEntry> entries;
};

struct BsgsProgram
{
    /** Sorted distinct nonzero baby steps, each needing a raw
        keyswitch tail. */
    std::vector<s64> babySteps;
    std::vector<BsgsGroup> groups;
    /** Rotate-and-add folds closing the transform, in order: after
        the final ModDown pair each adds rot_step of the output onto
        itself, and the RESCALE comes last. */
    std::vector<s64> foldSteps;
};

class Dispatcher
{
  public:
    /**
     * @param keys must outlive the dispatcher; rotation keys are
     *             looked up per step on demand. Wrapped in a static
     *             ckks::KeyStore view internally.
     * @param pool worker pool the flattened dispatches drain through;
     *             null = process-global pool.
     */
    Dispatcher(const ckks::CkksContext &ctx, const ckks::KeyBundle &keys,
               ThreadPool *pool = nullptr);

    /**
     * Route keys through an explicit KeyStore — e.g. an on-demand
     * store that generates rotation keys lazily with LRU eviction,
     * which is how planner-built nets escape the root-stride
     * key-pattern constraint.
     */
    Dispatcher(const ckks::CkksContext &ctx,
               std::shared_ptr<const ckks::KeyStore> store,
               ThreadPool *pool = nullptr);
    /** Unregisters the workspace arena from the metrics registry. */
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    const ckks::CkksContext &context() const { return ctx_; }
    ThreadPool &pool() const { return *kctx_.pool; }
    const KernelCtx &kctx() const { return kctx_; }
    Workspace &workspace() const { return *ws_; }

    /*
     * Elementwise operations, in-place over the output span. Aliasing
     * the input span onto the output span is supported (x += x).
     * Callers validate levels/scales; these record the executed-op
     * counters and run the kernels.
     */
    void addInPlace(ckks::Ciphertext *as, const ckks::Ciphertext *bs,
                    std::size_t batch) const;
    void subInPlace(ckks::Ciphertext *as, const ckks::Ciphertext *bs,
                    std::size_t batch) const;
    void addPlainInPlace(ckks::Ciphertext *as, const ckks::Plaintext &p,
                         std::size_t batch) const;
    /** CMULT; updates each scale to a.scale * p.scale. */
    void multiplyPlainInPlace(ckks::Ciphertext *as,
                              const ckks::Plaintext &p,
                              std::size_t batch) const;

    /**
     * One fused elementwise span pass (graph scheduler output): runs
     * the FusedSpec register program over the batch and records the
     * SAME EvalOpStats counters and scale updates as the member
     * launches it replaces — the modeled-vs-executed op accounting is
     * fusion-invariant. out[s] must be preshaped to the inputs' level
     * count and must not alias any input.
     */
    void fusedElementwise(const FusedSpec &spec, ckks::Ciphertext *out,
                          const ckks::Ciphertext *const *inputs,
                          const ckks::Plaintext *const *pts,
                          std::size_t batch) const;

    /** RESCALE in place (drop last limb, divide scale by q_last). */
    void rescaleInPlace(ckks::Ciphertext *as, std::size_t batch) const;

    /** HMULT + relinearization; result replaces `as`. */
    void multiplyInPlace(ckks::Ciphertext *as, const ckks::Ciphertext *bs,
                         std::size_t batch) const;

    /**
     * Hoisted HROTATE across the batch and the step dimension: one
     * key-switch head per batch slot shared by every step.
     * result[i] = the whole batch rotated by steps[i] (step 0 copies
     * the input). Bit-identical to serial per-(slot, step) rotation.
     */
    std::vector<std::vector<ckks::Ciphertext>>
    rotateMany(const ckks::Ciphertext *as, std::size_t batch,
               const std::vector<s64> &steps) const;

    /** Complex conjugation of every slot (same phases as a rotation). */
    std::vector<ckks::Ciphertext> conjugate(const ckks::Ciphertext *as,
                                            std::size_t batch) const;

    /**
     * Phase 1 of generalized key switching: Dcomp-scale the inputs in
     * place, copy each digit's own limbs into its ModUp output, one
     * INTT of the inputs (none for Coeff inputs), Conv of every digit
     * read in place, and one NTT dispatch over the converted limbs
     * (every union limb for Coeff inputs). Consumes its scratch
     * inputs (any domain; both domains build identical digits).
     */
    HoistedBatch hoist(std::vector<Workspace::Pooled> ds) const;

    /** hoist() of copies of externally-owned polynomials. */
    HoistedBatch hoistCopy(const rns::RnsPolynomial *const *ds,
                           std::size_t batch) const;

    /**
     * Phase 2: inner product against `key` (restricted to the union
     * basis via the context cache) + evaluation-domain ModDown, which
     * transforms only the special limbs and the converted outputs.
     * The outputs are drawn through Workspace::output.
     * @param down optional shared ModDown plan (rotateMany reuses one
     *             across steps).
     */
    std::pair<std::vector<rns::RnsPolynomial>,
              std::vector<rns::RnsPolynomial>>
    keySwitchTail(const HoistedBatch &h, const ckks::SwitchKey &key,
                  const rns::ModDownPlan *down = nullptr) const;

    /**
     * Run a compiled BSGS program with double hoisting: head-1 serves
     * every baby step (raw tails, ModDown deferred — outputs stay on
     * the extended QP basis), diagonal products and giant-group sums
     * accumulate on QP, each nonzero giant step pays one c1-only
     * ModDown + head-2 hoist + raw tail, and ONE final ModDown pair,
     * the program's folds and one RESCALE close the transform. Cuts
     * the per-transform basis conversions from ~2 per keyswitch
     * (2*(baby+giant) ModDowns) to giant + 2, and — with the
     * cost-model-chosen giant stride — the ModUp/hoist count versus
     * the classic sqrt-stride BSGS.
     */
    std::vector<ckks::Ciphertext> applyBsgs(const BsgsProgram &program,
                                            const ckks::Ciphertext *as,
                                            std::size_t batch) const;

    /**
     * Sum of `terms` BSGS programs over distinct inputs, accumulated
     * on the extended QP basis and closed by ONE final ModDown pair +
     * RESCALE — the block-matvec primitive: a multi-ciphertext
     * matvec's out-chunk is sum_j M_{ij} x_j, each addend a compiled
     * program, partial sums never paying their own ModDown.
     * inputs[t * batch + s] is batch slot s of term t; all inputs
     * must share one level and scale, and all programs one fold list
     * (the sum's folds run once, on the summed output).
     */
    std::vector<ckks::Ciphertext>
    applyBsgsSum(const BsgsProgram *const *programs,
                 const ckks::Ciphertext *const *inputs,
                 std::size_t terms, std::size_t batch) const;

  private:
    struct PLift
    {
        std::vector<u64> pmodq;      ///< (P mod q_i) per q-limb
        std::vector<u64> pmodqShoup;
    };
    const PLift &pLift(std::size_t level_count) const;

    /** Raw key-switch tail: inner product only, Eval domain, union
        basis, no ModDown — one dotRows launch over every digit
        writes the preshaped accumulators in full (their prior
        contents are never read). With galois != 1 it reads the key
        pre-permuted by galois^-1 (CkksContext::restrictedKey), so
        permuting the accumulators by galois gives the tail of the
        galois-permuted head. */
    void tailRawInto(const HoistedBatch &h, const ckks::SwitchKey &key,
                     u64 galois, rns::RnsPolynomial *const *acc0,
                     rns::RnsPolynomial *const *acc1) const;

    /**
     * The raw QP tail of the head permuted by `galois`, with the
     * permutation applied once, after the inner product: the tail
     * runs on the unpermuted head into unzeroed scratch, `fold` may
     * add slot-wise terms to its c0 halves, and ONE FrobeniusMap
     * launch permutes the pair into 2*batch unzeroed rows (c0 halves,
     * then c1 halves). The inner product and any fold are slot-wise mod-q
     * operations, so the rows equal the tail of the permuted head
     * plus the permuted fold, bit for bit.
     */
    std::vector<Workspace::Pooled>
    permutedTail(const HoistedBatch &h, const ckks::SwitchKey &key,
                 u64 galois,
                 const std::function<void(rns::RnsPolynomial *const *)>
                     &fold = {}) const;

    /** Evaluation-domain ModDown of 2*batch QP rows (c0 halves, then
        c1 halves) in one batched dispatch, into op outputs. */
    std::pair<std::vector<rns::RnsPolynomial>,
              std::vector<rns::RnsPolynomial>>
    modDownPair(const std::vector<rns::RnsPolynomial *> &qp,
                std::size_t level_count,
                const rns::ModDownPlan *down = nullptr) const;

    /** One Galois automorphism of every polynomial (uniform shape),
        in one FrobeniusMap launch, into unzeroed pooled buffers. */
    std::vector<Workspace::Pooled>
    automorphPooled(const std::vector<const rns::RnsPolynomial *> &polys,
                    u64 galois) const;

    /** The batch mapped by `galois` off the hoisted head of its c1s:
        the permuted tail against `key` and its ModDown, plus the
        permuted c0. The outputs' buffers are drawn from the arena. */
    std::vector<ckks::Ciphertext>
    automorphFromHead(const ckks::Ciphertext *as, std::size_t batch,
                      const HoistedBatch &head, u64 galois,
                      const ckks::SwitchKey &key,
                      const rns::ModDownPlan *down) const;

    /** One zeroed lease per batch slot over `limbs` in `domain`
        (accumulators). */
    std::vector<Workspace::Pooled>
    leaseRow(std::size_t batch, const std::vector<std::size_t> &limbs,
             rns::Domain domain, const char *site) const;

    /** leaseRow() without the zero-fill (Workspace::forOverwrite), for
        rows whose every limb the next kernel writes. */
    std::vector<Workspace::Pooled>
    overwriteRow(std::size_t batch, const std::vector<std::size_t> &limbs,
                 rns::Domain domain, const char *site) const;

    /** One unzeroed op output per batch slot (Workspace::output). */
    std::vector<rns::RnsPolynomial>
    outputRow(std::size_t batch, const std::vector<std::size_t> &limbs,
              rns::Domain domain) const;

    /** The rotation key of one BSGS step, pinned against KeyStore
        LRU eviction for the caller's use. */
    std::shared_ptr<const ckks::SwitchKey> stepKey(s64 step) const;

    /** Baby-step tail tables of one input batch: per step the raw
        (ModDown-deferred) keyswitch pair on the union basis, plus the
        P-lifted b = 0 term. Each pair is one row of 2*batch
        polynomials: the c0 halves, then the c1 halves. */
    struct BabyTables
    {
        std::vector<s64> steps; ///< sorted
        std::vector<std::vector<Workspace::Pooled>> T; ///< per step
        std::vector<std::vector<rns::RnsPolynomial *>> Tp;
        std::vector<Workspace::Pooled> B; ///< the b = 0 pair
        std::vector<rns::RnsPolynomial *> Bp;
        bool hasB0 = false;
        std::size_t levelCount = 0;
        std::size_t batch = 0;

        std::pair<rns::RnsPolynomial *const *,
                  rns::RnsPolynomial *const *>
        pair(s64 baby) const;
    };

    /** Build the tables: one hoisted head, one raw tail per step
        (head-1 of the double-hoisted schedule). */
    BabyTables buildBabyTables(const std::vector<s64> &steps,
                               bool need_b0,
                               const ckks::Ciphertext *const *as,
                               std::size_t batch) const;

    /** Accumulate one program's diagonal products + giant steps off
        prebuilt baby tables into the shared QP accumulator pair; the
        single final ModDown is the caller's. `first_group` spans
        programs so the inter-group HAdd accounting stays exact
        across a sum. */
    void accumulateGroups(const BsgsProgram &program,
                          const BabyTables &tables, std::size_t batch,
                          rns::RnsPolynomial *const *G0p,
                          rns::RnsPolynomial *const *G1p,
                          bool &first_group) const;

    /** The single final ModDown pair, the fold steps and the
        RESCALE closing a transform. */
    std::vector<ckks::Ciphertext>
    finalizeBsgs(rns::RnsPolynomial *const *G0p,
                 rns::RnsPolynomial *const *G1p, std::size_t batch,
                 std::size_t level_count, double out_scale,
                 const std::vector<s64> &folds) const;

    const ckks::CkksContext &ctx_;
    std::shared_ptr<const ckks::KeyStore> store_;
    KernelCtx kctx_;
    std::unique_ptr<Workspace> ws_;
    mutable std::mutex pliftMu_;
    mutable std::map<std::size_t, PLift> plift_;
};

} // namespace tensorfhe::exec

#endif // TENSORFHE_EXEC_DISPATCH_HH
