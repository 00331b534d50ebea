/**
 * @file
 * Unified-dispatch tests: the serial Evaluator and BatchedEvaluator
 * are the same execution path (batch = 1 degenerate case), in-place
 * ops tolerate aliasing, the Workspace arena stays allocator-free in
 * steady state, the double-hoisted BSGS drops basis conversions with
 * exact counter accounting, CMULT + RESCALE launches its closed-form
 * kernel queue, and the kernel queue the layer emits can be replayed
 * on the SM pipeline model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "batch/executor.hh"
#include "boot/linear.hh"
#include "ckks/crypto.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "gpu/pipeline.hh"

namespace tensorfhe::exec
{
namespace
{

void
expectPolyEq(const rns::RnsPolynomial &x, const rns::RnsPolynomial &y)
{
    ASSERT_EQ(x.numLimbs(), y.numLimbs());
    for (std::size_t i = 0; i < x.numLimbs(); ++i) {
        const u64 *px = x.limb(i);
        const u64 *py = y.limb(i);
        for (std::size_t c = 0; c < x.n(); ++c)
            ASSERT_EQ(px[c], py[c]) << "limb " << i << " coeff " << c;
    }
}

void
expectCtEq(const ckks::Ciphertext &a, const ckks::Ciphertext &b)
{
    expectPolyEq(a.c0, b.c0);
    expectPolyEq(a.c1, b.c1);
    EXPECT_DOUBLE_EQ(a.scale, b.scale);
}

/** A sparse matrix touching baby-only, giant-only and mixed diags. */
boot::SlotMatrix
sparseMatrix(std::size_t slots, u64 seed)
{
    std::vector<std::size_t> ds = {0, 1, 5, 17, 100, slots - 1};
    Rng r(seed);
    boot::SlotMatrix m(slots,
                       std::vector<ckks::Complex>(slots,
                                                  ckks::Complex(0, 0)));
    for (std::size_t d : ds) {
        if (d >= slots)
            continue;
        for (std::size_t j = 0; j < slots; ++j)
            m[j][(j + d) % slots] = ckks::Complex(
                r.uniformReal() - 0.5, r.uniformReal() - 0.5);
    }
    return m;
}

struct ExecFixture
{
    ExecFixture()
        : ctx(ckks::Presets::tiny()), rng(77),
          sk(ctx.generateSecretKey(rng)),
          plan(ctx, sparseMatrix(ctx.slots(), 5)),
          keys(ctx.generateKeys(sk, rng, plan.requiredRotations())),
          enc(ctx, keys.pk), dec(ctx, sk), eval(ctx, keys)
    {}

    ckks::Ciphertext
    encryptSlots(u64 seed, std::size_t lc)
    {
        Rng r(seed);
        std::vector<ckks::Complex> z(ctx.slots());
        for (auto &v : z)
            v = ckks::Complex(r.uniformReal() - 0.5,
                              r.uniformReal() - 0.5);
        return enc.encrypt(
            ctx.encoder().encode(z, ctx.params().scale(), lc), rng);
    }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::SecretKey sk;
    boot::LinearTransformPlan plan;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    ckks::Decryptor dec;
    ckks::Evaluator eval;
};

ExecFixture &
fx()
{
    static ExecFixture f;
    return f;
}

TEST(ExecDispatch, AddInPlaceAliasingSelfOnOneThreadPool)
{
    // x += x must equal add(x, x) even when the output span IS the
    // input span, under both the global pool and a 1-worker pool,
    // for non-power-of-two batch sizes.
    auto &f = fx();
    ThreadPool one(1);
    for (ThreadPool *pool : {&ThreadPool::global(), &one}) {
        batch::BatchedEvaluator beval(f.ctx, f.keys, pool);
        for (std::size_t batch : {std::size_t(1), std::size_t(3),
                                  std::size_t(5)}) {
            std::vector<ckks::Ciphertext> cts;
            for (std::size_t s = 0; s < batch; ++s)
                cts.push_back(f.encryptSlots(100 + s, 3));
            auto expect = beval.add(cts, cts);
            auto aliased = cts;
            beval.addInPlace(aliased, aliased);
            for (std::size_t s = 0; s < batch; ++s)
                expectCtEq(aliased[s], expect[s]);
        }
    }
}

TEST(ExecDispatch, RescaleIntoSelfMatchesScalarPerSlot)
{
    auto &f = fx();
    ThreadPool one(1);
    batch::BatchedEvaluator beval(f.ctx, f.keys, &one);
    std::vector<ckks::Ciphertext> cts;
    for (std::size_t s = 0; s < 3; ++s)
        cts.push_back(f.encryptSlots(200 + s, 3));
    auto in_place = cts;
    beval.rescaleInPlace(in_place);
    for (std::size_t s = 0; s < cts.size(); ++s)
        expectCtEq(in_place[s], f.eval.rescale(cts[s]));
}

TEST(ExecDispatch, CmultThenRescaleQueueMatchesClosedForm)
{
    // CMULT + RESCALE is the two-step multiplyPlain -> rescale pair.
    // Its launches in closed form: CMULT touches both components of
    // every limb (2BLn), the rescale INTTs all L limbs (2BLn) and NTTs
    // the surviving L-1 (2B(L-1)n). The breakdown benches replay these
    // queues, so a rescale that changes its transforms must update
    // this model on purpose.
    auto &f = fx();
    constexpr std::size_t kBatch = 3;
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    std::vector<ckks::Ciphertext> cts;
    for (std::size_t s = 0; s < kBatch; ++s)
        cts.push_back(f.encryptSlots(700 + s, 3));
    Rng r(9);
    std::vector<ckks::Complex> z(f.ctx.slots());
    for (auto &v : z)
        v = ckks::Complex(r.uniformReal() - 0.5, r.uniformReal() - 0.5);
    auto pt = f.ctx.encoder().encode(z, f.ctx.params().scale(), 3);

    std::size_t L = cts[0].levelCount();
    std::size_t n = cts[0].c0.n();
    KernelStats::QueueCapture cap;
    (void)beval.rescale(beval.multiplyPlain(cts, pt));
    auto queue = cap.take();

    ASSERT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue[0].kind, KernelKind::HadaMult);
    EXPECT_EQ(queue[0].elements, 2 * kBatch * L * n);
    EXPECT_EQ(queue[1].kind, KernelKind::Intt);
    EXPECT_EQ(queue[1].elements, 2 * kBatch * L * n);
    EXPECT_EQ(queue[2].kind, KernelKind::Ntt);
    EXPECT_EQ(queue[2].elements, 2 * kBatch * (L - 1) * n);
}

TEST(ExecDispatch, SerialAndBatchedShareOneExecutionPathBitForBit)
{
    auto &f = fx();
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    std::vector<ckks::Ciphertext> a, b;
    for (std::size_t s = 0; s < 3; ++s) {
        a.push_back(f.encryptSlots(300 + s, 3));
        b.push_back(f.encryptSlots(310 + s, 3));
    }
    auto prod = beval.multiply(a, b);
    auto rots = beval.rotateManyBatch(a, {0, 1, 5});
    for (std::size_t s = 0; s < a.size(); ++s) {
        expectCtEq(prod[s], f.eval.multiply(a[s], b[s]));
        expectCtEq(rots[1][s], f.eval.rotate(a[s], 1));
        expectCtEq(rots[2][s], f.eval.rotate(a[s], 5));
    }
}

TEST(ExecDispatch, BsgsBatchedBitIdenticalToSerialApply)
{
    auto &f = fx();
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    std::vector<ckks::Ciphertext> cts;
    for (std::size_t s = 0; s < 3; ++s)
        cts.push_back(f.encryptSlots(400 + s, 3));
    auto batched = f.plan.applyBatch(beval, cts);
    for (std::size_t s = 0; s < cts.size(); ++s)
        expectCtEq(batched[s], f.plan.apply(f.eval, cts[s]));
}

TEST(ExecDispatch, DoubleHoistedBsgsConversionAccounting)
{
    // The deferred-ModDown schedule: baby tails pay NO ModDown, each
    // nonzero giant step pays exactly one (c1-only), the final pair
    // closes the transform, and the rescale adds none. The classic
    // single-hoisted schedule paid 2 ModDowns per keyswitch —
    // 2 * (baby + giant) — plus the same ModUp work.
    auto &f = fx();
    auto ct = f.encryptSlots(42, 3);
    double baby = static_cast<double>(f.plan.babyStepCount());
    double giant = static_cast<double>(f.plan.giantStepCount());
    ASSERT_GT(baby, 0);
    ASSERT_GT(giant, 0);

    auto &stats = EvalOpStats::instance();
    stats.reset();
    (void)f.plan.apply(f.eval, ct);
    auto snap = stats.snapshot();

    EXPECT_EQ(snap.ksHoist, 1 + giant);
    EXPECT_EQ(snap.ksTail, baby + giant);
    EXPECT_EQ(snap.hrotate, baby + giant);
    EXPECT_EQ(snap.cmult,
              static_cast<double>(f.plan.diagonalCount()));
    EXPECT_EQ(snap.rescale, 1.0);

    double modDowns = static_cast<double>(stats.modDowns());
    EXPECT_EQ(modDowns, giant + 2);
    EXPECT_LT(modDowns, 2 * (baby + giant)); // the drop vs classic
    // ModUp work: digits per hoist, (1 head-1) + giant head-2s.
    std::size_t alpha = f.ctx.params().alpha();
    double digits = std::ceil(3.0 / static_cast<double>(alpha));
    EXPECT_EQ(static_cast<double>(stats.modUps()),
              digits * (1 + giant));
}

TEST(ExecDispatch, WorkspaceStaysAllocatorFreeInSteadyState)
{
    auto &f = fx();
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    std::vector<ckks::Ciphertext> cts;
    for (std::size_t s = 0; s < 3; ++s)
        cts.push_back(f.encryptSlots(500 + s, 3));

    auto &ws = beval.dispatcher().workspace();
    // Warm-up round populates the arena buckets.
    (void)beval.rotateManyBatch(cts, {1, 5});
    ws.resetStats();
    for (int round = 0; round < 3; ++round)
        (void)beval.rotateManyBatch(cts, {1, 5});
    auto s = ws.stats();
    EXPECT_GT(s.reuses, 0u);
    EXPECT_GT(s.reuseRate(), 0.9)
        << "allocs " << s.allocs << " reuses " << s.reuses;
}

TEST(ExecDispatch, KernelQueueReplaysOnPipelineModel)
{
    auto &f = fx();
    auto a = f.encryptSlots(600, 3);
    auto b = f.encryptSlots(601, 3);
    auto &ks = KernelStats::instance();
    ks.startQueue();
    (void)f.eval.multiply(a, b);
    auto queue = ks.stopQueue();
    ASSERT_FALSE(queue.empty());

    bool saw_ntt = false, saw_hada = false;
    for (const auto &launch : queue) {
        saw_ntt = saw_ntt
            || launch.kind == KernelKind::Ntt
            || launch.kind == KernelKind::Intt;
        saw_hada = saw_hada || launch.kind == KernelKind::HadaMult;
    }
    EXPECT_TRUE(saw_ntt);
    EXPECT_TRUE(saw_hada);

    // Replayed as one stream in recorded order.
    std::vector<gpu::ScheduledLaunch> serial;
    for (const auto &launch : queue)
        serial.push_back({launch, 0, {}});
    auto replay = gpu::replayScheduledQueue(serial, 1 << 10);
    ASSERT_EQ(replay.perLaunch.size(), queue.size());
    auto total = gpu::sumBreakdowns(replay.perLaunch);
    EXPECT_GT(total.totalCycles, 0u);
    EXPECT_GT(total.issuedCycles, 0u);
    EXPECT_EQ(replay.makespanCycles, replay.serialCycles);
    // Replay is deterministic.
    auto again = gpu::replayScheduledQueue(serial, 1 << 10);
    EXPECT_EQ(gpu::sumBreakdowns(again.perLaunch).totalCycles,
              total.totalCycles);
}

} // namespace
} // namespace tensorfhe::exec
