/**
 * @file
 * Unified-dispatch tests: a one-element batch and a wider batch take
 * the same execution path (bit for bit per slot), in-place
 * ops tolerate aliasing, the Workspace arena stays allocator-free in
 * steady state, the double-hoisted BSGS drops basis conversions with
 * exact counter accounting, CMULT + RESCALE and HMULT + RESCALE launch
 * their closed-form transforms, rotations and BSGS steps launch their
 * closed-form FrobeniusMaps, a key switch and a BSGS group each sum
 * their rows in one Hada-Mult launch, dotRows reads the full-tower
 * key by tower index at every level, a missing key fails cleanly
 * and the bundle is read in place, never written, and shared by
 * evaluators on concurrent threads, both hoist input domains build
 * the same digits, unzeroed scratch is always written in full, and
 * the kernel queue the layer emits can be replayed on the SM
 * pipeline model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "../ct_eq.hh"
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

using test::expectCtEq;
using test::expectPolyEq;

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
    batch::BatchedEvaluator eval;
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
        expectCtEq(in_place[s], beval.rescale({cts[s]})[0]);
}

TEST(ExecDispatch, CmultThenRescaleQueueMatchesClosedForm)
{
    // CMULT + RESCALE is the two-step multiplyPlain -> rescale pair.
    // Its launches in closed form: CMULT touches both components of
    // every limb (2BLn); the evaluation-domain rescale INTTs only the
    // last limb of each component (2Bn) and NTTs its lifts into the
    // surviving L-1 (2B(L-1)n). The breakdown benches replay these
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
    EXPECT_EQ(queue[1].elements, 2 * kBatch * n);
    EXPECT_EQ(queue[2].kind, KernelKind::Ntt);
    EXPECT_EQ(queue[2].elements, 2 * kBatch * (L - 1) * n);
}

TEST(ExecDispatch, HmultThenRescaleQueueMatchesClosedForm)
{
    // The transforms of HMULT + RESCALE in closed form, with dnum
    // digits over L limbs and K special primes. The hoist INTTs its
    // Eval input once (BLn) and NTTs only the converted limbs of each
    // digit (B(dnum(L+K) - L)n); the evaluation-domain ModDown INTTs
    // the K special limbs of both accumulators (2BKn) and NTTs the L
    // converted limbs (2BLn); the rescale INTTs one limb per component
    // (2Bn) and NTTs its L-1 lifts (2B(L-1)n). No other launch is a
    // transform.
    auto &f = fx();
    constexpr std::size_t kBatch = 3;
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    std::vector<ckks::Ciphertext> a, b;
    for (std::size_t s = 0; s < kBatch; ++s) {
        a.push_back(f.encryptSlots(720 + s, 3));
        b.push_back(f.encryptSlots(730 + s, 3));
    }
    std::size_t L = a[0].levelCount();
    std::size_t n = a[0].c0.n();
    std::size_t K = f.ctx.tower().numP();
    std::size_t alpha = f.ctx.params().alpha();
    std::size_t dnum = (L + alpha - 1) / alpha;

    KernelStats::QueueCapture cap;
    (void)beval.rescale(beval.multiply(a, b));
    std::vector<KernelLaunch> transforms;
    for (const auto &launch : cap.take())
        if (launch.kind == KernelKind::Ntt
            || launch.kind == KernelKind::Intt)
            transforms.push_back(launch);

    struct Expect
    {
        KernelKind kind;
        std::size_t elements;
    };
    const Expect expect[] = {
        {KernelKind::Intt, kBatch * L * n},
        {KernelKind::Ntt, kBatch * (dnum * (L + K) - L) * n},
        {KernelKind::Intt, 2 * kBatch * K * n},
        {KernelKind::Ntt, 2 * kBatch * L * n},
        {KernelKind::Intt, 2 * kBatch * n},
        {KernelKind::Ntt, 2 * kBatch * (L - 1) * n},
    };
    ASSERT_EQ(transforms.size(), std::size(expect));
    for (std::size_t i = 0; i < transforms.size(); ++i) {
        EXPECT_EQ(transforms[i].kind, expect[i].kind) << "transform " << i;
        EXPECT_EQ(transforms[i].elements, expect[i].elements)
            << "transform " << i;
    }
}

TEST(ExecDispatch, FrobeniusMapQueueMatchesClosedForm)
{
    // Every key-switching automorphism permutes once, after the inner
    // product: the QP pair of each step (2B(L+K)n) is the only
    // permuted key-switch data. rotateMany and conjugate also permute
    // c0 (BLn); a BSGS baby or giant step folds its c0 term into the
    // pair first, so it makes one launch. No launch scales with dnum:
    // permuting the hoisted head instead would move dnum*B(L+K)n.
    auto &f = fx();
    constexpr std::size_t kBatch = 3;
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    std::vector<ckks::Ciphertext> cts;
    for (std::size_t s = 0; s < kBatch; ++s)
        cts.push_back(f.encryptSlots(740 + s, 3));
    std::size_t L = cts[0].levelCount();
    std::size_t n = cts[0].c0.n();
    std::size_t K = f.ctx.tower().numP();
    std::size_t dnum = (L + f.ctx.params().alpha() - 1)
        / f.ctx.params().alpha();
    ASSERT_GT(dnum, 2u);
    std::size_t pair = 2 * kBatch * (L + K) * n;

    auto frobenius = [](std::vector<KernelLaunch> queue) {
        std::vector<std::size_t> elements;
        for (const auto &launch : queue)
            if (launch.kind == KernelKind::FrobeniusMap)
                elements.push_back(launch.elements);
        return elements;
    };
    std::vector<s64> steps = {1, 5};
    std::vector<std::size_t> per_rotation;
    for (std::size_t i = 0; i < steps.size() + 1; ++i) {
        per_rotation.push_back(pair);
        per_rotation.push_back(kBatch * L * n);
    }
    {
        KernelStats::QueueCapture cap;
        (void)beval.rotateManyBatch(cts, steps);
        (void)beval.dispatcher().conjugate(cts.data(), kBatch);
        EXPECT_EQ(frobenius(cap.take()), per_rotation);
    }
    {
        KernelStats::QueueCapture cap;
        (void)f.plan.applyBatch(beval, cts);
        std::size_t steps_run =
            f.plan.babyStepCount() + f.plan.giantStepCount();
        ASSERT_GT(f.plan.giantStepCount(), 0u);
        EXPECT_EQ(frobenius(cap.take()),
                  std::vector<std::size_t>(steps_run, pair));
    }
}

TEST(ExecDispatch, HadaMultLaunchesOncePerKeySwitchAndPerBsgsGroup)
{
    // An inner product sums all its rows in one dotRows launch: a
    // key-switch tail makes ONE Hada-Mult launch over its dnum digit
    // rows and a BSGS group ONE over its entries, each recording the
    // 2 * rows * B * (L+K) * n elements of the per-row launches it
    // replaced. The only other Hada-Mult launches of a transform are
    // the P-lifts of c0 (BLn): one per baby step, two for b = 0.
    auto &f = fx();
    constexpr std::size_t kBatch = 3;
    batch::BatchedEvaluator beval(f.ctx, f.keys);
    const auto &disp = beval.dispatcher();
    std::vector<ckks::Ciphertext> cts;
    for (std::size_t s = 0; s < kBatch; ++s)
        cts.push_back(f.encryptSlots(760 + s, 3));
    std::size_t L = cts[0].levelCount();
    std::size_t n = cts[0].c0.n();
    std::size_t ul = L + f.ctx.tower().numP();
    std::size_t dnum = (L + f.ctx.params().alpha() - 1)
        / f.ctx.params().alpha();
    ASSERT_GT(dnum, 1u);
    u64 per_row = 2 * kBatch * ul * n;

    using Delta = std::pair<u64, u64>; // launches, elements
    const auto &hada =
        KernelStats::instance().counter(KernelKind::HadaMult);
    auto delta = [&](const std::function<void()> &run) {
        u64 calls = hada.invocations.load();
        u64 elements = hada.elements.load();
        run();
        return Delta{hada.invocations.load() - calls,
                     hada.elements.load() - elements};
    };

    std::vector<const rns::RnsPolynomial *> c1s;
    for (const auto &ct : cts)
        c1s.push_back(&ct.c1);
    auto head = disp.hoistCopy(c1s.data(), kBatch);
    EXPECT_EQ(delta([&] {
                  (void)disp.keySwitchTail(head, f.keys.relin);
              }),
              (Delta{1, dnum * per_row}));

    auto program = f.plan.program(L);
    ASSERT_TRUE(program.foldSteps.empty());
    Delta want{0, 0};
    std::size_t tails = program.babySteps.size(), widest = 0;
    bool b0 = false;
    for (const auto &g : program.groups) {
        want.first += 1;
        want.second += g.entries.size() * per_row;
        widest = std::max(widest, g.entries.size());
        tails += g.shift != 0;
        for (const auto &e : g.entries)
            b0 = b0 || e.baby == 0;
    }
    ASSERT_GT(widest, 1u);
    std::size_t lifts = program.babySteps.size() + (b0 ? 2 : 0);
    want.first += tails + lifts;
    want.second += tails * dnum * per_row + lifts * kBatch * L * n;
    EXPECT_EQ(delta([&] { (void)f.plan.applyBatch(beval, cts); }), want);
}

TEST(ExecDispatch, DotRowsReadsWiderRowsByTowerIndex)
{
    // A key-switch tail hands dotRows the full-tower key in place:
    // every (slot, limb) task must read each row's limb of the
    // accumulator's tower index, so at every level the call equals
    // the same call on copies restricted to the union basis.
    auto &f = fx();
    const auto &tower = f.ctx.tower();
    KernelCtx kctx(&ThreadPool::global());
    constexpr std::size_t kRows = 3, kBatch = 2;
    std::vector<std::size_t> full(tower.numTotal());
    std::iota(full.begin(), full.end(), std::size_t{0});
    Rng rng(88);
    for (std::size_t lc = 2; lc <= tower.numQ(); ++lc) {
        SCOPED_TRACE("level count " + std::to_string(lc));
        auto union_limbs = f.ctx.unionLimbs(lc);
        std::vector<rns::RnsPolynomial> u, b, a, b_cut, a_cut;
        auto restrict = [&](const rns::RnsPolynomial &p) {
            rns::RnsPolynomial out(tower, union_limbs, rns::Domain::Eval);
            for (std::size_t i = 0; i < union_limbs.size(); ++i)
                std::copy(p.limb(union_limbs[i]),
                          p.limb(union_limbs[i]) + p.n(), out.limb(i));
            return out;
        };
        for (std::size_t k = 0; k < kRows * kBatch; ++k) {
            u.push_back(rns::sampleUniform(tower, union_limbs,
                                           rns::Domain::Eval, rng));
            b.push_back(rns::sampleUniform(tower, full, rns::Domain::Eval,
                                           rng));
            a.push_back(rns::sampleUniform(tower, full, rns::Domain::Eval,
                                           rng));
            b_cut.push_back(restrict(b.back()));
            a_cut.push_back(restrict(a.back()));
        }
        auto ptrs = [](const std::vector<rns::RnsPolynomial> &v) {
            std::vector<const rns::RnsPolynomial *> out;
            for (const auto &p : v)
                out.push_back(&p);
            return out;
        };
        auto run = [&](const std::vector<rns::RnsPolynomial> &kb,
                       const std::vector<rns::RnsPolynomial> &ka) {
            std::vector<rns::RnsPolynomial> acc;
            for (std::size_t s = 0; s < 2 * kBatch; ++s) {
                acc.emplace_back(tower, union_limbs, rns::Domain::Eval);
                for (std::size_t i = 0; i < union_limbs.size(); ++i)
                    std::fill(acc.back().limb(i),
                              acc.back().limb(i) + acc.back().n(),
                              ~u64(0));
            }
            std::vector<rns::RnsPolynomial *> accp;
            for (auto &p : acc)
                accp.push_back(&p);
            dotRows(kctx, accp.data(), accp.data() + kBatch,
                    ptrs(u).data(), ptrs(kb).data(), ptrs(ka).data(),
                    kRows, kBatch);
            return acc;
        };
        auto wide = run(b, a);
        auto cut = run(b_cut, a_cut);
        for (std::size_t s = 0; s < 2 * kBatch; ++s)
            expectPolyEq(wide[s], cut[s]);
    }
}

TEST(ExecDispatch, MissingKeyThrowsCleanlyAndTheBundleIsReadInPlace)
{
    // A rotation or BSGS step whose key the bundle lacks throws
    // std::invalid_argument naming the step and returns every lease;
    // once the caller puts the key back into its bundle, the same
    // evaluator reads it in place and runs bit for bit as before.
    auto &f = fx();
    ckks::KeyBundle keys = f.keys;
    batch::BatchedEvaluator beval(f.ctx, keys);
    auto &ws = beval.dispatcher().workspace();
    ws.setLeaseTracking(true);
    std::vector<ckks::Ciphertext> cts;
    for (std::size_t s = 0; s < 2; ++s)
        cts.push_back(f.encryptSlots(780 + s, 3));

    auto program = f.plan.program(cts[0].levelCount());
    ASSERT_FALSE(program.babySteps.empty());
    s64 giant = 0;
    for (const auto &g : program.groups)
        giant = g.shift != 0 ? g.shift : giant;
    ASSERT_NE(giant, 0);
    s64 baby = program.babySteps.back();
    using Run = std::function<std::vector<ckks::Ciphertext>()>;
    Run rotate = [&] { return beval.rotate(cts, baby); };
    Run bsgs = [&] { return f.plan.applyBatch(beval, cts); };
    for (auto [step, run] : {std::pair{baby, rotate},
                             std::pair{baby, bsgs},
                             std::pair{giant, bsgs}}) {
        SCOPED_TRACE("missing step " + std::to_string(step));
        auto want = run();
        auto node = keys.rot.extract(step);
        ASSERT_FALSE(node.empty());
        try {
            (void)run();
            ADD_FAILURE() << "no exception for a missing key";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "step " + std::to_string(step)),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(ws.outstandingLeases(), 0u);
        keys.rot.insert(std::move(node));
        auto got = run();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t s = 0; s < want.size(); ++s)
            expectCtEq(got[s], want[s]);
    }
}

void
expectKeysEqual(const ckks::SwitchKey &x, const ckks::SwitchKey &y)
{
    ASSERT_EQ(x.digits(), y.digits());
    for (std::size_t j = 0; j < y.digits(); ++j) {
        SCOPED_TRACE("digit " + std::to_string(j));
        expectPolyEq(x.b[j], y.b[j]);
        expectPolyEq(x.a[j], y.a[j]);
    }
}

TEST(ExecDispatch, EvaluationNeverWritesTheKeyBundle)
{
    // No key switch copies its key: every tail reads the caller's
    // bundle in place. A multiply, rotations, a conjugation and a
    // BSGS transform at the lowest and the top BSGS level must leave
    // every key word as generated.
    auto &f = fx();
    const ckks::KeyBundle before = f.keys;
    std::vector<s64> steps;
    for (const auto &[step, key] : f.keys.rot)
        if (steps.size() < 3)
            steps.push_back(step);
    for (std::size_t lc : {std::size_t(2), f.ctx.tower().numQ()}) {
        std::vector<ckks::Ciphertext> cts = {f.encryptSlots(800 + lc, lc),
                                             f.encryptSlots(810 + lc, lc)};
        (void)f.eval.multiply(cts, cts);
        (void)f.eval.rotateManyBatch(cts, steps);
        (void)f.eval.dispatcher().conjugate(cts.data(), cts.size());
        (void)f.plan.applyBatch(f.eval, cts);
    }
    {
        SCOPED_TRACE("relinearization key");
        expectKeysEqual(f.keys.relin, before.relin);
    }
    {
        SCOPED_TRACE("conjugation key");
        expectKeysEqual(f.keys.conj, before.conj);
    }
    ASSERT_EQ(f.keys.rot.size(), before.rot.size());
    for (const auto &[step, key] : before.rot) {
        SCOPED_TRACE("rotation key " + std::to_string(step));
        expectKeysEqual(f.keys.rot.at(step), key);
    }
}

TEST(ExecDispatch, EvaluatorsOnTwoThreadsShareOneBundle)
{
    // The bundle is the one copy of the keys and holds no mutable
    // state: two evaluators over it, each on its own thread and
    // pool, rotate, conjugate and run a BSGS transform at the same
    // time and match the fixture's evaluator bit for bit.
    auto &f = fx();
    std::vector<ckks::Ciphertext> cts = {f.encryptSlots(830, 3),
                                         f.encryptSlots(831, 3)};
    s64 step = f.keys.rot.begin()->first;
    auto run = [&](const batch::BatchedEvaluator &ev) {
        auto out = ev.rotate(cts, step);
        auto conj = ev.dispatcher().conjugate(cts.data(), cts.size());
        auto bsgs = f.plan.applyBatch(ev, cts);
        out.insert(out.end(), conj.begin(), conj.end());
        out.insert(out.end(), bsgs.begin(), bsgs.end());
        return out;
    };
    auto want = run(f.eval);

    ThreadPool pool_a(0), pool_b(0);
    batch::BatchedEvaluator eval_a(f.ctx, f.keys, &pool_a);
    batch::BatchedEvaluator eval_b(f.ctx, f.keys, &pool_b);
    std::vector<ckks::Ciphertext> got_a, got_b;
    std::exception_ptr err_a, err_b;
    auto guarded = [&](const batch::BatchedEvaluator &ev,
                       std::vector<ckks::Ciphertext> &got,
                       std::exception_ptr &err) {
        try {
            got = run(ev);
        } catch (...) {
            err = std::current_exception();
        }
    };
    std::thread ta(guarded, std::cref(eval_a), std::ref(got_a),
                   std::ref(err_a));
    std::thread tb(guarded, std::cref(eval_b), std::ref(got_b),
                   std::ref(err_b));
    ta.join();
    tb.join();
    ASSERT_FALSE(err_a) << "evaluator a threw";
    ASSERT_FALSE(err_b) << "evaluator b threw";
    for (const auto *got : {&got_a, &got_b}) {
        ASSERT_EQ(got->size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            expectCtEq((*got)[i], want[i]);
    }
}

TEST(ExecDispatch, HoistOfEvalAndCoeffInputsGivesIdenticalDigits)
{
    // Relinearization and rotations hoist Eval-domain inputs, whose
    // digit limbs are copied in Eval so only the converted limbs take
    // the NTT; BSGS giant steps hoist a Coeff-domain ModDown output and
    // NTT every union limb. Both must build the same head, with
    // one-limb digits (K = 1) and two-limb digits (K = 2).
    for (int dnum : {0, 2}) {
        ckks::CkksParams p = ckks::Presets::tiny();
        p.dnum = dnum;
        p.special = p.minSpecial();
        ckks::CkksContext ctx(p);
        Rng rng(41);
        auto sk = ctx.generateSecretKey(rng);
        auto keys = ctx.generateKeys(sk, rng, {});
        Dispatcher disp(ctx, keys);
        std::size_t lc = 3;
        std::size_t alpha = p.alpha();
        for (std::size_t batch : {std::size_t(1), std::size_t(3)}) {
            SCOPED_TRACE("dnum " + std::to_string(dnum) + ", batch "
                         + std::to_string(batch));
            std::vector<rns::RnsPolynomial> evals, coeffs;
            for (std::size_t s = 0; s < batch; ++s) {
                evals.push_back(rns::sampleUniform(
                    ctx.tower(), ctx.qLimbs(lc), rns::Domain::Eval, rng));
                coeffs.push_back(evals.back());
                coeffs.back().toCoeff(ctx.nttVariant());
            }
            std::vector<const rns::RnsPolynomial *> eval_ptrs, coeff_ptrs;
            for (std::size_t s = 0; s < batch; ++s) {
                eval_ptrs.push_back(&evals[s]);
                coeff_ptrs.push_back(&coeffs[s]);
            }
            auto from_eval = disp.hoistCopy(eval_ptrs.data(), batch);
            auto from_coeff = disp.hoistCopy(coeff_ptrs.data(), batch);
            ASSERT_EQ(from_eval.numDigits(), (lc + alpha - 1) / alpha);
            ASSERT_EQ(from_coeff.numDigits(), from_eval.numDigits());
            for (std::size_t j = 0; j < from_eval.numDigits(); ++j)
                for (std::size_t s = 0; s < batch; ++s) {
                    const auto &x = *from_eval.digits[j][s];
                    const auto &y = *from_coeff.digits[j][s];
                    EXPECT_EQ(x.domain(), rns::Domain::Eval);
                    EXPECT_EQ(y.domain(), rns::Domain::Eval);
                    EXPECT_EQ(x.limbIndices(), ctx.unionLimbs(lc));
                    expectPolyEq(x, y);
                }
        }
    }
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
        expectCtEq(prod[s], beval.multiply({a[s]}, {b[s]})[0]);
        expectCtEq(rots[1][s], beval.rotate({a[s]}, 1)[0]);
        expectCtEq(rots[2][s], beval.rotate({a[s]}, 5)[0]);
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
        expectCtEq(batched[s], f.plan.applyBatch(beval, {cts[s]})[0]);
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
    (void)f.plan.applyBatch(f.eval, {ct});
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
    (void)f.eval.multiply({a}, {b});
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

// ------------------------------------------------------------------
// Unzeroed scratch is always written in full. Hoist copies, ModUp
// outputs, product rows, rescale lifts and automorphism outputs come
// from Workspace::forOverwrite and op outputs from Workspace::output;
// neither zeroes a reused buffer. Every pooled buffer of a warm arena
// is filled with the ~0 sentinel, which is never a residue, right
// before each step runs again: a cell some kernel read before writing
// would carry the sentinel into the result, which must match a
// fresh-arena run bit for bit.

using Cts = std::vector<ckks::Ciphertext>;
using Step =
    std::function<Cts(const batch::BatchedEvaluator &, const Cts &)>;

/**
 * `steps` chained from three fresh ciphertexts on a fresh arena,
 * against the same chain on a warm arena poisoned before every step:
 * each step's checkouts then meet the sentinel wherever they reuse a
 * buffer, not stale residues an earlier step left there.
 */
void
expectPoisonedArenaMatchesFresh(const std::vector<Step> &steps)
{
    auto &f = fx();
    Cts input;
    for (std::size_t s = 0; s < 3; ++s)
        input.push_back(f.encryptSlots(900 + s, 3));
    auto chain = [&](const batch::BatchedEvaluator &e, bool poison) {
        Cts x = input;
        for (const auto &step : steps) {
            if (poison)
                e.dispatcher().workspace().poison(~u64(0));
            x = step(e, x);
        }
        return x;
    };
    batch::BatchedEvaluator fresh(f.ctx, f.keys);
    Cts want = chain(fresh, false);

    batch::BatchedEvaluator warm(f.ctx, f.keys);
    (void)chain(warm, false); // the arena now holds the working set
    Cts got = chain(warm, true);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < got.size(); ++s)
        expectCtEq(got[s], want[s]);
}

Cts
flatten(std::vector<Cts> rows)
{
    Cts out;
    for (auto &row : rows)
        for (auto &ct : row)
            out.push_back(std::move(ct));
    return out;
}

TEST(UnzeroedScratch, MultiplyRescaleMatchesFreshArena)
{
    Cts b;
    for (std::size_t s = 0; s < 3; ++s)
        b.push_back(fx().encryptSlots(910 + s, 3));
    expectPoisonedArenaMatchesFresh(
        {[&](const batch::BatchedEvaluator &e, const Cts &x) {
             return e.multiply(x, b);
         },
         [](const batch::BatchedEvaluator &e, const Cts &x) {
             return e.rescale(x);
         }});
}

TEST(UnzeroedScratch, RotateManyMatchesFreshArena)
{
    expectPoisonedArenaMatchesFresh(
        {[](const batch::BatchedEvaluator &e, const Cts &x) {
            return flatten(e.rotateManyBatch(x, {0, 1, 5}));
        }});
}

TEST(UnzeroedScratch, ConjugateMatchesFreshArena)
{
    expectPoisonedArenaMatchesFresh(
        {[](const batch::BatchedEvaluator &e, const Cts &x) {
            return e.dispatcher().conjugate(x.data(), x.size());
        }});
}

TEST(UnzeroedScratch, ApplyBsgsMatchesFreshArena)
{
    expectPoisonedArenaMatchesFresh(
        {[](const batch::BatchedEvaluator &e, const Cts &x) {
            return fx().plan.applyBatch(e, x);
        }});
}

} // namespace
} // namespace tensorfhe::exec
