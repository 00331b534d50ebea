/**
 * @file
 * Tests for fast basis conversion, ModUp / ModDown, and the RESCALE
 * divide-and-round core — the machinery behind the paper's Conv
 * kernel and Alg. 1 / Alg. 6 — including bit-identity of the
 * SIMD-span conversion with the u128 formula on every backend, and of
 * the evaluation-domain ModDown and RESCALE with their
 * coefficient-domain references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "rns/conv.hh"
#include "simd/simd.hh"

namespace tensorfhe::rns
{
namespace
{

RnsTower &
tower()
{
    static RnsTower t([] {
        TowerConfig cfg;
        cfg.n = 1 << 6;
        cfg.levels = 5;
        cfg.special = 2;
        return cfg;
    }());
    return t;
}

/** CRT-reconstruct coefficient c of `a` as a u128 (few small limbs). */
u128
crtReconstruct(const RnsPolynomial &a, std::size_t c)
{
    u128 modulus = 1;
    for (std::size_t i = 0; i < a.numLimbs(); ++i)
        modulus *= a.limbModulus(i).value();
    u128 x = 0;
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        u64 qi = a.limbModulus(i).value();
        u128 hat = modulus / qi;
        u64 hat_mod = static_cast<u64>(hat % qi);
        u64 hat_inv = invMod(hat_mod, qi);
        u128 term = hat * hat_inv % modulus;
        x = (x + term * a.limb(i)[c]) % modulus;
    }
    return x;
}

TEST(Conv, SingleSourceLimbIsExact)
{
    Rng rng(1);
    RnsPolynomial a = sampleUniform(tower(), {0}, Domain::Coeff, rng);
    auto out = fastBaseConv(a, {1, 2, tower().specialIndex(0)});
    for (std::size_t j = 0; j < out.numLimbs(); ++j) {
        u64 t = out.limbModulus(j).value();
        for (std::size_t c = 0; c < a.n(); ++c)
            ASSERT_EQ(out.limb(j)[c], a.limb(0)[c] % t);
    }
}

TEST(Conv, MultiLimbWithinApproximationBound)
{
    // Approximate conversion returns x + u*S with 0 <= u < s (number
    // of source limbs). Verify per coefficient.
    Rng rng(2);
    RnsPolynomial a =
        sampleUniform(tower(), {0, 1, 2}, Domain::Coeff, rng);
    std::vector<std::size_t> target = {3, 4};
    auto out = fastBaseConv(a, target);
    u128 source_modulus = 1;
    for (std::size_t i = 0; i < 3; ++i)
        source_modulus *= a.limbModulus(i).value();
    for (std::size_t c = 0; c < a.n(); ++c) {
        u128 x = crtReconstruct(a, c);
        for (std::size_t j = 0; j < target.size(); ++j) {
            u64 t = out.limbModulus(j).value();
            bool matched = false;
            for (u64 u = 0; u < 3 && !matched; ++u)
                matched = out.limb(j)[c]
                    == static_cast<u64>((x + u * source_modulus) % t);
            ASSERT_TRUE(matched) << "coeff " << c;
        }
    }
}

TEST(Conv, DecomposeDigitsShapes)
{
    Rng rng(3);
    RnsPolynomial a =
        sampleUniform(tower(), {0, 1, 2, 3, 4}, Domain::Coeff, rng);
    auto digits = decomposeDigits(a, 2);
    ASSERT_EQ(digits.size(), 3u);
    EXPECT_EQ(digits[0].numLimbs(), 2u);
    EXPECT_EQ(digits[1].numLimbs(), 2u);
    EXPECT_EQ(digits[2].numLimbs(), 1u);
    EXPECT_EQ(digits[1].limbIndex(0), 2u);
    // Residues are copies of the source.
    for (std::size_t c = 0; c < a.n(); ++c) {
        ASSERT_EQ(digits[0].limb(0)[c], a.limb(0)[c]);
        ASSERT_EQ(digits[2].limb(0)[c], a.limb(4)[c]);
    }
}

TEST(Conv, ModUpKeepsDigitResiduesVerbatim)
{
    Rng rng(4);
    RnsPolynomial a =
        sampleUniform(tower(), {0, 1, 2, 3}, Domain::Coeff, rng);
    auto digits = decomposeDigits(a, 2);
    auto up = modUp(digits[1], 4); // digit limbs {2, 3}
    ASSERT_EQ(up.numLimbs(), 4 + tower().numP());
    for (std::size_t c = 0; c < a.n(); ++c) {
        ASSERT_EQ(up.limb(2)[c], a.limb(2)[c]);
        ASSERT_EQ(up.limb(3)[c], a.limb(3)[c]);
    }
}

TEST(Conv, ModDownInvertsMultiplicationByP)
{
    // Construct a = P * x over the union basis; ModDown must return
    // exactly x (the p-limbs of P*x are zero, so Conv contributes 0).
    Rng rng(5);
    std::size_t ql = 3;
    std::vector<std::size_t> q_idx = {0, 1, 2};
    RnsPolynomial x = sampleUniform(tower(), q_idx, Domain::Coeff, rng);

    std::vector<std::size_t> union_idx = q_idx;
    for (std::size_t k = 0; k < tower().numP(); ++k)
        union_idx.push_back(tower().specialIndex(k));
    RnsPolynomial a(tower(), union_idx, Domain::Coeff);
    for (std::size_t i = 0; i < ql; ++i) {
        const Modulus &mod = tower().modulus(q_idx[i]);
        u64 p_mod = tower().pModQ(q_idx[i]);
        for (std::size_t c = 0; c < x.n(); ++c)
            a.limb(i)[c] = mod.mul(x.limb(i)[c], p_mod);
    }
    // p-limbs stay zero.
    auto down = modDown(a);
    ASSERT_EQ(down.numLimbs(), ql);
    for (std::size_t i = 0; i < ql; ++i)
        for (std::size_t c = 0; c < x.n(); ++c)
            ASSERT_EQ(down.limb(i)[c], x.limb(i)[c]);
}

TEST(Conv, ModDownRoundsSmallNoise)
{
    // a = P*x + e with |e| << P: ModDown returns x with error at most
    // a small constant from the approximate conversion.
    Rng rng(6);
    std::vector<std::size_t> q_idx = {0, 1};
    RnsPolynomial x = sampleUniform(tower(), q_idx, Domain::Coeff, rng);

    std::vector<std::size_t> union_idx = q_idx;
    for (std::size_t k = 0; k < tower().numP(); ++k)
        union_idx.push_back(tower().specialIndex(k));
    std::vector<s64> noise(tower().n());
    for (auto &e : noise)
        e = rng.sampleGaussianInt(3.2);
    RnsPolynomial a = liftSigned(tower(), union_idx, noise);
    for (std::size_t i = 0; i < q_idx.size(); ++i) {
        const Modulus &mod = tower().modulus(q_idx[i]);
        u64 p_mod = tower().pModQ(q_idx[i]);
        for (std::size_t c = 0; c < x.n(); ++c) {
            a.limb(i)[c] = mod.add(a.limb(i)[c],
                                   mod.mul(x.limb(i)[c], p_mod));
        }
    }
    auto down = modDown(a);
    // Error |down - x| <= numP + 1 per limb (approx conv + rounding).
    for (std::size_t i = 0; i < q_idx.size(); ++i) {
        u64 q = tower().prime(q_idx[i]);
        for (std::size_t c = 0; c < x.n(); ++c) {
            u64 d = subMod(down.limb(i)[c], x.limb(i)[c], q);
            u64 err = std::min(d, q - d);
            ASSERT_LE(err, tower().numP() + 1) << "coeff " << c;
        }
    }
}

TEST(Conv, RescaleDividesAndRounds)
{
    // Build a two-limb poly whose coefficients are known products
    // v = k * q_last + r and check out = k (+/-1 for the rounding of
    // centered r).
    std::vector<std::size_t> idx = {0, 1};
    u64 q_last = tower().prime(1);
    RnsPolynomial a(tower(), idx, Domain::Coeff);
    std::vector<u64> expect(tower().n());
    Rng rng(7);
    for (std::size_t c = 0; c < tower().n(); ++c) {
        u64 k = rng.uniform(1 << 20);
        u64 r = rng.uniform(q_last);
        u128 v = static_cast<u128>(k) * q_last + r;
        a.limb(0)[c] = static_cast<u64>(v % tower().prime(0));
        a.limb(1)[c] = static_cast<u64>(v % q_last);
        expect[c] = r <= q_last / 2 ? k : k + 1; // round to nearest
    }
    auto out = rescaleByLastLimb(a);
    ASSERT_EQ(out.numLimbs(), 1u);
    for (std::size_t c = 0; c < tower().n(); ++c)
        ASSERT_EQ(out.limb(0)[c], expect[c] % tower().prime(0));
}

// ------------------------------------------------------------------
// The Shoup-span conversion against the u128 formula, bit for bit.

constexpr u64 kSentinel = ~u64(0); // never a residue: proves writes

RnsTower &
towerWithSpecials(int k)
{
    static std::vector<std::unique_ptr<RnsTower>> towers(4);
    auto &t = towers[static_cast<std::size_t>(k)];
    if (!t) {
        TowerConfig cfg;
        cfg.n = 1 << 6;
        cfg.levels = 5;
        cfg.special = k;
        t = std::make_unique<RnsTower>(cfg);
    }
    return *t;
}

/**
 * The scalar conversion the SIMD spans replaced:
 * y_i = a_i * hatInv_i mod s_i, then out_j = Modulus(t_j).reduce(
 * sum_i y_i * hat_ij) accumulated in u128. The CRT factors are
 * derived here from u128 products, independently of BaseConvPlan.
 */
std::vector<std::vector<u64>>
referenceConv(const RnsTower &tw, const std::vector<const u64 *> &rows,
              const std::vector<std::size_t> &src,
              const std::vector<std::size_t> &dst)
{
    std::size_t n = tw.n();
    std::size_t s = src.size();
    std::vector<u128> others(s, 1); // S / s_i
    std::vector<std::vector<u64>> y(s, std::vector<u64>(n));
    for (std::size_t i = 0; i < s; ++i) {
        for (std::size_t i2 = 0; i2 < s; ++i2)
            if (i2 != i)
                others[i] *= tw.prime(src[i2]);
        u64 si = tw.prime(src[i]);
        u64 hat_inv = invMod(static_cast<u64>(others[i] % si), si);
        for (std::size_t c = 0; c < n; ++c)
            y[i][c] = static_cast<u64>(
                static_cast<u128>(rows[i][c]) * hat_inv % si);
    }
    std::vector<std::vector<u64>> out(dst.size(), std::vector<u64>(n));
    for (std::size_t j = 0; j < dst.size(); ++j) {
        const Modulus &mj = tw.modulus(dst[j]);
        for (std::size_t c = 0; c < n; ++c) {
            u128 acc = 0;
            for (std::size_t i = 0; i < s; ++i)
                acc += static_cast<u128>(y[i][c])
                    * static_cast<u64>(others[i] % mj.value());
            out[j][c] = mj.reduce(acc);
        }
    }
    return out;
}

RnsPolynomial
sentinelPoly(const RnsTower &tw, const std::vector<std::size_t> &limbs)
{
    RnsPolynomial p(tw, limbs, Domain::Coeff);
    for (std::size_t i = 0; i < p.numLimbs(); ++i)
        std::fill(p.limb(i), p.limb(i) + tw.n(), kSentinel);
    return p;
}

std::vector<RnsPolynomial>
sampleBatch(const RnsTower &tw, const std::vector<std::size_t> &limbs,
            std::size_t batch, u64 seed)
{
    Rng rng(seed);
    std::vector<RnsPolynomial> out;
    for (std::size_t b = 0; b < batch; ++b)
        out.push_back(sampleUniform(tw, limbs, Domain::Coeff, rng));
    return out;
}

template <class T>
std::vector<T *>
ptrsOf(std::vector<RnsPolynomial> &polys)
{
    std::vector<T *> out;
    for (auto &p : polys)
        out.push_back(&p);
    return out;
}

/** Run `check(pool)` under every backend the host supports, each on a
    1-lane and a 3-worker pool; restores the prior backend. */
template <class F>
void
forEachBackendAndPool(F check)
{
    simd::Backend saved = simd::activeBackend();
    ThreadPool serial(0), wide(3);
    for (simd::Backend b : simd::supportedBackends()) {
        EXPECT_TRUE(simd::setBackend(b));
        for (ThreadPool *pool : {&serial, &wide}) {
            SCOPED_TRACE(std::string(simd::backendName(b)) + " on "
                         + std::to_string(pool->lanes()) + " lanes");
            check(pool);
        }
    }
    simd::setBackend(saved);
}

constexpr std::size_t kSlots = 3;

TEST(ConvReference, BaseConvPlanMatchesU128Formula)
{
    // Sources of 1-3 q-limbs (q_0 is 30-bit, the rest 25-bit) into
    // the other q-limbs and the 30-bit specials, read at an offset
    // behind a leading limb and written at their tower positions of a
    // full-tower output whose other limbs must stay untouched.
    for (int k : {1, 2}) {
        const RnsTower &tw = towerWithSpecials(k);
        std::vector<std::size_t> all(tw.numTotal());
        for (std::size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        for (std::size_t s = 1; s <= 3; ++s) {
            std::vector<std::size_t> src(all.begin(), all.begin() + s);
            std::vector<std::size_t> dst(all.begin() + s, all.end());
            std::vector<std::size_t> in_limbs = {tw.numQ() - 1};
            in_limbs.insert(in_limbs.end(), src.begin(), src.end());
            auto as = sampleBatch(tw, in_limbs, kSlots, 10 + s);
            auto in = ptrsOf<const RnsPolynomial>(as);
            BaseConvPlan plan(tw, src, dst);
            forEachBackendAndPool([&](ThreadPool *pool) {
                std::vector<RnsPolynomial> outs;
                for (std::size_t b = 0; b < kSlots; ++b)
                    outs.push_back(sentinelPoly(tw, all));
                auto out_ptrs = ptrsOf<RnsPolynomial>(outs);
                plan.applyBatchInto(in, 1, out_ptrs.data(), dst, pool);
                for (std::size_t b = 0; b < kSlots; ++b) {
                    std::vector<const u64 *> rows;
                    for (std::size_t i = 0; i < s; ++i)
                        rows.push_back(as[b].limb(1 + i));
                    auto ref = referenceConv(tw, rows, src, dst);
                    for (std::size_t j = 0; j < dst.size(); ++j)
                        for (std::size_t c = 0; c < tw.n(); ++c)
                            ASSERT_EQ(outs[b].limb(dst[j])[c], ref[j][c])
                                << "k=" << k << " s=" << s << " slot "
                                << b << " target " << j;
                    for (std::size_t i = 0; i < s; ++i)
                        for (std::size_t c = 0; c < tw.n(); ++c)
                            ASSERT_EQ(outs[b].limb(i)[c], kSentinel);
                }
            });
        }
    }
}

TEST(ConvReference, ModUpMatchesU128FormulaAndCopiesDigitVerbatim)
{
    std::size_t level_count = 5;
    for (int k : {1, 2}) {
        const RnsTower &tw = towerWithSpecials(k);
        for (std::size_t d = 1; d <= 3; ++d) {
            std::vector<std::size_t> digit_limbs;
            for (std::size_t i = 1; i <= d; ++i)
                digit_limbs.push_back(i);
            auto digits = sampleBatch(tw, digit_limbs, kSlots, 20 + d);
            auto in = ptrsOf<const RnsPolynomial>(digits);
            ModUpPlan plan(tw, digit_limbs, level_count);
            const auto &target = plan.unionLimbs();
            std::vector<std::size_t> conv_limbs;
            for (std::size_t idx : target)
                if (idx < 1 || idx > d)
                    conv_limbs.push_back(idx);
            forEachBackendAndPool([&](ThreadPool *pool) {
                std::vector<RnsPolynomial> outs;
                for (std::size_t b = 0; b < kSlots; ++b)
                    outs.push_back(sentinelPoly(tw, target));
                auto out_ptrs = ptrsOf<RnsPolynomial>(outs);
                plan.applyBatchInto(in, out_ptrs.data(), pool);
                for (std::size_t b = 0; b < kSlots; ++b) {
                    std::vector<const u64 *> rows;
                    for (std::size_t i = 0; i < d; ++i)
                        rows.push_back(digits[b].limb(i));
                    auto ref =
                        referenceConv(tw, rows, digit_limbs, conv_limbs);
                    std::size_t oi = 0;
                    for (std::size_t j = 0; j < target.size(); ++j) {
                        bool copied = target[j] >= 1 && target[j] <= d;
                        const u64 *expect = copied
                            ? digits[b].limb(target[j] - 1)
                            : ref[oi++].data();
                        for (std::size_t c = 0; c < tw.n(); ++c)
                            ASSERT_EQ(outs[b].limb(j)[c], expect[c])
                                << "k=" << k << " d=" << d << " slot "
                                << b << " union limb " << j;
                    }
                }
            });
        }
    }
}

TEST(ConvReference, ModDownMatchesU128Formula)
{
    // The source of the p -> q conversion is the 1 or 2 special limbs.
    for (int k : {1, 2}) {
        const RnsTower &tw = towerWithSpecials(k);
        std::vector<std::size_t> q_idx = {0, 1, 2, 3};
        std::vector<std::size_t> p_idx, union_idx = q_idx;
        for (std::size_t i = 0; i < tw.numP(); ++i) {
            p_idx.push_back(tw.specialIndex(i));
            union_idx.push_back(tw.specialIndex(i));
        }
        auto as = sampleBatch(tw, union_idx, kSlots, 30 + k);
        auto in = ptrsOf<const RnsPolynomial>(as);
        ModDownPlan plan(tw, union_idx);
        forEachBackendAndPool([&](ThreadPool *pool) {
            std::vector<RnsPolynomial> outs;
            for (std::size_t b = 0; b < kSlots; ++b)
                outs.push_back(sentinelPoly(tw, q_idx));
            auto out_ptrs = ptrsOf<RnsPolynomial>(outs);
            plan.applyBatchInto(in, out_ptrs.data(), pool);
            for (std::size_t b = 0; b < kSlots; ++b) {
                std::vector<const u64 *> rows;
                for (std::size_t i = 0; i < tw.numP(); ++i)
                    rows.push_back(as[b].limb(q_idx.size() + i));
                auto conv = referenceConv(tw, rows, p_idx, q_idx);
                for (std::size_t j = 0; j < q_idx.size(); ++j) {
                    u64 q = tw.prime(q_idx[j]);
                    for (std::size_t c = 0; c < tw.n(); ++c) {
                        u64 diff = subMod(as[b].limb(j)[c], conv[j][c], q);
                        u64 expect = static_cast<u64>(
                            static_cast<u128>(diff)
                            * tw.pInvModQ(q_idx[j]) % q);
                        ASSERT_EQ(outs[b].limb(j)[c], expect)
                            << "k=" << k << " slot " << b << " limb "
                            << j;
                    }
                }
            }
        });
    }
}

// ------------------------------------------------------------------
// The evaluation-domain RESCALE and ModDown against their
// coefficient-domain references bracketed by INTT/NTT, bit for bit.

void
expectPolyEq(const RnsPolynomial &got, const RnsPolynomial &want)
{
    ASSERT_EQ(got.limbIndices(), want.limbIndices());
    ASSERT_EQ(got.domain(), want.domain());
    for (std::size_t i = 0; i < got.numLimbs(); ++i)
        for (std::size_t c = 0; c < got.n(); ++c)
            ASSERT_EQ(got.limb(i)[c], want.limb(i)[c])
                << "limb " << i << " coeff " << c;
}

/** `check(variant, batch, pool)` for every NTT variant and batches of
    1 and 3, under every backend and pool. */
template <class F>
void
forEachVariantAndBatch(F check)
{
    forEachBackendAndPool([&](ThreadPool *pool) {
        for (ntt::NttVariant v :
             {ntt::NttVariant::Reference, ntt::NttVariant::Butterfly,
              ntt::NttVariant::Gemm, ntt::NttVariant::Tensor})
            for (std::size_t batch : {std::size_t(1), kSlots}) {
                SCOPED_TRACE(std::string(ntt::nttVariantName(v))
                             + ", batch " + std::to_string(batch));
                check(v, batch, pool);
            }
    });
}

TEST(EvalDomain, RescaleMatchesCoefficientReferenceBitForBit)
{
    const RnsTower &tw = towerWithSpecials(1);
    // The q-chain ends on its smallest prime. Ending on the 30-bit
    // special prime instead puts the last prime above q_1..q_3 (and
    // below q_0), so the lift reduces residues larger than q_j.
    std::size_t p0 = tw.specialIndex(0);
    std::vector<std::vector<std::size_t>> limb_sets = {{0, 1, 2, 3, 4, 5},
                                                       {0, 1, 2, 3, p0}};
    auto below = [&](std::size_t i) { return tw.prime(i) < tw.prime(p0); };
    ASSERT_TRUE(std::any_of(limb_sets[1].begin(), limb_sets[1].end() - 1,
                            below));
    ASSERT_FALSE(std::all_of(limb_sets[1].begin(), limb_sets[1].end() - 1,
                             below));

    for (const auto &limbs : limb_sets) {
        std::size_t last = limbs.size() - 1;
        u64 q_last = tw.prime(limbs[last]);
        std::vector<std::size_t> kept(limbs.begin(), limbs.end() - 1);
        forEachVariantAndBatch([&](ntt::NttVariant v, std::size_t batch,
                                   ThreadPool *pool) {
            auto inputs = sampleBatch(tw, limbs, batch, 40 + batch);
            // The rounding boundary of the centred lift, and its ends.
            for (auto &a : inputs) {
                u64 *pl = a.limb(last);
                pl[0] = q_last / 2;
                pl[1] = q_last / 2 + 1;
                pl[2] = 0;
                pl[3] = q_last - 1;
            }

            auto want = inputs;
            auto want_ptrs = ptrsOf<RnsPolynomial>(want);
            rescaleByLastLimbBatchInPlace(want_ptrs, pool);
            toEvalBatch(want_ptrs, v, pool);

            auto got = inputs;
            auto got_ptrs = ptrsOf<RnsPolynomial>(got);
            toEvalBatch(got_ptrs, v, pool);
            std::vector<RnsPolynomial> lifts;
            for (std::size_t b = 0; b < batch; ++b)
                lifts.push_back(sentinelPoly(tw, kept));
            rescaleByLastLimbEvalBatchInPlace(
                got_ptrs, ptrsOf<RnsPolynomial>(lifts).data(), v, pool);
            for (std::size_t b = 0; b < batch; ++b)
                expectPolyEq(got[b], want[b]);
        });
    }
}

TEST(EvalDomain, ModDownMatchesCoefficientReferenceBitForBit)
{
    for (int k : {1, 2, 3}) {
        const RnsTower &tw = towerWithSpecials(k);
        std::vector<std::size_t> q_idx = {0, 1, 2, 3};
        std::vector<std::size_t> union_idx = q_idx;
        for (std::size_t i = 0; i < tw.numP(); ++i)
            union_idx.push_back(tw.specialIndex(i));
        ModDownPlan plan(tw, union_idx);
        forEachVariantAndBatch([&](ntt::NttVariant v, std::size_t batch,
                                   ThreadPool *pool) {
            SCOPED_TRACE("K = " + std::to_string(k));
            auto inputs = sampleBatch(tw, union_idx, batch, 50 + k);

            std::vector<RnsPolynomial> want;
            for (std::size_t b = 0; b < batch; ++b)
                want.emplace_back(tw, q_idx, Domain::Coeff);
            auto want_ptrs = ptrsOf<RnsPolynomial>(want);
            plan.applyBatchInto(ptrsOf<const RnsPolynomial>(inputs),
                                want_ptrs.data(), pool);
            toEvalBatch(want_ptrs, v, pool);

            auto evals = inputs;
            auto eval_ptrs = ptrsOf<RnsPolynomial>(evals);
            toEvalBatch(eval_ptrs, v, pool);
            std::vector<RnsPolynomial> got;
            for (std::size_t b = 0; b < batch; ++b)
                got.push_back(sentinelPoly(tw, q_idx));
            plan.applyEvalBatchInto(eval_ptrs,
                                    ptrsOf<RnsPolynomial>(got).data(), v,
                                    pool);
            for (std::size_t b = 0; b < batch; ++b)
                expectPolyEq(got[b], want[b]);
        });
    }
}

} // namespace
} // namespace tensorfhe::rns
