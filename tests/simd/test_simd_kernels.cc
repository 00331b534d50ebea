/**
 * @file
 * SIMD backend bit-identity suite: every vector backend the host can
 * run must reproduce the scalar backend's canonical [0, q) residues
 * EXACTLY (EXPECT_EQ on every output word) for every vtable entry —
 * span kernels, the row inner products, the fused elementwise
 * interpreter, and the permute-folded NTTs — across the four modulus
 * lanes (q < 2^30 Shoup-32, q in [2^30, 2^31) the widest prime the
 * tower admits, q < 2^50 IFMA, q near 2^61 full Barrett), awkward
 * tail lengths, and the in-place aliasing patterns the exec layer
 * uses. This is the hard contract of docs/SIMD.md; any mismatch is a
 * correctness bug, never within a tolerance.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/primes.hh"
#include "common/rng.hh"
#include "ntt/ntt.hh"
#include "simd/simd.hh"

namespace tensorfhe::simd
{
namespace
{

const Ops *
backendOps(Backend b)
{
    switch (b) {
      case Backend::Scalar: return scalarOps();
      case Backend::Avx2: return avx2Ops();
      case Backend::Avx512: return avx512Ops();
    }
    return nullptr;
}

/** Every runnable non-scalar backend (scalar is the oracle). */
std::vector<Backend>
vectorBackends()
{
    std::vector<Backend> out;
    for (Backend b : supportedBackends())
        if (b != Backend::Scalar)
            out.push_back(b);
    return out;
}

/** RAII forced-backend guard (restores the prior selection). */
struct BackendGuard
{
    Backend saved;
    explicit BackendGuard(Backend b) : saved(activeBackend())
    {
        EXPECT_TRUE(setBackend(b));
    }
    ~BackendGuard() { setBackend(saved); }
};

std::vector<u64>
randomSpan(Rng &rng, std::size_t n, u64 q)
{
    std::vector<u64> a(n);
    for (auto &c : a)
        c = rng.uniform(q);
    return a;
}

/** One prime per modulus lane, picked from a generated pool so the
    exact value varies with the seed (randomized primes, per lane). */
u64
lanePrime(int bits, u64 seed)
{
    auto pool = generateNttPrimes(bits, 4, 1 << 13);
    return pool[seed % pool.size()];
}

/** (backend, prime bits) — every vector backend against the Shoup-32
    lane (q < 2^30), the widest tower prime (q in [2^30, 2^31), where
    dotRows folds every 4 rows), the IFMA lane (q < 2^50) and the full
    Barrett lane (q near 2^61). */
using LaneParam = std::tuple<Backend, int>;

std::string
laneName(const ::testing::TestParamInfo<LaneParam> &info)
{
    return std::string(backendName(std::get<0>(info.param))) + "_q"
        + std::to_string(std::get<1>(info.param));
}

std::vector<LaneParam>
allLanes()
{
    std::vector<LaneParam> out;
    for (Backend b : vectorBackends())
        for (int bits : {29, 31, 45, 61})
            out.push_back({b, bits});
    if (out.empty()) // scalar-only host: one self-check lane
        out.push_back({Backend::Scalar, 61});
    return out;
}

class SimdSpanKernels : public ::testing::TestWithParam<LaneParam>
{
  protected:
    const Ops *vec = nullptr;
    u64 q = 0;
    Modulus m;

    void
    SetUp() override
    {
        auto [b, bits] = GetParam();
        vec = backendOps(b);
        ASSERT_NE(vec, nullptr);
        q = lanePrime(bits, 7 + static_cast<u64>(bits));
        m = Modulus(q);
    }
};

/** Tail coverage: below one vector width, straddling widths, odd,
    and a large power of two. */
const std::size_t kLens[] = {1, 3, 7, 8, 13, 16, 31, 33, 100, 1024};

TEST_P(SimdSpanKernels, AddSubMatchScalarIncludingSelfAlias)
{
    Rng rng(1);
    for (std::size_t n : kLens) {
        auto a = randomSpan(rng, n, q);
        auto b = randomSpan(rng, n, q);
        auto sa = a, va = a;
        scalarOps()->addSpan(sa.data(), b.data(), n, q);
        vec->addSpan(va.data(), b.data(), n, q);
        EXPECT_EQ(va, sa) << "add n=" << n;

        sa = a;
        va = a;
        scalarOps()->subSpan(sa.data(), b.data(), n, q);
        vec->subSpan(va.data(), b.data(), n, q);
        EXPECT_EQ(va, sa) << "sub n=" << n;

        // x += x / x -= x with the SAME span as both operands.
        sa = a;
        va = a;
        scalarOps()->addSpan(sa.data(), sa.data(), n, q);
        vec->addSpan(va.data(), va.data(), n, q);
        EXPECT_EQ(va, sa) << "self-alias add n=" << n;
    }
}

TEST_P(SimdSpanKernels, MulSpanMatchesScalarIncludingSelfAlias)
{
    Rng rng(2);
    for (std::size_t n : kLens) {
        auto a = randomSpan(rng, n, q);
        auto b = randomSpan(rng, n, q);
        auto sa = a, va = a;
        scalarOps()->mulSpan(sa.data(), b.data(), n, m);
        vec->mulSpan(va.data(), b.data(), n, m);
        EXPECT_EQ(va, sa) << "mul n=" << n;

        sa = a;
        va = a;
        scalarOps()->mulSpan(sa.data(), sa.data(), n, m);
        vec->mulSpan(va.data(), va.data(), n, m);
        EXPECT_EQ(va, sa) << "self-alias square n=" << n;
    }
}

TEST_P(SimdSpanKernels, MulTripleMatchesScalar)
{
    Rng rng(3);
    for (std::size_t n : kLens) {
        auto a0 = randomSpan(rng, n, q), a1 = randomSpan(rng, n, q);
        auto b0 = randomSpan(rng, n, q), b1 = randomSpan(rng, n, q);
        std::vector<u64> sd0(n), sd1(n), sd2(n);
        scalarOps()->mulTriple(sd0.data(), sd1.data(), sd2.data(),
                               a0.data(), a1.data(), b0.data(),
                               b1.data(), n, m);
        std::vector<u64> vd0(n), vd1(n), vd2(n);
        vec->mulTriple(vd0.data(), vd1.data(), vd2.data(), a0.data(),
                       a1.data(), b0.data(), b1.data(), n, m);
        EXPECT_EQ(vd0, sd0) << "d0 n=" << n;
        EXPECT_EQ(vd1, sd1) << "d1 n=" << n;
        EXPECT_EQ(vd2, sd2) << "d2 n=" << n;
        // NOTE: unlike the in-place span kernels, mulTriple's
        // contract requires DISTINCT output spans (d1 reads a0 after
        // d0 is stored) — the exec layer always passes workspace
        // polynomials, so no aliased variant is tested here.
    }
}

/** Row sums mod q in u128, the oracle of dotRows. */
std::pair<std::vector<u64>, std::vector<u64>>
dotRowsU128(const std::vector<std::vector<u64>> &u,
            const std::vector<std::vector<u64>> &b,
            const std::vector<std::vector<u64>> &a, std::size_t n, u64 q)
{
    std::vector<u64> s0(n), s1(n);
    for (std::size_t c = 0; c < n; ++c) {
        u128 t0 = 0, t1 = 0;
        for (std::size_t j = 0; j < u.size(); ++j) {
            t0 += static_cast<u128>(u[j][c]) * b[j][c];
            t1 += static_cast<u128>(u[j][c]) * a[j][c];
        }
        s0[c] = static_cast<u64>(t0 % q);
        s1[c] = static_cast<u64>(t1 % q);
    }
    return {s0, s1};
}

/** The row pointers of one dotRows call. */
std::vector<const u64 *>
rowPtrs(const std::vector<std::vector<u64>> &rows)
{
    std::vector<const u64 *> out;
    for (const auto &r : rows)
        out.push_back(r.data());
    return out;
}

/**
 * dotRows through `ops` into accumulators poisoned with ~0, which is
 * never a residue: the kernel overwrites, so a cell it read first
 * would carry the poison into the result.
 */
std::pair<std::vector<u64>, std::vector<u64>>
runDotRows(const Ops &ops, const std::vector<std::vector<u64>> &u,
           const std::vector<std::vector<u64>> &b,
           const std::vector<std::vector<u64>> &a, std::size_t n,
           const Modulus &m)
{
    std::vector<u64> acc0(n, ~u64(0)), acc1(n, ~u64(0));
    auto pu = rowPtrs(u), pb = rowPtrs(b), pa = rowPtrs(a);
    ops.dotRows(acc0.data(), acc1.data(), pu.data(), pb.data(),
                pa.data(), u.size(), n, m);
    return {acc0, acc1};
}

TEST_P(SimdSpanKernels, DotRowsMatchesU128AcrossTheFoldBound)
{
    // Every input q - 1 makes every product the largest one, (q - 1)^2,
    // which random inputs never reach: below 2^31 the unreduced u64
    // sums must fold every floor((2^64 - 1) / (q - 1)^2) rows (4 at
    // 31 bits, 16 at 30), and a fold one row late wraps. Rows run
    // from 1 through two folds and one more row.
    std::size_t cap = q < (u64(1) << 31)
        ? static_cast<std::size_t>(~u64(0) / ((q - 1) * (q - 1)))
        : 4;
    for (std::size_t n : {std::size_t(8), std::size_t(37)}) {
        for (std::size_t rows = 1; rows <= 2 * cap + 1; ++rows) {
            std::vector<std::vector<u64>> top(rows,
                                              std::vector<u64>(n, q - 1));
            auto want = dotRowsU128(top, top, top, n, q);
            auto scalar = runDotRows(*scalarOps(), top, top, top, n, m);
            EXPECT_EQ(scalar, want) << "scalar rows=" << rows;
            EXPECT_EQ(runDotRows(*vec, top, top, top, n, m), scalar)
                << "rows=" << rows << " n=" << n;
        }
    }
}

TEST_P(SimdSpanKernels, DotRowsMatchesScalarAndU128OnEveryTail)
{
    // Random rows at the shapes the exec layer sums (a key switch's
    // digits, a BSGS group's entries), over every tail length, into
    // poisoned accumulators. No rows writes zeros.
    Rng rng(5);
    for (std::size_t rows : {0, 1, 2, 5, 7, 12, 23}) {
        for (std::size_t n : kLens) {
            std::vector<std::vector<u64>> u, b, a;
            for (std::size_t r = 0; r < rows; ++r) {
                u.push_back(randomSpan(rng, n, q));
                b.push_back(randomSpan(rng, n, q));
                a.push_back(randomSpan(rng, n, q));
            }
            auto want = dotRowsU128(u, b, a, n, q);
            auto scalar = runDotRows(*scalarOps(), u, b, a, n, m);
            EXPECT_EQ(scalar, want) << "scalar rows=" << rows
                                    << " n=" << n;
            EXPECT_EQ(runDotRows(*vec, u, b, a, n, m), scalar)
                << "rows=" << rows << " n=" << n;
        }
    }
}

TEST_P(SimdSpanKernels, MulShoupAndAccumMatchScalar)
{
    Rng rng(6);
    for (std::size_t n : kLens) {
        u64 w = rng.uniform(q);
        u64 ws = shoupPrecompute(w, q);
        auto a = randomSpan(rng, n, q);
        auto sa = a, va = a;
        scalarOps()->mulShoup(sa.data(), w, ws, n, q);
        vec->mulShoup(va.data(), w, ws, n, q);
        EXPECT_EQ(va, sa) << "mulShoup n=" << n;

        auto acc = randomSpan(rng, n, q);
        auto src = randomSpan(rng, n, q);
        auto sacc = acc, vacc = acc;
        scalarOps()->mulShoupAccum(sacc.data(), src.data(), w, ws, n,
                                   q);
        vec->mulShoupAccum(vacc.data(), src.data(), w, ws, n, q);
        EXPECT_EQ(vacc, sacc) << "mulShoupAccum n=" << n;

        // acc += acc * w: the P-lift in-place shape.
        sacc = acc;
        vacc = acc;
        scalarOps()->mulShoupAccum(sacc.data(), sacc.data(), w, ws,
                                   n, q);
        vec->mulShoupAccum(vacc.data(), vacc.data(), w, ws, n, q);
        EXPECT_EQ(vacc, sacc) << "self-alias n=" << n;
    }
}

TEST_P(SimdSpanKernels, MulShoupAndAccumAcceptAnyU64Input)
{
    // Conv feeds residues of another prime through the Shoup spans,
    // so a/src need not be below q: any u64 must give the canonical
    // product, on the scalar oracle (checked against u128 % q) and
    // bit-identically on the vector backend.
    Rng rng(8);
    const u64 edges[] = {0, q - 1, q, 2 * q, u64(1) << 63, ~u64(0)};
    for (std::size_t n : kLens) {
        u64 w = rng.uniform(q);
        u64 ws = shoupPrecompute(w, q);
        std::vector<u64> a(n), prod(n);
        for (std::size_t c = 0; c < n; ++c) {
            a[c] = c < std::size(edges) ? edges[c] : rng.next();
            prod[c] = static_cast<u64>(static_cast<u128>(a[c]) * w % q);
        }
        auto sa = a, va = a;
        scalarOps()->mulShoup(sa.data(), w, ws, n, q);
        vec->mulShoup(va.data(), w, ws, n, q);
        EXPECT_EQ(sa, prod) << "scalar mulShoup n=" << n;
        EXPECT_EQ(va, sa) << "mulShoup n=" << n;

        auto acc = randomSpan(rng, n, q);
        std::vector<u64> expect(n);
        for (std::size_t c = 0; c < n; ++c)
            expect[c] = addMod(acc[c], prod[c], q);
        auto sacc = acc, vacc = acc;
        scalarOps()->mulShoupAccum(sacc.data(), a.data(), w, ws, n, q);
        vec->mulShoupAccum(vacc.data(), a.data(), w, ws, n, q);
        EXPECT_EQ(sacc, expect) << "scalar mulShoupAccum n=" << n;
        EXPECT_EQ(vacc, sacc) << "mulShoupAccum n=" << n;
    }
}

TEST_P(SimdSpanKernels, MulShoupAndAccumMatchU128BelowTwoTo32)
{
    // Conv's inputs are residues of other tower primes: every lane
    // fits 32 bits but may exceed q, the case the beta = 2^32 lane
    // takes for q < 2^31. Each product must equal u128 arithmetic.
    Rng rng(9);
    constexpr u64 kWord = u64(1) << 32;
    std::vector<u64> edges = {0, kWord - 1};
    for (u64 e : {q - 1, q, 2 * q})
        if (e < kWord)
            edges.push_back(e);
    for (std::size_t n : kLens) {
        u64 w = rng.uniform(q);
        u64 ws = shoupPrecompute(w, q);
        std::vector<u64> x(n), prod(n);
        for (std::size_t c = 0; c < n; ++c) {
            x[c] = c < edges.size() ? edges[c] : rng.uniform(kWord);
            prod[c] = static_cast<u64>(static_cast<u128>(x[c]) * w % q);
        }
        auto va = x;
        vec->mulShoup(va.data(), w, ws, n, q);
        EXPECT_EQ(va, prod) << "mulShoup n=" << n;

        auto acc = randomSpan(rng, n, q);
        std::vector<u64> expect(n);
        for (std::size_t c = 0; c < n; ++c)
            expect[c] = addMod(acc[c], prod[c], q);
        vec->mulShoupAccum(acc.data(), x.data(), w, ws, n, q);
        EXPECT_EQ(acc, expect) << "mulShoupAccum n=" << n;
    }
}

TEST_P(SimdSpanKernels, FusedEleProgramMatchesScalar)
{
    // The register program of a typical fused chain:
    //   ((in0 - in1) * pt0 + in2) + pt1
    // — every opcode of the interpreter in one stream.
    Rng rng(7);
    const EleIns ins[] = {
        {0, 0, 0, 0}, // Load  r0 = inputs[0]
        {0, 1, 0, 1}, // Load  r1 = inputs[1]
        {2, 0, 1, 0}, // SubCt r0 -= r1
        {3, 0, 0, 0}, // MulPt r0 *= pts[0]
        {0, 1, 0, 2}, // Load  r1 = inputs[2]
        {1, 0, 1, 0}, // AddCt r0 += r1
        {4, 0, 0, 1}, // AddPt r0.c0 += pts[1]
    };
    constexpr std::size_t kNumIns = sizeof(ins) / sizeof(ins[0]);
    for (std::size_t n : kLens) {
        std::vector<std::vector<u64>> c0s, c1s, pts;
        for (int i = 0; i < 3; ++i) {
            c0s.push_back(randomSpan(rng, n, q));
            c1s.push_back(randomSpan(rng, n, q));
        }
        pts.push_back(randomSpan(rng, n, q));
        pts.push_back(randomSpan(rng, n, q));
        const u64 *in0[] = {c0s[0].data(), c0s[1].data(),
                            c0s[2].data()};
        const u64 *in1[] = {c1s[0].data(), c1s[1].data(),
                            c1s[2].data()};
        const u64 *pt[] = {pts[0].data(), pts[1].data()};
        std::vector<u64> so0(n), so1(n), vo0(n), vo1(n);
        scalarOps()->fusedEle(ins, kNumIns, 0, so0.data(), so1.data(),
                              in0, in1, pt, n, m);
        vec->fusedEle(ins, kNumIns, 0, vo0.data(), vo1.data(), in0,
                      in1, pt, n, m);
        EXPECT_EQ(vo0, so0) << "c0 n=" << n;
        EXPECT_EQ(vo1, so1) << "c1 n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackendsAllLanes, SimdSpanKernels,
                         ::testing::ValuesIn(allLanes()), laneName);

// ------------------------------------------------------------------
// NTT: the vector butterflies with the folded bit-reverse permutation
// against the scalar butterfly path, per backend / lane / length.
//
// NTT contexts exist only for primes whose residues fit 32 bits (the
// TCU segmentation tables assert q < 2^32), so the NTT lanes are
// 28-bit primes (the beta = 2^32 Shoup tables, q < 2^30) and 31-bit
// primes (beyond the Shoup-32 range — the beta = 2^52 / IFMA
// tables carry the vector butterflies).

std::vector<LaneParam>
nttLanes()
{
    std::vector<LaneParam> out;
    for (Backend b : vectorBackends())
        for (int bits : {28, 31})
            out.push_back({b, bits});
    if (out.empty())
        out.push_back({Backend::Scalar, 28});
    return out;
}

class SimdNtt : public ::testing::TestWithParam<LaneParam>
{};

TEST_P(SimdNtt, VectorButterfliesMatchScalarAndRoundTrip)
{
    auto [b, bits] = GetParam();
    const Ops *vec = backendOps(b);
    ASSERT_NE(vec, nullptr);
    for (std::size_t n : {std::size_t(16), std::size_t(64),
                          std::size_t(256), std::size_t(1024),
                          std::size_t(4096)}) {
        u64 q = generateNttPrimes(bits, 1, 2 * n)[0];
        ntt::NttContext ctx(n, q);
        Rng rng(n + static_cast<u64>(bits));
        auto a = randomSpan(rng, n, q);

        // Scalar oracle through the forced-scalar dispatch path.
        auto ref = a;
        {
            BackendGuard g(Backend::Scalar);
            ctx.forward(ref.data(), ntt::NttVariant::Butterfly);
        }
        auto va = a;
        if (!vec->nttForward(ctx.tables(), va.data()))
            continue; // backend declines this length
        EXPECT_EQ(va, ref) << backendName(b) << " fwd n=" << n;

        ASSERT_TRUE(vec->nttInverse(ctx.tables(), va.data()));
        EXPECT_EQ(va, a) << backendName(b) << " roundtrip n=" << n;
    }
}

TEST_P(SimdNtt, ForcedBackendDispatchMatchesScalar)
{
    // The integration contract: NttContext::forward/inverse under a
    // forced backend (what TFHE_SIMD forces at startup) produce the
    // scalar path's bits for every variant-reachable length,
    // including tiny lengths where the backend declines and the
    // dispatch must fall back to the scalar butterflies.
    auto [b, bits] = GetParam();
    for (std::size_t n : {std::size_t(4), std::size_t(8),
                          std::size_t(64), std::size_t(2048)}) {
        u64 q = generateNttPrimes(bits, 1, 2 * n)[0];
        ntt::NttContext ctx(n, q);
        Rng rng(2 * n + static_cast<u64>(bits));
        auto a = randomSpan(rng, n, q);
        auto ref = a;
        {
            BackendGuard g(Backend::Scalar);
            ctx.forward(ref.data(), ntt::NttVariant::Butterfly);
        }
        auto va = a;
        {
            BackendGuard g(b);
            ctx.forward(va.data(), ntt::NttVariant::Butterfly);
        }
        EXPECT_EQ(va, ref) << backendName(b) << " fwd n=" << n;
        {
            BackendGuard g(b);
            ctx.inverse(va.data(), ntt::NttVariant::Butterfly);
        }
        EXPECT_EQ(va, a) << backendName(b) << " inv n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackendsNttLanes, SimdNtt,
                         ::testing::ValuesIn(nttLanes()), laneName);

} // namespace
} // namespace tensorfhe::simd
