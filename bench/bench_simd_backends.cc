/**
 * @file
 * SIMD backend comparison bench: every backend the host supports runs
 * the same hot loops — the forward butterfly NTT, the span kernels of
 * the exec layer, and the row inner products of one whole key switch
 * — and the table prints one column per backend with the speedup over
 * the bit-identical scalar fallback. The two headline metrics CI gates
 * on (scripts/roll_bench.py, BENCH_TRAJECTORY.json):
 *
 *   ntt_simd_speedup          scalar / best-backend forward NTT
 *                             (floor 2.0)
 *   ks_inner_product_speedup  scalar / best-backend dotRows over one
 *                             key switch (floor 1.5)
 *
 * Every measurement runs the backends in turn, round after round, and
 * keeps each backend's minimum over max(reps, 15) rounds: machine
 * noise then falls on every column alike, and the minimum is robust
 * where a mean of consecutive runs is not (bench_keyswitch_hoist's
 * rule).
 *
 * Usage: bench_simd_backends [reps] [--json PATH]
 *                            [--trace PATH] [--metrics PATH]
 *   reps = timing rounds (at least 15 are run; CI passes 3).
 *   --json PATH appends the machine-readable object — the CI Release
 *   job collects BENCH_PR9.json this way.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/modarith.hh"
#include "common/primes.hh"
#include "common/rng.hh"
#include "ntt/ntt.hh"
#include "simd/simd.hh"

namespace
{

using namespace tensorfhe;

/** The shapes of one production-sized tower operation. */
constexpr std::size_t kN = 4096;     // polynomial length
constexpr std::size_t kBatch = 8;    // polys per NTT dispatch
constexpr std::size_t kDigits = 4;   // key-switch digit rows
constexpr std::size_t kLimbs = 10;   // key-switch union limbs (L + K)
constexpr int kInnerIters = 32;      // span-kernel loops per sample
constexpr int kMinRounds = 15;

std::vector<u64>
randomSpan(Rng &rng, std::size_t n, u64 q)
{
    std::vector<u64> a(n);
    for (auto &c : a)
        c = rng.uniform(q);
    return a;
}

/** Per-backend seconds for one measurement, scalar first. */
struct Column
{
    std::string name;
    double seconds = 0;
};

/**
 * Each backend's minimum seconds per unit of `fn` (which does `units`
 * units of work under the active backend), over `rounds` rounds that
 * run every backend once, in turn.
 */
std::vector<Column>
timeInterleaved(const std::vector<simd::Backend> &backends, int rounds,
                double units, const std::function<void()> &fn)
{
    std::vector<Column> cols;
    for (simd::Backend b : backends)
        cols.push_back({simd::backendName(b), 0});
    for (int r = 0; r < rounds; ++r)
        for (std::size_t i = 0; i < backends.size(); ++i) {
            simd::setBackend(backends[i]);
            double t = bench::timeSeconds(fn) / units;
            if (cols[i].seconds == 0 || t < cols[i].seconds)
                cols[i].seconds = t;
        }
    return cols;
}

double
speedupVsScalar(const std::vector<Column> &cols, std::size_t i)
{
    return cols[i].seconds > 0 ? cols[0].seconds / cols[i].seconds
                               : 0.0;
}

void
printColumns(const char *what, const std::vector<Column> &cols)
{
    std::printf("  %-26s", what);
    for (std::size_t i = 0; i < cols.size(); ++i)
        std::printf("  %10s (%4.2fx)",
                    bench::fmtSeconds(cols[i].seconds).c_str(),
                    speedupVsScalar(cols, i));
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    auto obs = bench::ObsFlags::parse(argc, argv);
    int reps = 5;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else
            reps = std::atoi(argv[i]);
    }
    if (reps < 1)
        reps = 1;
    int rounds = std::max(reps, kMinRounds);

    auto backends = simd::supportedBackends();
    std::string names;
    for (simd::Backend b : backends)
        names += std::string(names.empty() ? "" : ", ")
            + simd::backendName(b);
    bench::banner("bench_simd_backends — vector backends vs scalar "
                  "(host: " + names + "; min of "
                  + std::to_string(rounds) + " interleaved rounds)");

    obs.armIfRequested();

    auto primes = generateNttPrimes(30, kLimbs, 2 * kN);
    u64 q = primes[0];
    Modulus mod(q);
    ntt::NttContext ctx(kN, q);
    Rng rng(9);
    auto base = randomSpan(rng, kN * kBatch, q);

    simd::Backend saved = simd::activeBackend();
    simd::Backend best = backends.back();

    // ------------------------------------------------------------ NTT
    bench::section("forward NTT (butterfly, n=4096, batch=8)");
    std::vector<Column> ntt_cols;
    {
        std::vector<u64> work(base);
        std::vector<u64 *> ptrs(kBatch);
        for (std::size_t s = 0; s < kBatch; ++s)
            ptrs[s] = work.data() + s * kN;
        ntt_cols = timeInterleaved(backends, rounds, kBatch, [&] {
            std::copy(base.begin(), base.end(), work.begin());
            ctx.forwardBatch(ptrs.data(), kBatch,
                             ntt::NttVariant::Butterfly);
        });
    }
    printColumns("fwd NTT / poly", ntt_cols);

    // ---------------------------------------------------- span kernels
    bench::section("span kernels (n=4096 spans, per pass)");
    std::vector<Column> add_cols, mul_cols, shoup_cols;
    {
        auto a0 = randomSpan(rng, kN, q);
        auto b0 = randomSpan(rng, kN, q);
        auto a = a0;
        u64 w = rng.uniform(q);
        u64 w_shoup = shoupPrecompute(w, q);
        add_cols = timeInterleaved(backends, rounds, kInnerIters, [&] {
            const simd::Ops &v = simd::ops();
            for (int i = 0; i < kInnerIters; ++i)
                v.addSpan(a.data(), b0.data(), kN, q);
        });
        mul_cols = timeInterleaved(backends, rounds, kInnerIters, [&] {
            const simd::Ops &v = simd::ops();
            for (int i = 0; i < kInnerIters; ++i)
                v.mulSpan(a.data(), b0.data(), kN, mod);
        });
        shoup_cols = timeInterleaved(backends, rounds, kInnerIters, [&] {
            const simd::Ops &v = simd::ops();
            for (int i = 0; i < kInnerIters; ++i)
                v.mulShoup(a.data(), w, w_shoup, kN, q);
        });
    }
    printColumns("addSpan", add_cols);
    printColumns("mulSpan (Barrett)", mul_cols);
    printColumns("mulShoup", shoup_cols);

    // ------------------------------------- key-switch inner product
    bench::section("key-switch inner product (dotRows, dnum="
                   + std::to_string(kDigits) + ", "
                   + std::to_string(kLimbs) + " union limbs)");
    std::vector<Column> ks_cols;
    {
        // Per union limb: the digits u, the key halves kb/ka, and the
        // two accumulators, each limb on its own tower prime.
        std::vector<Modulus> mods;
        std::vector<std::vector<u64>> u, kb, ka, acc0, acc1;
        std::vector<const u64 *> rows; // per limb: u, kb, ka rows
        for (std::size_t i = 0; i < kLimbs; ++i) {
            mods.emplace_back(primes[i]);
            acc0.emplace_back(kN);
            acc1.emplace_back(kN);
            for (std::size_t d = 0; d < kDigits; ++d) {
                u.push_back(randomSpan(rng, kN, primes[i]));
                kb.push_back(randomSpan(rng, kN, primes[i]));
                ka.push_back(randomSpan(rng, kN, primes[i]));
            }
        }
        for (std::size_t i = 0; i < kLimbs; ++i)
            for (auto *t : {&u, &kb, &ka})
                for (std::size_t d = 0; d < kDigits; ++d)
                    rows.push_back((*t)[i * kDigits + d].data());
        ks_cols = timeInterleaved(backends, rounds, 1, [&] {
            const simd::Ops &v = simd::ops();
            for (std::size_t i = 0; i < kLimbs; ++i) {
                const u64 *const *r = rows.data() + 3 * kDigits * i;
                v.dotRows(acc0[i].data(), acc1[i].data(), r,
                          r + kDigits, r + 2 * kDigits, kDigits, kN,
                          mods[i]);
            }
        });
    }
    printColumns("dotRows / key switch", ks_cols);

    simd::setBackend(saved);

    // ------------------------------------------------------- headlines
    std::size_t best_i = backends.size() - 1;
    double ntt_speedup = speedupVsScalar(ntt_cols, best_i);
    double ks_speedup = speedupVsScalar(ks_cols, best_i);
    bench::section("headlines");
    std::printf("  best backend:              %s\n",
                simd::backendName(best));
    std::printf("  ntt_simd_speedup:          %.2fx (floor 2.0)\n",
                ntt_speedup);
    std::printf("  ks_inner_product_speedup:  %.2fx (floor 1.5)\n",
                ks_speedup);

    if (!json_path.empty()) {
        bench::JsonWriter json("simd_backends");
        json.add("reps", static_cast<double>(reps))
            .add("timing_rounds", static_cast<double>(rounds))
            .add("n", static_cast<double>(kN))
            .add("best_backend", simd::backendName(best))
            .add("ntt_simd_speedup", ntt_speedup)
            .add("ks_inner_product_speedup", ks_speedup);
        for (std::size_t i = 0; i < backends.size(); ++i) {
            std::string suffix =
                std::string("_s_") + ntt_cols[i].name;
            json.add("ntt_fwd" + suffix, ntt_cols[i].seconds)
                .add("add_span" + suffix, add_cols[i].seconds)
                .add("mul_span" + suffix, mul_cols[i].seconds)
                .add("mul_shoup" + suffix, shoup_cols[i].seconds)
                .add("ks_inner_product" + suffix, ks_cols[i].seconds);
        }
        if (!json.appendTo(json_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("  wrote %s\n", json_path.c_str());
    }

    obs.finish();
    return 0;
}
