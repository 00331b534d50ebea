#include "boot/sine.hh"

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace tensorfhe::boot
{

namespace
{

using Cts = std::vector<ckks::Ciphertext>;

double
factorial(int n)
{
    double f = 1;
    for (int i = 2; i <= n; ++i)
        f *= i;
    return f;
}

/** The ladder's level ledger: lvl[k] = levels below the input at
    which t^(2k) lands. Shared by the evaluation and the planners —
    so the [3, 7] bound is enforced here, before any planner indexes
    the ladder (construction-time misconfiguration must fail with
    this error, not out-of-bounds UB). */
std::vector<std::size_t>
ladderDepths(int terms)
{
    requireArg(terms >= 3 && terms <= 7,
               "taylorTerms must be in [3, 7], got ", terms);
    std::vector<std::size_t> depth(static_cast<std::size_t>(terms), 0);
    depth[1] = 1;
    for (int k = 2; k < terms; ++k) {
        int a = k / 2;
        int b = k - a;
        depth[static_cast<std::size_t>(k)] =
            std::max(depth[static_cast<std::size_t>(a)],
                     depth[static_cast<std::size_t>(b)])
            + 1;
    }
    return depth;
}

} // namespace

std::size_t
sineLevelsUsed(const SineConfig &cfg)
{
    auto depth = ladderDepths(cfg.taylorTerms);
    std::size_t deepest =
        depth[static_cast<std::size_t>(cfg.taylorTerms - 1)];
    // Ladder to the deepest power, the coefficient steering (1), the
    // double-angle chain.
    return deepest + 1 + static_cast<std::size_t>(cfg.doublings);
}

EvalOpCounts
sineModeledOps(const SineConfig &cfg)
{
    double terms = static_cast<double>(cfg.taylorTerms);
    double d = static_cast<double>(cfg.doublings);
    EvalOpCounts c;
    // HMULTs: the ladder (terms - 1) and one square per doubling;
    // each relinearizes through one hoist + tail and rescales.
    c.hmult = terms - 1 + d;
    c.ksHoist = c.hmult;
    c.ksTail = c.hmult;
    // CMULTs: the terms - 1 coefficient steerings.
    c.cmult = terms - 1;
    c.rescale = c.hmult + c.cmult;
    // HAdds: the shift, the term sum (terms - 2), the constant 2 and
    // the -2 of each doubling.
    c.hadd = terms + d;
    return c;
}

Cts
evalScaledSine(const ckks::CkksContext &ctx,
               const batch::BatchedEvaluator &beval, const Cts &ct_t,
               const SineConfig &cfg)
{
    requireArg(!ct_t.empty(), "empty sine batch");
    requireArg(ct_t[0].levelCount() > sineLevelsUsed(cfg),
               "not enough levels for sine evaluation: need > ",
               sineLevelsUsed(cfg), ", have ", ct_t[0].levelCount());
    TFHE_FAULT_POINT("boot/sine-stage");
    double target = ctx.params().scale();
    int terms = cfg.taylorTerms;

    auto drop = [&](const Cts &b, const Cts &a) {
        return beval.dropToLevelCount(b, a[0].levelCount());
    };
    auto multiplyRescale = [&](const Cts &a, const Cts &b) {
        return beval.rescale(beval.multiply(a, b));
    };

    // sin(2^r t) = cos(2^r x) with x = t - pi/2^(r+1).
    auto x = beval.addConst(ct_t, -M_PI / std::exp2(cfg.doublings + 1));

    // Power ladder pw[k] = x^(2k), k in [1, terms).
    std::vector<Cts> pw(static_cast<std::size_t>(terms));
    pw[1] = multiplyRescale(x, x);
    for (int k = 2; k < terms; ++k) {
        int a = k / 2;
        int b = k - a;
        const auto &deeper = pw[static_cast<std::size_t>(a)][0]
                        .levelCount()
                < pw[static_cast<std::size_t>(b)][0].levelCount()
            ? pw[static_cast<std::size_t>(a)]
            : pw[static_cast<std::size_t>(b)];
        pw[static_cast<std::size_t>(k)] = multiplyRescale(
            drop(pw[static_cast<std::size_t>(a)], deeper),
            drop(pw[static_cast<std::size_t>(b)], deeper));
    }
    const auto &deepest = pw[static_cast<std::size_t>(terms - 1)];

    // Work with C = 2 cos so the double-angle recurrence
    // C(2x) = C^2 - 2 needs no constant product:
    // C = 2 + sum_k (-1)^k * 2 x^(2k) / (2k)!.
    // multiplyConstToScale steers every term to one exact scale so
    // the sum is well-defined despite unequal prime chains.
    Cts c;
    for (int k = 1; k < terms; ++k) {
        double sign = k % 2 == 0 ? 1.0 : -1.0;
        auto term = beval.multiplyConstToScale(
            drop(pw[static_cast<std::size_t>(k)], deepest),
            sign * 2.0 / factorial(2 * k), target);
        c = k == 1 ? std::move(term) : beval.add(c, term);
    }
    c = beval.addConst(c, 2.0);

    for (int r = 0; r < cfg.doublings; ++r)
        c = beval.addConst(multiplyRescale(c, c), -2.0);
    return c;
}

} // namespace tensorfhe::boot
