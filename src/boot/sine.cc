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
    so the [3, 6] bound is enforced here, before any planner indexes
    the ladder (construction-time misconfiguration must fail with
    this error, not out-of-bounds UB). */
std::vector<std::size_t>
ladderDepths(int terms)
{
    requireArg(terms >= 3 && terms <= 6,
               "taylorTerms must be in [3, 6], got ", terms);
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
    // odd product (1), the double-angle chain, the final halving (1).
    return deepest + 2 + static_cast<std::size_t>(cfg.doublings) + 1;
}

EvalOpCounts
sineModeledOps(const SineConfig &cfg)
{
    double terms = static_cast<double>(cfg.taylorTerms);
    double d = static_cast<double>(cfg.doublings);
    EvalOpCounts c;
    // HMULTs: the ladder (terms - 1), the odd product, the
    // double-angle S products (d) and S^2 products (d - 1); each
    // relinearizes through one hoist + tail and rescales.
    c.hmult = terms + 2 * d - 1;
    c.ksHoist = c.hmult;
    c.ksTail = c.hmult;
    // CMULTs: the 2(terms-1) coefficient steerings + final halving.
    c.cmult = 2 * terms - 1;
    c.rescale = c.hmult + c.cmult;
    // HAdds: term sums 2(terms-2), the two addConst(2), and the
    // addConst of each non-final double-angle step (d - 1).
    c.hadd = 2 * terms + d - 3;
    return c;
}

Cts
evalScaledSine(const ckks::CkksContext &ctx,
               const batch::BatchedEvaluator &beval, const Cts &ct_t,
               const SineConfig &cfg)
{
    requireArg(cfg.taylorTerms >= 3 && cfg.taylorTerms <= 6,
               "taylorTerms must be in [3, 6]");
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

    // Power ladder pw[k] = t^(2k), k in [1, terms).
    std::vector<Cts> pw(static_cast<std::size_t>(terms));
    pw[1] = multiplyRescale(ct_t, ct_t);
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

    // Work with S = 2 sin, C = 2 cos so the double-angle recurrence
    // S(2x) = S*C, C(2x) = 2 - S*S is constant-free.
    // S = t * (2 + sum_k (-1)^k * 2 t^(2k) / (2k+1)!),
    // C = 2 + sum_k (-1)^k * 2 t^(2k) / (2k)!.
    // multiplyConstToScale steers every term to one exact scale so
    // the sums are well-defined despite unequal prime chains.
    Cts s_inner, c_poly;
    for (int k = 1; k < terms; ++k) {
        double sign = k % 2 == 0 ? 1.0 : -1.0;
        double s_coeff = sign * 2.0 / factorial(2 * k + 1);
        double c_coeff = sign * 2.0 / factorial(2 * k);
        auto at_depth =
            drop(pw[static_cast<std::size_t>(k)], deepest);
        auto s_term =
            beval.multiplyConstToScale(at_depth, s_coeff, target);
        auto c_term =
            beval.multiplyConstToScale(at_depth, c_coeff, target);
        if (k == 1) {
            s_inner = std::move(s_term);
            c_poly = std::move(c_term);
        } else {
            s_inner = beval.add(s_inner, s_term);
            c_poly = beval.add(c_poly, c_term);
        }
    }
    s_inner = beval.addConst(s_inner, 2.0);
    c_poly = beval.addConst(c_poly, 2.0);

    auto s = multiplyRescale(drop(ct_t, s_inner), s_inner);
    auto c = drop(c_poly, s);

    for (int r = 0; r < cfg.doublings; ++r) {
        bool last = r == cfg.doublings - 1;
        auto s_next = multiplyRescale(s, c);
        if (!last) {
            auto ss = multiplyRescale(s, s);
            auto c_next = beval.negate(ss);
            c_next = beval.addConst(c_next, 2.0);
            c = drop(c_next, s_next);
        }
        s = s_next;
    }
    // sin = S / 2.
    return beval.multiplyConstToScale(s, 0.5, target);
}

} // namespace tensorfhe::boot
