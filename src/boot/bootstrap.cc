#include "boot/bootstrap.hh"

#include <cmath>
#include <tuple>

#include "ckks/rotations.hh"
#include "common/logging.hh"
#include "trace/trace.hh"

namespace tensorfhe::boot
{

namespace
{

/**
 * The fixed part of the sine pre-scale kappa = pi * hidden_scale /
 * (q0 * 2^r), folded into the C2S plan's diagonals: with hidden =
 * pts the factor is exact, and the runtime hidden/pts remainder is
 * pure scale metadata (bootstrapBatch).
 */
double
c2sFactor(const ckks::CkksContext &ctx, const SineConfig &sine)
{
    return M_PI * ctx.params().scale()
        / (static_cast<double>(ctx.tower().prime(0))
           * std::exp2(sine.doublings));
}

} // namespace

ckks::Plaintext
minusIMonomial(const ckks::CkksContext &ctx, std::size_t level_count)
{
    return ctx.encoder().encodeConstant(Complex(0, -1), 1.0,
                                        level_count);
}

std::pair<std::vector<ckks::Ciphertext>, std::vector<ckks::Ciphertext>>
coeffToSlotSplit(const batch::BatchedEvaluator &beval,
                 const LinearTransformPlan &c2s,
                 const ckks::Plaintext &minus_i,
                 const std::vector<ckks::Ciphertext> &cts)
{
    auto w = c2s.applyBatch(beval, cts);
    auto conj_w = beval.dispatcher().conjugate(w.data(), w.size());
    auto t_v = beval.multiplyPlain(beval.sub(w, conj_w), minus_i);
    beval.addInPlace(w, conj_w);
    return {std::move(w), std::move(t_v)};
}

Bootstrapper::Bootstrapper(const ckks::CkksContext &ctx, SineConfig sine,
                           std::size_t landing)
    : ctx_(ctx), sine_(sine),
      landing_(landing != 0 ? landing : maxLanding(ctx, sine)),
      u_(LinearTransformPlan::specialFft(ctx)),
      c2s_(LinearTransformPlan::specialFftInverse(
          ctx, c2sFactor(ctx, sine))),
      minusI_(minusIMonomial(ctx, raisedLevelCount() - 1))
{
    // maxLanding() rejects chains too short to bootstrap at all.
    requireArg(landing_ <= maxLanding(ctx, sine),
               "bootstrap landing ", landing_, " above the highest, ",
               maxLanding(ctx, sine));
}

std::vector<s64>
Bootstrapper::requiredRotations(std::size_t slots)
{
    // The BSGS plans only rotate by baby steps b in [1, g) and giant
    // multiples of g = ceil(sqrt(slots)) — O(sqrt(slots)) switch keys
    // instead of one per diagonal. The analytic set here covers any
    // diagonal pattern of a slots x slots matrix: the plan's stride
    // chooser may pick a LARGER stride than g, but only when the
    // resulting steps stay inside this root pattern (babies < g,
    // giants multiples of g — the containment check in
    // chooseGiantStride), so these grants always suffice.
    auto g = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(slots))));
    std::vector<s64> baby, giant;
    for (std::size_t b = 1; b < g && b < slots; ++b)
        baby.push_back(static_cast<s64>(b));
    for (std::size_t k = g; k < slots; k += g)
        giant.push_back(static_cast<s64>(k));
    return ckks::unionRotationSteps({baby, giant}, slots);
}

std::size_t
Bootstrapper::postRaiseLevelCost(const SineConfig &sine)
{
    // CoeffToSlot (1; the split and kappa spend none) + sine +
    // recombine (1).
    return sineLevelsUsed(sine) + 2;
}

std::size_t
Bootstrapper::maxLanding(const ckks::CkksContext &ctx,
                         const SineConfig &sine)
{
    std::size_t full = ctx.tower().numQ();
    requireArg(full > postRaiseLevelCost(sine),
               "parameter chain too short for bootstrapping: need > ",
               postRaiseLevelCost(sine), " levels, have ", full);
    return full - postRaiseLevelCost(sine);
}

std::size_t
Bootstrapper::raisedLevelCount() const
{
    return landing_ + postRaiseLevelCost(sine_);
}

ckks::Ciphertext
Bootstrapper::modRaise(const ckks::Ciphertext &ct) const
{
    const auto &tower = ctx_.tower();
    std::size_t n = ctx_.n();
    u64 q0 = tower.prime(0);
    auto v = ctx_.nttVariant();

    auto lift = [&](const rns::RnsPolynomial &poly) {
        rns::RnsPolynomial coeff = poly;
        coeff.truncateLimbs(1);
        coeff.toCoeff(v);
        std::vector<s64> centered(n);
        for (std::size_t c = 0; c < n; ++c) {
            u64 r = coeff.limb(0)[c];
            centered[c] = r <= q0 / 2
                ? static_cast<s64>(r)
                : -static_cast<s64>(q0 - r);
        }
        auto out = rns::liftSigned(tower, ctx_.qLimbs(raisedLevelCount()),
                                   centered);
        out.toEval(v);
        return out;
    };

    ckks::Ciphertext out;
    out.c0 = lift(ct.c0);
    out.c1 = lift(ct.c1);
    out.scale = ct.scale;
    return out;
}

Bootstrapper::Refresh
Bootstrapper::predictRefresh(const ckks::CkksContext &ctx,
                             const SineConfig &sine,
                             std::size_t input_level_count,
                             std::size_t landing)
{
    requireArg(input_level_count >= 2,
               "SlotToCoeff needs at least one spare level");
    requireArg(landing >= 1 && landing <= maxLanding(ctx, sine),
               "bootstrap landing ", landing, " outside [1, ",
               maxLanding(ctx, sine), "]");
    // The recombine CMULT + RESCALE off limb `landing` steers the
    // output to exactly this scale. (The input scale cancels: kappa
    // is pure scale metadata and the steering is exact.)
    double pts = ctx.params().scale();
    Refresh r;
    r.scale = pts * pts / static_cast<double>(ctx.tower().prime(landing));
    r.levelCount = landing;
    return r;
}

EvalOpCounts
Bootstrapper::modeledOps() const
{
    EvalOpCounts c;
    c += u_.modeledApplyOps();
    c += c2s_.modeledApplyOps();
    // The split: one conjugation (a hoisted key switch), w + conj w,
    // w - conj w and the -i CMULT.
    c.conjugate += 1;
    c.ksHoist += 1;
    c.ksTail += 1;
    c.hadd += 2;
    c.cmult += 1;
    c += 2.0 * sineModeledOps(sine_);
    // Recombine: two CMULTs (back, i*back), one HADD, one RESCALE.
    c.cmult += 2;
    c.hadd += 1;
    c.rescale += 1;
    return c;
}

std::vector<ckks::Ciphertext>
Bootstrapper::bootstrapBatch(const batch::BatchedEvaluator &beval,
                             const std::vector<ckks::Ciphertext> &cts)
    const
{
    if (cts.empty())
        return {};
    requireArg(cts[0].levelCount() >= 2,
               "SlotToCoeff needs at least one spare level");
    for (const auto &ct : cts)
        requireArg(ct.levelCount() == cts[0].levelCount()
                       && std::abs(ct.scale - cts[0].scale)
                           <= 1e-6 * cts[0].scale,
                   "bootstrap batch requires a uniform level and "
                   "scale");
    u64 q0 = ctx_.tower().prime(0);
    double pts = ctx_.params().scale();

    trace::TraceSpan bootSpan("boot", "bootstrap-batch");
    bootSpan.arg("batch", static_cast<s64>(cts.size()))
        .arg("level", static_cast<s64>(cts[0].levelCount()));

    // Stage 1: SlotToCoeff — coefficients now hold Re/Im of slots.
    std::vector<ckks::Ciphertext> packed;
    {
        TFHE_TRACE_SPAN("boot", "s2c");
        packed = u_.applyBatch(beval, cts);
    }

    // Stage 2: ModRaising from q0 to the raised chain. The hidden
    // coefficients become m + q0*I for small integers I.
    std::vector<ckks::Ciphertext> raised;
    {
        TFHE_TRACE_SPAN("boot", "mod-raise");
        auto low = beval.dropToLevelCount(packed, 1);
        raised.reserve(low.size());
        for (const auto &ct : low)
            raised.push_back(modRaise(ct));
    }

    // Stage 3: CoeffToSlot + Re/Im split - the plan carries the fixed
    // factor pi*pts/(q0*2^r) of the sine pre-scale kappa in its
    // diagonals; the remaining hidden_scale/pts ratio is pure scale
    // metadata, so slot values become exactly kappa * 2Re / kappa *
    // 2Im of the hidden coefficients with no split level.
    double hidden_scale = packed[0].scale;
    double t_scale = pts * pts
        / static_cast<double>(
            ctx_.tower().prime(raisedLevelCount() - 1));
    std::vector<ckks::Ciphertext> t_u, t_v;
    {
        TFHE_TRACE_SPAN("boot", "c2s-split");
        std::tie(t_u, t_v) =
            coeffToSlotSplit(beval, c2s_, minusI_, raised);
    }
    // Stored scale is hidden*pts/q_last; claiming pts^2/q_last reads
    // the values multiplied by hidden/pts - the kappa remainder.
    for (auto &ct : t_u)
        ct.scale = t_scale;
    for (auto &ct : t_v)
        ct.scale = t_scale;

    // Stage 4: Sine Evaluation on both streams.
    std::vector<ckks::Ciphertext> sin_u, sin_v;
    {
        TFHE_TRACE_SPAN("boot", "sine");
        sin_u = evalScaledSine(ctx_, beval, t_u, sine_);
        sin_v = evalScaledSine(ctx_, beval, t_v, sine_);
    }

    // Recombine: out = (q0 / (4 pi hidden)) * (C_u + i*C_v) with
    // C = 2 sin; slot values return to z_j = Re z_j + i Im z_j. The
    // constants' scale steers the output to predictRefresh's scale.
    TFHE_TRACE_SPAN("boot", "recombine");
    std::size_t lc = sin_u[0].levelCount();
    auto refresh = predictRefresh(ctx_, sine_, cts[0].levelCount(),
                                  landing_);
    double back = q0 / (4.0 * M_PI * hidden_scale);
    double pt_scale = refresh.scale
        * static_cast<double>(ctx_.tower().prime(lc - 1))
        / sin_u[0].scale;
    const auto &encoder = ctx_.encoder();
    auto out = beval.multiplyPlain(
        sin_u, encoder.encodeConstant(Complex(back, 0), pt_scale, lc));
    beval.addInPlace(out, beval.multiplyPlain(
                              sin_v, encoder.encodeConstant(
                                         Complex(0, back), pt_scale, lc)));
    beval.rescaleInPlace(out);
    for (auto &ct : out)
        ct.scale = refresh.scale; // exact by construction
    return out;
}

} // namespace tensorfhe::boot
