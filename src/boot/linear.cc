#include "boot/linear.hh"

#include <algorithm>
#include <cmath>

#include "batch/executor.hh"
#include "ckks/rotations.hh"
#include "common/logging.hh"
#include "perf/cost_model.hh"

namespace tensorfhe::boot
{

SlotMatrix
specialFftMatrix(const ckks::CkksEncoder &encoder)
{
    std::size_t slots = encoder.slots();
    SlotMatrix m(slots, std::vector<Complex>(slots));
    // Column k = fftSpecial(e_k): the map is C-linear.
    for (std::size_t k = 0; k < slots; ++k) {
        std::vector<Complex> e(slots, Complex(0, 0));
        e[k] = Complex(1, 0);
        encoder.fftSpecial(e);
        for (std::size_t j = 0; j < slots; ++j)
            m[j][k] = e[j];
    }
    return m;
}

SlotMatrix
specialFftInverseMatrix(const ckks::CkksEncoder &encoder)
{
    std::size_t slots = encoder.slots();
    SlotMatrix m(slots, std::vector<Complex>(slots));
    for (std::size_t k = 0; k < slots; ++k) {
        std::vector<Complex> e(slots, Complex(0, 0));
        e[k] = Complex(1, 0);
        encoder.fftSpecialInv(e);
        for (std::size_t j = 0; j < slots; ++j)
            m[j][k] = e[j];
    }
    return m;
}

std::vector<Complex>
applyPlain(const SlotMatrix &m, const std::vector<Complex> &z)
{
    std::size_t slots = m.size();
    std::vector<Complex> y(slots, Complex(0, 0));
    for (std::size_t j = 0; j < slots; ++j)
        for (std::size_t k = 0; k < slots; ++k)
            y[j] += m[j][k] * z[k];
    return y;
}

namespace
{

/**
 * Pick the BSGS giant stride for the given nonzero diagonal set by
 * the double-hoisted cost model: with deferred ModDowns the baby
 * steps are much cheaper than giant steps (which each pay a c1
 * ModDown + their own hoisted head), so sparse / structured diagonal
 * populations often prefer a stride above the classic
 * ceil(sqrt(slots)) — fewer giant groups, fewer ModUps.
 *
 * The decision procedure itself lives in
 * perf::CostModel::chooseBsgsStride (one argmin shared with the
 * global execution planner, so a planned net is costed with exactly
 * the stride its compiled transforms will run). StrideOptions
 * selects the costing level (0 = full tower, the historical default)
 * and whether non-root strides must stay inside the root-based key
 * pattern of analytic pre-generated key grants.
 */
std::size_t
chooseGiantStride(const ckks::CkksContext &ctx,
                  const std::vector<std::size_t> &diag_idx,
                  std::size_t slots, const StrideOptions &opt)
{
    std::size_t costing_level =
        opt.costingLevel != 0 ? opt.costingLevel : ctx.tower().numQ();
    perf::CostModel model(ctx.params());
    return model
        .chooseBsgsStride(costing_level, diag_idx, slots,
                          opt.restrictToRootPattern)
        .g;
}

} // namespace

namespace
{

/** The nonzero diagonals of one matrix: (index, values) pairs. */
void
extractDiagonals(const SlotMatrix &m, std::size_t slots,
                 std::vector<std::size_t> &idx,
                 std::vector<std::vector<Complex>> &vals)
{
    for (std::size_t d = 0; d < slots; ++d) {
        // diag_d[j] = M[j][(j + d) mod slots].
        std::vector<Complex> diag(slots);
        double mag = 0;
        for (std::size_t j = 0; j < slots; ++j) {
            diag[j] = m[j][(j + d) % slots];
            mag = std::max(mag, std::abs(diag[j]));
        }
        if (mag < 1e-12)
            continue; // skip empty diagonals
        idx.push_back(d);
        vals.push_back(std::move(diag));
    }
}

} // namespace

LinearTransformPlan::LinearTransformPlan(const ckks::CkksContext &ctx,
                                         SlotMatrix m)
    : LinearTransformPlan(ctx, std::move(m), StrideOptions{})
{}

LinearTransformPlan::LinearTransformPlan(const ckks::CkksContext &ctx,
                                         SlotMatrix m,
                                         const StrideOptions &opt,
                                         std::vector<s64> fold_steps)
    : ctx_(ctx), folds_(std::move(fold_steps))
{
    std::size_t slots = ctx.slots();
    TFHE_ASSERT(m.size() == slots);

    // Extract the nonzero diagonals first (stride-independent), then
    // pick the giant stride from their population.
    std::vector<std::size_t> idx;
    std::vector<std::vector<Complex>> vals;
    extractDiagonals(m, slots, idx, vals);
    TFHE_ASSERT(!idx.empty(), "matrix was entirely zero");
    g_ = chooseGiantStride(ctx, idx, slots, opt);

    // BSGS regrouping: diagonal d = k*g + b stored pre-rotated by
    // -k*g so the giant rotation can be applied after the plaintext
    // products. Ascending d is already (k, b) order, which fixes the
    // cache layout of encodedDiagonals().
    for (std::size_t i = 0; i < idx.size(); ++i) {
        std::size_t d = idx[i];
        Diagonal entry;
        entry.k = d / g_;
        entry.b = d % g_;
        // rot_{-k*g}(diag): slot j of the stored diagonal lands back
        // on diag[j] after the giant rotation by k*g.
        entry.values.resize(slots);
        std::size_t shift = entry.k * g_; // < slots since d < slots
        for (std::size_t j = 0; j < slots; ++j)
            entry.values[j] = vals[i][(j + slots - shift) % slots];
        diags_.push_back(std::move(entry));
    }

    // The distinct rotation steps the transform touches, fixed once
    // here.
    std::vector<s64> baby, giant;
    for (const Diagonal &d : diags_) {
        if (d.b != 0)
            baby.push_back(static_cast<s64>(d.b));
        if (d.k != 0)
            giant.push_back(static_cast<s64>(d.k * g_));
    }
    babySteps_ = ckks::normalizeRotationSteps(std::move(baby));
    giantSteps_ = ckks::normalizeRotationSteps(std::move(giant));

    std::size_t groups = 0;
    std::size_t last_k = diags_[0].k + 1;
    for (const Diagonal &d : diags_) {
        if (d.k != last_k) {
            ++groups;
            last_k = d.k;
        }
    }
    groupCount_ = groups;
}

LinearTransformPlan
LinearTransformPlan::specialFft(const ckks::CkksContext &ctx)
{
    return LinearTransformPlan(ctx, specialFftMatrix(ctx.encoder()));
}

LinearTransformPlan
LinearTransformPlan::specialFftInverse(const ckks::CkksContext &ctx,
                                       double factor)
{
    auto m = specialFftInverseMatrix(ctx.encoder());
    for (auto &row : m)
        for (auto &v : row)
            v *= factor;
    return LinearTransformPlan(ctx, std::move(m));
}

std::vector<std::size_t>
LinearTransformPlan::diagonalIndices() const
{
    std::vector<std::size_t> idx;
    idx.reserve(diags_.size());
    for (const auto &d : diags_)
        idx.push_back(d.k * g_ + d.b);
    return idx;
}

std::vector<s64>
LinearTransformPlan::requiredRotations() const
{
    return ckks::unionRotationSteps({babySteps_, giantSteps_, folds_},
                                    ctx_.slots());
}

EvalOpCounts
LinearTransformPlan::modeledAccumOps() const
{
    double baby = static_cast<double>(babySteps_.size());
    double shifted = static_cast<double>(giantSteps_.size());
    double groups = static_cast<double>(groupCount_);
    double diags = static_cast<double>(diags_.size());
    EvalOpCounts c;
    c.hrotate = baby + shifted;
    c.ksHoist = (baby > 0 ? 1 : 0) + shifted;
    c.ksTail = baby + shifted;
    c.cmult = diags;
    // Entry-level HAdds within each group plus one inter-group HAdd
    // per group (the caller subtracts the very first group's).
    c.hadd = (diags - groups) + groups;
    return c;
}

EvalOpCounts
LinearTransformPlan::modeledApplyOps() const
{
    EvalOpCounts c = modeledAccumOps();
    c += modeledFoldOps();
    c.hadd -= 1; // the first group initializes the accumulator
    c.rescale = 1;
    return c;
}

EvalOpCounts
LinearTransformPlan::modeledFoldOps() const
{
    auto folds = static_cast<double>(folds_.size());
    EvalOpCounts c;
    c.hrotate = folds;
    c.ksHoist = folds;
    c.ksTail = folds;
    c.hadd = folds;
    return c;
}

std::size_t
LinearTransformPlan::cachedLevelCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
}

const std::vector<ckks::Plaintext> &
LinearTransformPlan::encodedDiagonals(std::size_t level_count) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(level_count);
    if (it != cache_.end())
        return it->second;
    // Diagonals are encoded over the key-switch union basis of this
    // level so the double-hoisted path can multiply them into the
    // pre-ModDown (QP) accumulators; restricted to the q-limbs they
    // are bit-identical to a plain encode at this level.
    std::vector<ckks::Plaintext> pts;
    pts.reserve(diags_.size());
    double scale = ctx_.params().scale();
    auto union_limbs = ctx_.unionLimbs(level_count);
    for (const Diagonal &d : diags_)
        pts.push_back(ctx_.encoder().encodeOnLimbs(d.values, scale,
                                                   union_limbs));
    return cache_.emplace(level_count, std::move(pts)).first->second;
}

exec::BsgsProgram
LinearTransformPlan::program(std::size_t level_count) const
{
    const auto &pts = encodedDiagonals(level_count);
    exec::BsgsProgram prog;
    prog.babySteps = babySteps_;
    prog.foldSteps = folds_;
    for (std::size_t i = 0; i < diags_.size();) {
        std::size_t k = diags_[i].k;
        exec::BsgsGroup group;
        group.shift = static_cast<s64>(k * g_);
        for (; i < diags_.size() && diags_[i].k == k; ++i)
            group.entries.push_back(
                {static_cast<s64>(diags_[i].b), &pts[i]});
        prog.groups.push_back(std::move(group));
    }
    return prog;
}

std::vector<ckks::Ciphertext>
LinearTransformPlan::applyBatch(
    const batch::BatchedEvaluator &beval,
    const std::vector<ckks::Ciphertext> &cts) const
{
    if (cts.empty())
        return {};
    std::size_t lc = cts[0].levelCount();
    for (const auto &ct : cts)
        requireArg(ct.levelCount() == lc,
                   "batched ops require a uniform level");
    return beval.dispatcher().applyBsgs(program(lc), cts.data(),
                                        cts.size());
}

} // namespace tensorfhe::boot
