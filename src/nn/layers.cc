#include "nn/layers.hh"

#include <algorithm>
#include <cmath>

#include "ckks/rotations.hh"
#include "common/logging.hh"
#include "common/modarith.hh"
#include "graph/builder.hh"
#include "perf/cost.hh"

namespace tensorfhe::nn
{

namespace
{

/**
 * The exact scale produced by multiplyPlain(pt at scale ps) followed
 * by rescale at level `lc` — computed with the same double
 * arithmetic as the evaluator so compiled metas match runtime bits.
 */
double
mulRescaleScale(const ckks::CkksContext &ctx, double ct_scale,
                double pt_scale, std::size_t lc)
{
    return ct_scale * pt_scale
        / static_cast<double>(ctx.tower().prime(lc - 1));
}

} // namespace

void
Layer::requireCompiled() const
{
    requireState(compiled_, "layer used before compile()");
}

std::vector<bool>
Layer::liveInputChunks(const std::vector<bool> &out_live) const
{
    requireCompiled();
    requireArg(out_live.size() == out_.chunkCount,
               name(), ": liveness mask size mismatch");
    if (in_.chunkCount == out_.chunkCount)
        return out_live; // chunk-aligned (elementwise / pass-through)
    // Shape-changing layers without a finer override: every input
    // chunk feeds the output, so any live output keeps them all.
    bool any = std::find(out_live.begin(), out_live.end(), true)
        != out_live.end();
    return std::vector<bool>(in_.chunkCount, any);
}

TensorMeta
Layer::rebind(const ckks::CkksContext &ctx, const TensorMeta &in)
{
    compiled_ = false;
    resetPlans();
    return compile(ctx, in);
}

// ------------------------------------------------------------------
// MatvecLayer

TensorMeta
MatvecLayer::compile(const ckks::CkksContext &ctx, const TensorMeta &in)
{
    requireArg(!compiled_, "layer compiled twice");
    std::size_t slots = ctx.slots();
    requireArg(in.chunkCount >= 1, name(), " needs >= 1 input chunk");
    requireArg(in.layout.slotSpan(in.shape) <= in.chunkCount * slots,
               name(), " input layout exceeds the chunked slot "
                       "capacity");
    requireArg(in.levelCount >= 2,
               name(), " needs one multiplicative level, input is at "
                       "level count ",
               in.levelCount);

    in_ = in;
    // Output capacity must be fixed before buildMatrix(): the matrix
    // writers index rows by output slot.
    out_.shape = outputShape(in.shape);
    std::size_t out_chunks =
        (out_.shape.numel() + slots - 1) / slots;
    std::size_t rows = out_chunks * slots;
    std::size_t cols = in.chunkCount * slots;

    auto m = buildMatrix(ctx, in, rows, cols);

    // Slice the global matrix into per-(out-chunk, in-chunk) blocks;
    // identically-zero blocks compile to no plan (and no work).
    blocks_.resize(out_chunks);
    for (std::size_t i = 0; i < out_chunks; ++i) {
        blocks_[i].resize(in.chunkCount);
        bool any = false;
        for (std::size_t j = 0; j < in.chunkCount; ++j) {
            boot::SlotMatrix block(
                slots,
                std::vector<ckks::Complex>(slots, ckks::Complex(0, 0)));
            double mag = 0;
            for (std::size_t r = 0; r < slots; ++r)
                for (std::size_t c = 0; c < slots; ++c) {
                    block[r][c] = m[i * slots + r][j * slots + c];
                    mag = std::max(mag, std::abs(block[r][c]));
                }
            if (mag < 1e-12)
                continue;
            boot::StrideOptions opt;
            if (plannedStrides_) {
                opt.costingLevel = in.levelCount;
                opt.restrictToRootPattern = false;
            }
            blocks_[i][j] =
                std::make_unique<boot::LinearTransformPlan>(
                    ctx, std::move(block), opt);
            any = true;
        }
        requireArg(any, name(), " output chunk ", i,
                   " receives no input (all blocks zero)");
    }

    out_.layout = SlotLayout::contiguous(out_.shape);
    out_.chunkCount = out_chunks;
    out_.levelCount = in.levelCount - 1;
    out_.scale = mulRescaleScale(ctx, in.scale, ctx.params().scale(),
                                 in.levelCount);

    auto bias = biasVector();
    biases_.assign(out_chunks, std::nullopt);
    if (!bias.empty()) {
        requireArg(bias.size() == out_.shape.numel(),
                   name(), " bias size mismatch");
        for (std::size_t i = 0; i < out_chunks; ++i) {
            std::vector<ckks::Complex> z(slots, ckks::Complex(0, 0));
            bool any = false;
            for (std::size_t j = 0; j < bias.size(); ++j) {
                std::size_t slot = out_.layout.slotOf(out_.shape, j);
                if (slot / slots != i)
                    continue;
                z[slot % slots] = ckks::Complex(bias[j], 0);
                any = true;
            }
            if (any)
                biases_[i] = ctx.encoder().encode(z, out_.scale,
                                                  out_.levelCount);
        }
    }
    compiled_ = true;
    return out_;
}

std::vector<s64>
MatvecLayer::requiredRotations() const
{
    requireCompiled();
    std::vector<std::vector<s64>> lists;
    for (const auto &row : blocks_)
        for (const auto &b : row)
            if (b)
                lists.push_back(b->requiredRotations());
    return ckks::unionRotationSteps(lists);
}

const boot::LinearTransformPlan &
MatvecLayer::plan() const
{
    requireCompiled();
    requireState(blocks_.size() == 1 && blocks_[0].size() == 1
                     && blocks_[0][0] != nullptr,
                 name(), " is a block matvec; use blockPlan()");
    return *blocks_[0][0];
}

const boot::LinearTransformPlan *
MatvecLayer::blockPlan(std::size_t out_chunk,
                       std::size_t in_chunk) const
{
    requireCompiled();
    requireArg(out_chunk < blocks_.size()
                   && in_chunk < blocks_[out_chunk].size(),
               "block index out of range");
    return blocks_[out_chunk][in_chunk].get();
}

graph::ValueId
MatvecLayer::lower(graph::GraphBuilder &b, graph::ValueId in) const
{
    requireCompiled();
    // One BsgsSum per output chunk (independent branches the
    // scheduler can overlap): every nonzero input block accumulates
    // on QP, one final ModDown + RESCALE, then the chunk's bias.
    auto chunks = b.unpack(in);
    std::vector<graph::ValueId> outs;
    outs.reserve(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        std::vector<const boot::LinearTransformPlan *> plans;
        std::vector<graph::ValueId> terms;
        for (std::size_t j = 0; j < blocks_[i].size(); ++j) {
            if (!blocks_[i][j])
                continue;
            plans.push_back(blocks_[i][j].get());
            terms.push_back(chunks[j]);
        }
        graph::ValueId v = b.bsgsSum(std::move(plans), terms);
        if (biases_[i])
            v = b.addPlain(v, *biases_[i]);
        outs.push_back(v);
    }
    return b.pack(outs);
}

EvalOpCounts
MatvecLayer::modeledOps() const
{
    requireCompiled();
    EvalOpCounts total;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        EvalOpCounts chunk;
        for (const auto &b : blocks_[i])
            if (b)
                chunk += b->modeledAccumOps();
        chunk.hadd -= 1; // the first group initializes the accumulator
        chunk.rescale += 1;
        if (biases_[i])
            chunk.hadd += 1;
        total += chunk;
    }
    return total;
}

perf::KernelCost
MatvecLayer::costAt(const perf::CostModel &model,
                    std::size_t input_lc) const
{
    requireCompiled();
    perf::KernelCost total;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        std::size_t nb = 0, diags = 0, baby = 0, giant = 0;
        for (const auto &b : blocks_[i]) {
            if (!b)
                continue;
            ++nb;
            diags += b->diagonalCount();
            if (plannedStrides_) {
                // Replicate the stride a rebind at this level would
                // pick — same argmin, same population.
                auto choice = model.chooseBsgsStride(
                    input_lc, b->diagonalIndices(), b->matrix().size(),
                    /*restrict_to_root_pattern=*/false);
                baby += choice.baby;
                giant += choice.giant;
            } else {
                baby += b->babyStepCount() + b->conjStepCount();
                giant += b->giantStepCount();
            }
        }
        total += model.blockMatvec(input_lc, nb, diags, baby, giant);
        if (biases_[i])
            total += model.op(perf::OpKind::HAdd, input_lc - 1);
    }
    return total;
}

std::vector<bool>
MatvecLayer::liveInputChunks(const std::vector<bool> &out_live) const
{
    requireCompiled();
    requireArg(out_live.size() == out_.chunkCount,
               name(), ": liveness mask size mismatch");
    std::vector<bool> live(in_.chunkCount, false);
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        if (!out_live[i])
            continue;
        for (std::size_t j = 0; j < blocks_[i].size(); ++j)
            if (blocks_[i][j])
                live[j] = true;
    }
    return live;
}

void
MatvecLayer::resetPlans()
{
    blocks_.clear();
    biases_.clear();
}

// ------------------------------------------------------------------
// Dense

Dense::Dense(std::vector<std::vector<double>> weights,
             std::vector<double> bias)
    : weights_(std::move(weights)), bias_(std::move(bias))
{
    requireArg(!weights_.empty() && !weights_[0].empty(),
               "Dense needs a nonempty weight matrix");
    for (const auto &row : weights_)
        requireArg(row.size() == weights_[0].size(),
                   "Dense weight rows must have equal length");
    requireArg(bias_.empty() || bias_.size() == weights_.size(),
               "Dense bias size mismatch");
}

boot::SlotMatrix
Dense::buildMatrix(const ckks::CkksContext &ctx,
                   const TensorMeta &in, std::size_t matrix_rows,
                   std::size_t matrix_cols) const
{
    (void)ctx;
    requireArg(in.shape.numel() == cols(),
               "Dense expects ", cols(), " inputs, got ",
               in.shape.str());
    requireArg(rows() <= matrix_rows,
               "Dense output exceeds the chunked slot capacity");
    boot::SlotMatrix m(matrix_rows,
                       std::vector<ckks::Complex>(matrix_cols,
                                                  ckks::Complex(0, 0)));
    for (std::size_t j = 0; j < rows(); ++j)
        for (std::size_t k = 0; k < cols(); ++k)
            m[j][in.layout.slotOf(in.shape, k)] +=
                ckks::Complex(weights_[j][k], 0);
    return m;
}

TensorShape
Dense::outputShape(const TensorShape &) const
{
    return {{rows()}};
}

std::vector<double>
Dense::applyPlain(const std::vector<double> &in) const
{
    std::vector<double> out(rows(), 0.0);
    for (std::size_t j = 0; j < rows(); ++j) {
        for (std::size_t k = 0; k < cols(); ++k)
            out[j] += weights_[j][k] * in[k];
        if (!bias_.empty())
            out[j] += bias_[j];
    }
    return out;
}

// ------------------------------------------------------------------
// Conv2d

Conv2d::Conv2d(std::size_t out_channels, std::size_t kernel,
               std::vector<double> weights, std::vector<double> bias)
    : outChannels_(out_channels), kernel_(kernel),
      weights_(std::move(weights)), bias_(std::move(bias))
{
    requireArg(outChannels_ >= 1, "Conv2d needs >= 1 output channel");
    requireArg(kernel_ % 2 == 1, "Conv2d kernel must be odd");
    requireArg(bias_.empty() || bias_.size() == outChannels_,
               "Conv2d bias size mismatch");
}

double
Conv2d::tap(std::size_t oc, std::size_t ic, std::size_t ky,
            std::size_t kx) const
{
    std::size_t in_c = in_.shape.dims[0];
    return weights_[((oc * in_c + ic) * kernel_ + ky) * kernel_ + kx];
}

boot::SlotMatrix
Conv2d::buildMatrix(const ckks::CkksContext &ctx,
                    const TensorMeta &in, std::size_t matrix_rows,
                    std::size_t matrix_cols) const
{
    (void)ctx;
    requireArg(in.shape.dims.size() == 3,
               "Conv2d expects a (C, H, W) input, got ",
               in.shape.str());
    std::size_t ic = in.shape.dims[0];
    std::size_t h = in.shape.dims[1];
    std::size_t w = in.shape.dims[2];
    requireArg(weights_.size() == outChannels_ * ic * kernel_ * kernel_,
               "Conv2d weight count mismatch: expected ",
               outChannels_ * ic * kernel_ * kernel_, ", got ",
               weights_.size());
    requireArg(outChannels_ * h * w <= matrix_rows,
               "Conv2d output exceeds the chunked slot capacity");
    std::size_t half = kernel_ / 2;
    std::size_t ic_ky_kx = ic * kernel_ * kernel_;

    boot::SlotMatrix m(matrix_rows,
                       std::vector<ckks::Complex>(matrix_cols,
                                                  ckks::Complex(0, 0)));
    for (std::size_t oc = 0; oc < outChannels_; ++oc) {
        for (std::size_t y = 0; y < h; ++y) {
            for (std::size_t x = 0; x < w; ++x) {
                std::size_t row = (oc * h + y) * w + x;
                for (std::size_t t = 0; t < ic_ky_kx; ++t) {
                    std::size_t c = t / (kernel_ * kernel_);
                    std::size_t ky = (t / kernel_) % kernel_;
                    std::size_t kx = t % kernel_;
                    auto iy = static_cast<std::ptrdiff_t>(y + ky)
                        - static_cast<std::ptrdiff_t>(half);
                    auto ix = static_cast<std::ptrdiff_t>(x + kx)
                        - static_cast<std::ptrdiff_t>(half);
                    if (iy < 0 || ix < 0
                        || iy >= static_cast<std::ptrdiff_t>(h)
                        || ix >= static_cast<std::ptrdiff_t>(w))
                        continue; // zero padding
                    std::size_t flat =
                        (c * h + static_cast<std::size_t>(iy)) * w
                        + static_cast<std::size_t>(ix);
                    m[row][in.layout.slotOf(in.shape, flat)] +=
                        ckks::Complex(tap(oc, c, ky, kx), 0);
                }
            }
        }
    }
    return m;
}

TensorShape
Conv2d::outputShape(const TensorShape &in) const
{
    return {{outChannels_, in.dims[1], in.dims[2]}};
}

std::vector<double>
Conv2d::biasVector() const
{
    if (bias_.empty())
        return {};
    std::size_t hw = in_.shape.dims[1] * in_.shape.dims[2];
    std::vector<double> out(outChannels_ * hw);
    for (std::size_t oc = 0; oc < outChannels_; ++oc)
        for (std::size_t i = 0; i < hw; ++i)
            out[oc * hw + i] = bias_[oc];
    return out;
}

std::vector<double>
Conv2d::applyPlain(const std::vector<double> &in) const
{
    requireCompiled();
    std::size_t ic = in_.shape.dims[0];
    std::size_t h = in_.shape.dims[1];
    std::size_t w = in_.shape.dims[2];
    std::size_t half = kernel_ / 2;
    std::vector<double> out(outChannels_ * h * w, 0.0);
    for (std::size_t oc = 0; oc < outChannels_; ++oc) {
        for (std::size_t y = 0; y < h; ++y) {
            for (std::size_t x = 0; x < w; ++x) {
                double acc = bias_.empty() ? 0.0 : bias_[oc];
                for (std::size_t c = 0; c < ic; ++c) {
                    for (std::size_t ky = 0; ky < kernel_; ++ky) {
                        for (std::size_t kx = 0; kx < kernel_; ++kx) {
                            auto iy =
                                static_cast<std::ptrdiff_t>(y + ky)
                                - static_cast<std::ptrdiff_t>(half);
                            auto ix =
                                static_cast<std::ptrdiff_t>(x + kx)
                                - static_cast<std::ptrdiff_t>(half);
                            if (iy < 0 || ix < 0
                                || iy >= static_cast<std::ptrdiff_t>(h)
                                || ix >= static_cast<std::ptrdiff_t>(w))
                                continue;
                            acc += tap(oc, c, ky, kx)
                                * in[(c * h
                                      + static_cast<std::size_t>(iy))
                                         * w
                                     + static_cast<std::size_t>(ix)];
                        }
                    }
                }
                out[(oc * h + y) * w + x] = acc;
            }
        }
    }
    return out;
}

// ------------------------------------------------------------------
// AvgPool2d

TensorMeta
AvgPool2d::compile(const ckks::CkksContext &ctx, const TensorMeta &in)
{
    requireArg(!compiled_, "layer compiled twice");
    std::size_t slots = ctx.slots();
    requireArg(isPowerOfTwo(window_) && window_ >= 2,
               "pool window must be a power of two >= 2");
    requireArg(in.chunkCount == 1,
               "AvgPool2d requires a single-chunk input");
    requireArg(in.shape.dims.size() == 3,
               "AvgPool2d expects a (C, H, W) input, got ",
               in.shape.str());
    requireArg(in.shape.dims[1] % window_ == 0
                   && in.shape.dims[2] % window_ == 0,
               "pool window must divide H and W");
    requireArg(in.layout.slotSpan(in.shape) <= slots,
               "AvgPool2d input layout exceeds the slot capacity");
    requireArg(in.levelCount >= 2,
               "AvgPool2d needs one multiplicative level");

    std::size_t sy = in.layout.stride[1];
    std::size_t sx = in.layout.stride[2];
    // Doubling folds per axis: x first, then y.
    steps_.clear();
    for (std::size_t d = 1; d < window_; d *= 2)
        steps_.push_back(static_cast<s64>(d * sx));
    for (std::size_t d = 1; d < window_; d *= 2)
        steps_.push_back(static_cast<s64>(d * sy));

    in_ = in;
    out_.shape = {{in.shape.dims[0], in.shape.dims[1] / window_,
                   in.shape.dims[2] / window_}};
    out_.layout.offset = in.layout.offset;
    out_.layout.stride = {in.layout.stride[0], window_ * sy,
                          window_ * sx};
    out_.chunkCount = 1;
    out_.levelCount = in.levelCount - 1;
    out_.scale = mulRescaleScale(ctx, in.scale, ctx.params().scale(),
                                 in.levelCount);

    // The window-base mask, folding the 1/window^2 average into the
    // mask values so no extra level is spent.
    double inv = 1.0
        / static_cast<double>(window_ * window_);
    std::vector<ckks::Complex> z(slots, ckks::Complex(0, 0));
    for (std::size_t i = 0; i < out_.shape.numel(); ++i)
        z[out_.layout.slotOf(out_.shape, i)] = ckks::Complex(inv, 0);
    mask_ = ctx.encoder().encode(z, ctx.params().scale(),
                                 in.levelCount);
    compiled_ = true;
    return out_;
}

std::vector<s64>
AvgPool2d::requiredRotations() const
{
    requireCompiled();
    return steps_;
}

graph::ValueId
AvgPool2d::lower(graph::GraphBuilder &b, graph::ValueId in) const
{
    requireCompiled();
    graph::ValueId t = in;
    for (s64 s : steps_)
        t = b.add(t, b.rotate(t, s));
    return b.rescale(b.mulPlain(t, *mask_));
}

std::vector<double>
AvgPool2d::applyPlain(const std::vector<double> &in) const
{
    requireCompiled();
    std::size_t c = in_.shape.dims[0];
    std::size_t h = in_.shape.dims[1];
    std::size_t w = in_.shape.dims[2];
    std::size_t oh = h / window_;
    std::size_t ow = w / window_;
    std::vector<double> out(c * oh * ow, 0.0);
    for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t y = 0; y < oh; ++y)
            for (std::size_t x = 0; x < ow; ++x) {
                double acc = 0;
                for (std::size_t dy = 0; dy < window_; ++dy)
                    for (std::size_t dx = 0; dx < window_; ++dx)
                        acc += in[(ch * h + y * window_ + dy) * w
                                  + x * window_ + dx];
                out[(ch * oh + y) * ow + x] = acc
                    / static_cast<double>(window_ * window_);
            }
    return out;
}

EvalOpCounts
AvgPool2d::modeledOps() const
{
    requireCompiled();
    auto rounds = static_cast<double>(steps_.size());
    EvalOpCounts c;
    c.hrotate = rounds;
    c.ksHoist = rounds;
    c.ksTail = rounds;
    c.hadd = rounds;
    c.cmult = 1;
    c.rescale = 1;
    return c;
}

perf::KernelCost
AvgPool2d::costAt(const perf::CostModel &model,
                  std::size_t input_lc) const
{
    requireCompiled();
    auto rounds = static_cast<double>(steps_.size());
    perf::KernelCost c =
        rounds * (model.op(perf::OpKind::HRotate, input_lc)
                  + model.op(perf::OpKind::HAdd, input_lc));
    c += model.op(perf::OpKind::CMult, input_lc);
    c += model.op(perf::OpKind::Rescale, input_lc);
    return c;
}

// ------------------------------------------------------------------
// SumReduce

TensorMeta
SumReduce::compile(const ckks::CkksContext &ctx, const TensorMeta &in)
{
    requireArg(!compiled_, "layer compiled twice");
    std::size_t slots = ctx.slots();
    requireArg(in.chunkCount == 1,
               "SumReduce requires a single-chunk input");
    requireArg(in.layout.slotSpan(in.shape) <= slots,
               "SumReduce input layout exceeds the slot capacity");
    std::size_t m = in.shape.numel();
    requireArg(isPowerOfTwo(m) && m >= 2,
               "SumReduce needs a power-of-two element count");

    // The layout must enumerate an arithmetic slot progression: the
    // generalized row-major check with a uniform base stride.
    std::size_t base = in.layout.stride.back();
    std::size_t expect = base;
    for (std::size_t i = in.shape.dims.size(); i-- > 0;) {
        requireArg(in.layout.stride[i] == expect,
                   "SumReduce requires a uniformly strided layout");
        expect *= in.shape.dims[i];
    }

    hoisted_ = perf::hoistedFoldWins(ctx.params(), in.levelCount, m);
    steps_.clear();
    if (hoisted_) {
        for (std::size_t k = 1; k < m; ++k)
            steps_.push_back(static_cast<s64>(k * base));
    } else {
        for (std::size_t k = 1; k < m; k *= 2)
            steps_.push_back(static_cast<s64>(k * base));
    }

    in_ = in;
    out_.shape = {{1}};
    out_.layout.offset = in.layout.offset;
    out_.layout.stride = {base};
    out_.chunkCount = 1;
    out_.levelCount = in.levelCount;
    out_.scale = in.scale;
    compiled_ = true;
    return out_;
}

std::vector<s64>
SumReduce::requiredRotations() const
{
    requireCompiled();
    return steps_;
}

graph::ValueId
SumReduce::lower(graph::GraphBuilder &b, graph::ValueId in) const
{
    requireCompiled();
    graph::ValueId acc = in;
    if (hoisted_) {
        // One hoisted multi-rotation of every step, then the adds.
        for (graph::ValueId r : b.rotateMany(in, steps_))
            acc = b.add(acc, r);
        return acc;
    }
    for (s64 s : steps_)
        acc = b.add(acc, b.rotate(acc, s));
    return acc;
}

std::vector<double>
SumReduce::applyPlain(const std::vector<double> &in) const
{
    double acc = 0;
    for (double v : in)
        acc += v;
    return {acc};
}

EvalOpCounts
SumReduce::modeledOps() const
{
    requireCompiled();
    auto r = static_cast<double>(steps_.size());
    EvalOpCounts c;
    c.hrotate = r;
    c.ksTail = r;
    c.ksHoist = hoisted_ ? 1 : r;
    c.hadd = r;
    return c;
}

perf::KernelCost
SumReduce::costAt(const perf::CostModel &model,
                  std::size_t input_lc) const
{
    requireCompiled();
    // rotateFold() re-decides hoisted-vs-doubling at the queried
    // level, exactly as a rebind there would (compile runs the same
    // perf::hoistedFoldWins argmin).
    return model.rotateFold(input_lc, in_.shape.numel());
}

// ------------------------------------------------------------------
// PolyActivation

PolyActivation::PolyActivation(PolyApprox approx)
    : approx_(std::move(approx))
{
    requireArg(approx_.coeffs.size() >= 2,
               "activation must have degree >= 1");
    constexpr double kEps = 1e-12;

    // Active terms; zero coefficients cost nothing.
    for (std::size_t k = 1; k < approx_.coeffs.size(); ++k)
        if (std::abs(approx_.coeffs[k]) > kEps)
            terms_.emplace_back(k, approx_.coeffs[k]);
    requireArg(!terms_.empty(), "activation has no nonconstant term");
    hasConstant_ = std::abs(approx_.coeffs[0]) > kEps;

    // Power-ladder closure: x^k = x^ceil(k/2) * x^floor(k/2).
    std::vector<std::size_t> work;
    for (const auto &[k, c] : terms_)
        if (k >= 2)
            work.push_back(k);
    std::vector<std::size_t> needed;
    while (!work.empty()) {
        std::size_t k = work.back();
        work.pop_back();
        if (k < 2
            || std::find(needed.begin(), needed.end(), k)
                != needed.end())
            continue;
        needed.push_back(k);
        work.push_back((k + 1) / 2);
        work.push_back(k / 2);
    }
    std::sort(needed.begin(), needed.end());
    powers_ = std::move(needed);

    depth_[1] = 0;
    for (std::size_t k : powers_)
        depth_[k] =
            std::max(depth_.at((k + 1) / 2), depth_.at(k / 2)) + 1;
    for (const auto &[k, c] : terms_)
        maxDepth_ = std::max(maxDepth_, depth_.at(k));
}

std::string
PolyActivation::name() const
{
    return "PolyActivation(" + approx_.name + ")";
}

TensorMeta
PolyActivation::compile(const ckks::CkksContext &ctx,
                        const TensorMeta &in)
{
    requireArg(!compiled_, "layer compiled twice");
    requireArg(in.levelCount >= maxDepth_ + 2,
               name(), " needs ", maxDepth_ + 2,
               " level counts, input is at ", in.levelCount);

    in_ = in;
    out_ = in;
    out_.levelCount = in.levelCount - maxDepth_ - 1;
    out_.scale = ctx.params().scale(); // exact, by term steering
    compiled_ = true;
    return out_;
}

std::size_t
PolyActivation::levelCost() const
{
    return maxDepth_ + 1;
}

graph::ValueId
PolyActivation::lower(graph::GraphBuilder &b, graph::ValueId in) const
{
    requireCompiled();
    // Exact-scale steering needs the full ladder depth plus the term
    // rescale: at levelCount == maxDepth + 1 the last rescale would
    // drop below level 0 and the steering would silently emit a
    // wrong-scale ciphertext — fail loudly instead (the off-by-one
    // guard; compile() enforces the same bound on the compiled meta,
    // this catches a lowering at a deeper-drained input).
    std::size_t in_lc = b.meta(in).levelCount;
    requireArg(in_lc >= maxDepth_ + 2,
               name(), ": input at level count ", in_lc,
               " cannot host the power ladder plus the exact-scale "
               "rescale (needs >= ",
               maxDepth_ + 2,
               "); the last rescale would drop below level 0");
    double target = b.ctx().params().scale();

    // The monomial ladder at natural levels.
    std::map<std::size_t, graph::ValueId> pows;
    pows.emplace(1, in);
    for (std::size_t k : powers_) {
        graph::ValueId x = pows.at((k + 1) / 2);
        graph::ValueId y = pows.at(k / 2);
        std::size_t lc =
            std::min(b.meta(x).levelCount, b.meta(y).levelCount);
        pows.emplace(k, b.rescale(b.multiply(b.drop(x, lc),
                                             b.drop(y, lc))));
    }

    // Steer every term to (min power level - 1, target scale), then
    // add the constant coefficient.
    std::size_t lmin = in_lc - maxDepth_;
    graph::ValueId acc = 0;
    bool first = true;
    for (const auto &[k, c] : terms_) {
        graph::ValueId term =
            b.mulConstToScale(b.drop(pows.at(k), lmin), c, target);
        acc = first ? term : b.add(acc, term);
        first = false;
    }
    if (hasConstant_)
        acc = b.addConst(acc, approx_.coeffs[0]);
    return acc;
}

std::vector<double>
PolyActivation::applyPlain(const std::vector<double> &in) const
{
    std::vector<double> out(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = approx_.evalPlain(in[i]);
    return out;
}

EvalOpCounts
PolyActivation::modeledOps() const
{
    requireCompiled();
    auto np = static_cast<double>(powers_.size());
    auto nt = static_cast<double>(terms_.size());
    EvalOpCounts c;
    c.hmult = np;
    // Every HMULT relinearizes through one key-switch head + tail.
    c.ksHoist = np;
    c.ksTail = np;
    c.cmult = nt;
    c.rescale = np + nt;
    c.hadd = nt - 1 + (hasConstant_ ? 1 : 0);
    // Elementwise over every chunk: chunks ride the batch dimension.
    return static_cast<double>(in_.chunkCount) * c;
}

perf::KernelCost
PolyActivation::costAt(const perf::CostModel &model,
                       std::size_t input_lc) const
{
    requireCompiled();
    // Ladder + steering priced at the entry level (a conservative
    // bound on the descending ladder), once per chunk.
    return static_cast<double>(in_.chunkCount)
        * model.polyActivation(input_lc, powers_.size(),
                               terms_.size());
}

// ------------------------------------------------------------------
// Bootstrap

TensorMeta
Bootstrap::compile(const ckks::CkksContext &ctx, const TensorMeta &in)
{
    requireArg(!compiled_, "layer compiled twice");
    requireArg(in.levelCount >= 2,
               name(), " needs an input at level count >= 2 (the "
                       "SlotToCoeff stage consumes one level), got ",
               in.levelCount);
    requireArg(liveChunks_.empty()
                   || liveChunks_.size() == in.chunkCount,
               name(), " live-chunk mask size mismatch: mask has ",
               liveChunks_.size(), " entries, input has ",
               in.chunkCount, " chunks");
    slots_ = ctx.slots();
    raisedLc_ = ctx.tower().numQ();
    boot_ = std::make_shared<boot::Bootstrapper>(ctx, sine_);

    in_ = in;
    out_ = in; // shape / layout / chunk count pass through
    auto refresh =
        boot::Bootstrapper::predictRefresh(ctx, sine_, in.levelCount);
    out_.levelCount = refresh.levelCount;
    out_.scale = refresh.scale;
    compiled_ = true;
    return out_;
}

void
Bootstrap::setLiveChunks(std::vector<bool> live)
{
    requireState(!compiled_,
                 name(), " live-chunk mask must be set before "
                         "compile()");
    liveChunks_ = std::move(live);
}

std::size_t
Bootstrap::liveChunkCount() const
{
    requireCompiled();
    if (liveChunks_.empty())
        return in_.chunkCount;
    return static_cast<std::size_t>(
        std::count(liveChunks_.begin(), liveChunks_.end(), true));
}

std::vector<s64>
Bootstrap::requiredRotations() const
{
    requireCompiled();
    return boot::Bootstrapper::requiredRotations(slots_);
}

std::vector<s64>
Bootstrap::requiredConjRotations() const
{
    requireCompiled();
    return boot::Bootstrapper::requiredConjRotations(slots_);
}

graph::ValueId
Bootstrap::lower(graph::GraphBuilder &b, graph::ValueId in) const
{
    requireCompiled();
    return b.layerApply(*this, in);
}

Cts
Bootstrap::refresh(const NnEngine &engine, const Cts &in) const
{
    requireCompiled();
    // Chunks are just more batch slots: the whole (sample x chunk)
    // stream refreshes through one shared pipeline.
    if (liveChunks_.empty() || liveChunkCount() == in_.chunkCount)
        return boot_->bootstrapBatch(engine.batched(), in);

    // Lazy refresh: gather the live chunks of every sample, refresh
    // them in one batch, and rebuild dead chunks as well-formed zero
    // ciphertexts at the refreshed meta (their values are dead
    // downstream — no layer reads them — but shapes and levels must
    // stay uniform for the batched ops).
    std::size_t chunks = in_.chunkCount;
    requireArg(!in.empty() && in.size() % chunks == 0,
               name(), " batch is not a multiple of the chunk count");
    std::size_t batch = in.size() / chunks;
    Cts live;
    live.reserve(batch * liveChunkCount());
    for (std::size_t s = 0; s < batch; ++s)
        for (std::size_t c = 0; c < chunks; ++c)
            if (liveChunks_[c])
                live.push_back(in[s * chunks + c]);
    Cts refreshed = boot_->bootstrapBatch(engine.batched(), live);

    const auto &tower = engine.ctx().tower();
    Cts out(in.size());
    std::size_t next = 0;
    for (std::size_t s = 0; s < batch; ++s) {
        for (std::size_t c = 0; c < chunks; ++c) {
            if (liveChunks_[c]) {
                out[s * chunks + c] = std::move(refreshed[next++]);
                continue;
            }
            ckks::Ciphertext z;
            z.c0 = rns::RnsPolynomial::zeros(tower, out_.levelCount,
                                             rns::Domain::Eval);
            z.c1 = rns::RnsPolynomial::zeros(tower, out_.levelCount,
                                             rns::Domain::Eval);
            z.scale = out_.scale;
            out[s * chunks + c] = std::move(z);
        }
    }
    return out;
}

EvalOpCounts
Bootstrap::modeledOps() const
{
    requireCompiled();
    return static_cast<double>(liveChunkCount())
        * boot_->modeledOps();
}

perf::KernelCost
Bootstrap::costAt(const perf::CostModel &model,
                  std::size_t input_lc) const
{
    requireCompiled();
    return static_cast<double>(liveChunkCount())
        * model.bootstrap(
            input_lc, raisedLc_, out_.levelCount, slots_,
            static_cast<std::size_t>(sine_.taylorTerms),
            static_cast<std::size_t>(sine_.doublings));
}

const boot::Bootstrapper &
Bootstrap::bootstrapper() const
{
    requireCompiled();
    return *boot_;
}

// ------------------------------------------------------------------
// LevelDrop

LevelDrop::LevelDrop(std::size_t target_level_count)
    : target_(target_level_count)
{
    requireArg(target_ >= 1, "LevelDrop target must be >= 1 limb");
}

TensorMeta
LevelDrop::compile(const ckks::CkksContext &ctx, const TensorMeta &in)
{
    (void)ctx;
    requireArg(!compiled_, "layer compiled twice");
    requireArg(in.levelCount >= target_,
               name(), " cannot raise the level: input at ",
               in.levelCount, ", target ", target_);
    in_ = in;
    out_ = in;
    out_.levelCount = target_;
    compiled_ = true;
    return out_;
}

graph::ValueId
LevelDrop::lower(graph::GraphBuilder &b, graph::ValueId in) const
{
    requireCompiled();
    return b.drop(in, target_); // no node when already at the target
}

} // namespace tensorfhe::nn
