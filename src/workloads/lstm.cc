#include "workloads/lstm.hh"

#include <cmath>

#include "ckks/rotations.hh"
#include "common/logging.hh"
#include "graph/executor.hh"

namespace tensorfhe::workloads
{

namespace
{

/**
 * Synthetic stacked gate weights (4d x d, rows [i; f; o; g]),
 * calibrated so |z| = |W_x x + W_h h + b| stays inside the tanh
 * approximant's [-2, 2] interval for states in [-1, 1]:
 * |z| <= 2 * d * mag + |b|.
 */
std::vector<std::vector<double>>
stackedWeights(const LstmConfig &cfg, u64 salt)
{
    Rng rng(cfg.seed + salt);
    double mag = 0.85 / static_cast<double>(cfg.dim);
    std::vector<std::vector<double>> w(
        4 * cfg.dim, std::vector<double>(cfg.dim));
    for (auto &row : w)
        for (auto &v : row)
            v = mag * (2.0 * rng.uniformReal() - 1.0);
    return w;
}

std::vector<double>
stackedBias(const LstmConfig &cfg)
{
    Rng rng(cfg.seed + 2);
    std::vector<double> b(4 * cfg.dim);
    for (auto &v : b)
        v = 0.1 * (2.0 * rng.uniformReal() - 1.0);
    return b;
}

} // namespace

ckks::CkksParams
EncryptedLstmCell::recommendedParams()
{
    auto p = ckks::Presets::tiny();
    // matvec 1 + gate polys 3 + combine 1 + Hadamard 1 + cell tanh 3
    // + output Hadamard 1 = 10 levels, plus one spare.
    p.levels = 11;
    // Key switching keeps the default 12 one-limb digits over one
    // special prime. The secret is dense, so ModDown's rounding term
    // grows with K: 6 digits over 2 special primes ran 1.5x faster
    // but lost ~0.9 of ~14 bits of precision.
    return p;
}

EncryptedLstmCell::EncryptedLstmCell(const ckks::CkksContext &ctx,
                                     LstmConfig cfg)
    : cfg_(cfg), wx_(stackedWeights(cfg, 0), stackedBias(cfg)),
      wh_(stackedWeights(cfg, 1)),
      sig_(nn::sigmoidApprox(cfg.actDegree)),
      tanhGate_(nn::tanhApprox(cfg.actDegree)),
      tanhCell_(nn::tanhApprox(cfg.actDegree))
{
    std::size_t d = cfg_.dim;
    requireArg(4 * d <= ctx.slots(), "gate vector exceeds slots");

    input_.shape = {{d}};
    input_.layout = nn::SlotLayout::contiguous(input_.shape);
    input_.chunkCount = 1;
    input_.levelCount = ctx.tower().numQ();
    input_.scale = ctx.params().scale();
    // x, h and c arrive as fresh encryptTensor outputs, so the gate
    // matvecs may take the tall form.
    input_.zeroPadded = true;

    // Compile the gate pipeline and fix the combine constants.
    auto z_meta = wx_.compile(ctx, input_);
    wh_.compile(ctx, input_);
    auto s_meta = sig_.compile(ctx, z_meta);
    auto t_meta = tanhGate_.compile(ctx, z_meta);
    requireArg(s_meta.levelCount == t_meta.levelCount,
               "gate activations must consume equal levels");

    // Gate-select masks encoded at scale q_last so the combined
    // product rescales to exactly the context scale (the same
    // steering trick as multiplyConstToScale).
    std::size_t lc = s_meta.levelCount;
    requireArg(lc >= 2, "no level left for the gate combine");
    auto q_last =
        static_cast<double>(ctx.tower().prime(lc - 1));
    std::vector<ckks::Complex> ifo(ctx.slots(), ckks::Complex(0, 0));
    std::vector<ckks::Complex> g(ctx.slots(), ckks::Complex(0, 0));
    for (std::size_t i = 0; i < 3 * d; ++i)
        ifo[i] = ckks::Complex(1, 0);
    for (std::size_t i = 3 * d; i < 4 * d; ++i)
        g[i] = ckks::Complex(1, 0);
    maskIfo_ = ctx.encoder().encode(ifo, q_last, lc);
    maskG_ = ctx.encoder().encode(g, q_last, lc);
    combScale_ = ctx.params().scale();
    combLevel_ = lc - 1;

    // The cell tanh runs after one more multiplicative stage (the
    // Hadamard gates); its terms re-steer the scale internally.
    nn::TensorMeta c_meta = input_;
    c_meta.levelCount = combLevel_ - 1;
    c_meta.scale = combScale_ * combScale_
        / static_cast<double>(ctx.tower().prime(combLevel_ - 1));
    tanhCell_.compile(ctx, c_meta);
}

std::vector<s64>
EncryptedLstmCell::requiredRotations() const
{
    auto d = static_cast<s64>(cfg_.dim);
    return ckks::unionRotationSteps(
        {wx_.requiredRotations(), wh_.requiredRotations(),
         {d, 2 * d, 3 * d}});
}

EncryptedLstmCell::State
EncryptedLstmCell::step(const nn::NnEngine &engine,
                        const nn::CipherTensor &x,
                        const State &prev) const
{
    auto g = buildStepGraph(engine.ctx());
    graph::GraphExecutor ex(g, graph::scheduleGraph(g, {.fuse = false}));
    auto res = ex.run(engine,
                      {x.chunks(), prev.h.chunks(), prev.c.chunks()});
    State out;
    out.h = nn::CipherTensor(input_.shape, input_.layout,
                             std::move(res.outputs[0]));
    out.c = nn::CipherTensor(input_.shape, input_.layout,
                             std::move(res.outputs[1]));
    return out;
}

graph::Graph
EncryptedLstmCell::buildStepGraph(const ckks::CkksContext &ctx) const
{
    graph::GraphBuilder b(ctx);
    auto x = b.input(1, input_.levelCount, input_.scale);
    auto h = b.input(1, input_.levelCount, input_.scale);
    auto c = b.input(1, input_.levelCount, input_.scale);

    // z = W_x x + W_h h + b: two INDEPENDENT matvec branches the
    // scheduler can overlap, one packed gate vector.
    auto zx = b.lower(wx_, x);
    auto zh = b.lower(wh_, h);
    auto z = b.add(zx, zh);

    // Both nonlinearities over the whole gate vector, then one
    // masked combine selects sigmoid for i/f/o and tanh for g. The
    // masks carry scale q_last, so the combine lands at exactly the
    // context scale (reset exactly in metadata). The combine is a
    // 3-op elementwise tree — the fusion pass folds it into one
    // FusedEle span pass.
    auto s = b.lower(sig_, z);
    auto t = b.lower(tanhGate_, z);
    auto comb = b.setScale(
        b.rescale(b.add(b.mulPlain(s, maskIfo_),
                        b.mulPlain(t, maskG_))),
        combScale_);

    // Align f, o, g onto [0, d) with one hoisted multi-rotation.
    auto d = static_cast<s64>(cfg_.dim);
    auto aligned = b.rotateMany(comb, {d, 2 * d, 3 * d});

    // c' = f (had) c + i (had) g.
    auto c_prev = b.drop(c, b.meta(comb).levelCount);
    auto fc = b.rescale(b.multiply(aligned[0], c_prev));
    auto ig = b.rescale(b.multiply(comb, aligned[2]));
    auto c_new = b.add(fc, ig);

    // h' = o (had) tanh(c').
    auto tc = b.lower(tanhCell_, c_new);
    auto o_drop = b.drop(aligned[1], b.meta(tc).levelCount);
    auto h_new = b.rescale(b.multiply(o_drop, tc));

    b.output(h_new);
    b.output(c_new);
    return b.take();
}

EncryptedLstmCell::PlainState
EncryptedLstmCell::stepPlain(const std::vector<double> &x,
                             const PlainState &prev) const
{
    std::size_t d = cfg_.dim;
    auto zx = wx_.applyPlain(x);
    auto zh = wh_.applyPlain(prev.h);
    std::vector<double> z(4 * d);
    for (std::size_t i = 0; i < 4 * d; ++i)
        z[i] = zx[i] + zh[i];

    auto s = sig_.applyPlain(z);
    auto t = tanhGate_.applyPlain(z);

    PlainState out;
    out.h.resize(d);
    out.c.resize(d);
    for (std::size_t j = 0; j < d; ++j) {
        double i_g = s[j];
        double f_g = s[d + j];
        double o_g = s[2 * d + j];
        double g_g = t[3 * d + j];
        out.c[j] = f_g * prev.c[j] + i_g * g_g;
        out.h[j] = o_g * tanhCell_.approx().evalPlain(out.c[j]);
    }
    return out;
}

EvalOpCounts
EncryptedLstmCell::modeledOps() const
{
    EvalOpCounts c = wx_.modeledOps();
    c += wh_.modeledOps();
    c.hadd += 1; // z = zx + zh
    c += sig_.modeledOps();
    c += tanhGate_.modeledOps();
    // Combine: two masked CMULTs, one HADD, one RESCALE.
    c.cmult += 2;
    c.hadd += 1;
    c.rescale += 1;
    // Gate alignment: one hoisted head, three tails.
    c.ksHoist += 1;
    c.ksTail += 3;
    c.hrotate += 3;
    // c' and h': three Hadamard products (each relinearizing through
    // one key-switch head + tail) + rescales, one add.
    c += tanhCell_.modeledOps();
    c.hmult += 3;
    c.ksHoist += 3;
    c.ksTail += 3;
    c.rescale += 3;
    c.hadd += 1;
    return c;
}

} // namespace tensorfhe::workloads
