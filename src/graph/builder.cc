#include "graph/builder.hh"

#include "common/logging.hh"

namespace tensorfhe::graph
{

double
mulRescaleScale(const ckks::CkksContext &ctx, double ct_scale,
                double pt_scale, std::size_t lc)
{
    return ct_scale * pt_scale
        / static_cast<double>(ctx.tower().prime(lc - 1));
}

ValueId
GraphBuilder::newValue(std::size_t chunk_count, std::size_t level_count,
                       double scale, NodeId producer)
{
    ValueMeta m;
    m.chunkCount = chunk_count;
    m.levelCount = level_count;
    m.scale = scale;
    m.producer = producer;
    g_.values.push_back(m);
    return g_.values.size() - 1;
}

NodeId
GraphBuilder::newNode(NodeKind kind, std::vector<ValueId> inputs)
{
    Node n;
    n.kind = kind;
    n.inputs = std::move(inputs);
    n.layer = tag_;
    g_.nodes.push_back(std::move(n));
    return g_.nodes.size() - 1;
}

ValueId
GraphBuilder::input(std::size_t chunk_count, std::size_t level_count,
                    double scale)
{
    NodeId n = newNode(NodeKind::Input, {});
    ValueId v = newValue(chunk_count, level_count, scale, n);
    g_.nodes[n].outputs = {v};
    g_.inputs.push_back(v);
    return v;
}

ValueId
GraphBuilder::add(ValueId a, ValueId b)
{
    const auto &ma = g_.values[a];
    const auto &mb = g_.values[b];
    requireArg(ma.chunkCount == mb.chunkCount
                   && ma.levelCount == mb.levelCount,
               "graph add: operand shapes/levels differ");
    NodeId n = newNode(NodeKind::Add, {a, b});
    // HADD keeps the first operand's scale (what the kernel leaves
    // in the output metadata).
    ValueId v = newValue(ma.chunkCount, ma.levelCount, ma.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::sub(ValueId a, ValueId b)
{
    const auto &ma = g_.values[a];
    const auto &mb = g_.values[b];
    requireArg(ma.chunkCount == mb.chunkCount
                   && ma.levelCount == mb.levelCount,
               "graph sub: operand shapes/levels differ");
    NodeId n = newNode(NodeKind::Sub, {a, b});
    ValueId v = newValue(ma.chunkCount, ma.levelCount, ma.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::addPlain(ValueId a, const ckks::Plaintext &pt)
{
    const auto &ma = g_.values[a];
    NodeId n = newNode(NodeKind::AddPlain, {a});
    g_.nodes[n].pt = &pt;
    ValueId v = newValue(ma.chunkCount, ma.levelCount, ma.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::mulPlain(ValueId a, const ckks::Plaintext &pt)
{
    const auto &ma = g_.values[a];
    NodeId n = newNode(NodeKind::MulPlain, {a});
    g_.nodes[n].pt = &pt;
    ValueId v = newValue(ma.chunkCount, ma.levelCount,
                         ma.scale * pt.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::mulConstToScale(ValueId a, double c, double target_scale)
{
    const auto &ma = g_.values[a];
    requireArg(ma.levelCount >= 2,
               "graph mulConstToScale: no level left for the rescale");
    NodeId n = newNode(NodeKind::MulConstToScale, {a});
    g_.nodes[n].constant = c;
    g_.nodes[n].targetScale = target_scale;
    ValueId v = newValue(ma.chunkCount, ma.levelCount - 1,
                         target_scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::addConst(ValueId a, double c)
{
    const auto &ma = g_.values[a];
    NodeId n = newNode(NodeKind::AddConst, {a});
    g_.nodes[n].constant = c;
    ValueId v = newValue(ma.chunkCount, ma.levelCount, ma.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::rescale(ValueId a)
{
    const auto &ma = g_.values[a];
    requireArg(ma.levelCount >= 2, "graph rescale: at the last level");
    NodeId n = newNode(NodeKind::Rescale, {a});
    double scale = ma.scale
        / static_cast<double>(ctx_->tower().prime(ma.levelCount - 1));
    ValueId v = newValue(ma.chunkCount, ma.levelCount - 1, scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::multiply(ValueId a, ValueId b)
{
    const auto &ma = g_.values[a];
    const auto &mb = g_.values[b];
    requireArg(ma.chunkCount == mb.chunkCount
                   && ma.levelCount == mb.levelCount,
               "graph multiply: operand shapes/levels differ");
    NodeId n = newNode(NodeKind::Multiply, {a, b});
    ValueId v = newValue(ma.chunkCount, ma.levelCount,
                         ma.scale * mb.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

std::vector<ValueId>
GraphBuilder::rotateMany(ValueId a, std::vector<s64> steps)
{
    requireArg(!steps.empty(), "graph rotateMany: no steps");
    // Copy: newValue below reallocates g_.values.
    const ValueMeta ma = g_.values[a];
    NodeId n = newNode(NodeKind::RotateMany, {a});
    std::vector<ValueId> outs;
    outs.reserve(steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i)
        outs.push_back(newValue(ma.chunkCount, ma.levelCount,
                                ma.scale, n));
    g_.nodes[n].steps = std::move(steps);
    g_.nodes[n].outputs = outs;
    return outs;
}

ValueId
GraphBuilder::drop(ValueId a, std::size_t level_count)
{
    const auto &ma = g_.values[a];
    requireArg(level_count <= ma.levelCount,
               "graph drop: cannot raise the level count");
    if (level_count == ma.levelCount)
        return a; // dropToLevelCount is the identity here
    NodeId n = newNode(NodeKind::Drop, {a});
    g_.nodes[n].levelCount = level_count;
    ValueId v = newValue(ma.chunkCount, level_count, ma.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::setScale(ValueId a, double scale)
{
    const auto &ma = g_.values[a];
    NodeId n = newNode(NodeKind::SetScale, {a});
    g_.nodes[n].targetScale = scale;
    ValueId v = newValue(ma.chunkCount, ma.levelCount, scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

std::vector<ValueId>
GraphBuilder::unpack(ValueId a)
{
    // Copy: newValue below reallocates g_.values.
    const ValueMeta ma = g_.values[a];
    if (ma.chunkCount == 1)
        return {a};
    NodeId n = newNode(NodeKind::Unpack, {a});
    std::vector<ValueId> outs;
    outs.reserve(ma.chunkCount);
    for (std::size_t c = 0; c < ma.chunkCount; ++c)
        outs.push_back(newValue(1, ma.levelCount, ma.scale, n));
    g_.nodes[n].outputs = outs;
    return outs;
}

ValueId
GraphBuilder::pack(const std::vector<ValueId> &chunks)
{
    requireArg(!chunks.empty(), "graph pack: no chunks");
    if (chunks.size() == 1)
        return chunks[0];
    const auto &m0 = g_.values[chunks[0]];
    for (ValueId c : chunks)
        requireArg(g_.values[c].chunkCount == 1
                       && g_.values[c].levelCount == m0.levelCount,
                   "graph pack: chunks must be 1-chunk values at one "
                   "level");
    NodeId n = newNode(NodeKind::Pack,
                       std::vector<ValueId>(chunks.begin(),
                                            chunks.end()));
    ValueId v = newValue(chunks.size(), m0.levelCount, m0.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::bsgsSum(
    std::vector<const boot::LinearTransformPlan *> plans,
    const std::vector<ValueId> &term_inputs)
{
    requireArg(!plans.empty() && plans.size() == term_inputs.size(),
               "graph bsgsSum: one plan per term input");
    const auto &m0 = g_.values[term_inputs[0]];
    for (ValueId t : term_inputs)
        requireArg(g_.values[t].chunkCount == 1
                       && g_.values[t].levelCount == m0.levelCount,
                   "graph bsgsSum: term inputs must be 1-chunk values "
                   "at one level");
    requireArg(m0.levelCount >= 2,
               "graph bsgsSum: needs one multiplicative level");
    NodeId n = newNode(NodeKind::BsgsSum,
                       std::vector<ValueId>(term_inputs.begin(),
                                            term_inputs.end()));
    g_.nodes[n].plans = std::move(plans);
    // applyBsgsSum closes with ONE ModDown pair + RESCALE; plans
    // encode diagonals at the context scale.
    double scale = mulRescaleScale(*ctx_, m0.scale,
                                   ctx_->params().scale(),
                                   m0.levelCount);
    ValueId v = newValue(1, m0.levelCount - 1, scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

ValueId
GraphBuilder::layerApply(const nn::Bootstrap &layer, ValueId a)
{
    const auto &ma = g_.values[a];
    const auto &out = layer.outputMeta();
    requireArg(ma.chunkCount == layer.inputMeta().chunkCount,
               "graph layerApply: chunk count does not match the "
               "layer's compiled input");
    NodeId n = newNode(NodeKind::LayerApply, {a});
    g_.nodes[n].bootstrap = &layer;
    ValueId v = newValue(out.chunkCount, out.levelCount, out.scale, n);
    g_.nodes[n].outputs = {v};
    return v;
}

void
GraphBuilder::output(ValueId v)
{
    g_.values[v].isOutput = true;
    g_.outputs.push_back(v);
}

ValueId
GraphBuilder::lower(const nn::Layer &layer, ValueId in)
{
    const nn::Layer *outer = tag_;
    tag_ = &layer;
    ValueId out = layer.lower(*this, in);
    tag_ = outer;
    return out;
}

Graph
compileSequential(const ckks::CkksContext &ctx,
                  const nn::Sequential &seq)
{
    requireArg(seq.compiled(),
               "compileSequential needs a compiled model");
    GraphBuilder b(ctx);
    const auto &in = seq.inputMeta();
    ValueId v = b.input(in.chunkCount, in.levelCount, in.scale);
    for (const auto &l : seq.layers())
        v = b.lower(*l, v);
    b.output(v);
    return b.take();
}

} // namespace tensorfhe::graph
