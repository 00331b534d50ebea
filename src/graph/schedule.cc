#include "graph/schedule.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hh"

namespace tensorfhe::graph
{

namespace
{

bool
fusableKind(NodeKind k)
{
    return k == NodeKind::Add || k == NodeKind::Sub
        || k == NodeKind::AddPlain || k == NodeKind::MulPlain;
}

/** The evaluator's requireCompatiblePair tolerance. */
bool
scaleCompatible(double a, double b)
{
    double m = std::max(std::abs(a), std::abs(b));
    return std::abs(a - b) <= 1e-6 * m;
}

/** ct-ct members must satisfy the runtime operand-scale check. */
bool
ctCtLegal(const Graph &g, const Node &n)
{
    if (n.kind != NodeKind::Add && n.kind != NodeKind::Sub)
        return true;
    return scaleCompatible(g.values[n.inputs[0]].scale,
                           g.values[n.inputs[1]].scale);
}

/**
 * Generates the FusedSpec register program for the expression tree
 * rooted at `root` whose internal nodes are `group`. Postorder walk;
 * every ct-ct op computes into its FIRST operand's register (so the
 * scale replay keeps the destination's scale, exactly like the eager
 * HADD), and right-operand registers return to the free list.
 */
struct FusedCodegen
{
    const Graph &g;
    const std::set<NodeId> &group;

    exec::FusedSpec spec;
    std::vector<ValueId> leaves;
    std::vector<const ckks::Plaintext *> pts;

    std::vector<u16> freeRegs;
    u16 nextReg = 0;
    std::size_t watermark = 0;

    u16
    allocReg()
    {
        if (!freeRegs.empty()) {
            u16 r = freeRegs.back();
            freeRegs.pop_back();
            return r;
        }
        u16 r = nextReg++;
        watermark = std::max<std::size_t>(watermark, nextReg);
        return r;
    }

    u16
    ptIndex(const ckks::Plaintext *pt)
    {
        for (std::size_t i = 0; i < pts.size(); ++i)
            if (pts[i] == pt)
                return static_cast<u16>(i);
        pts.push_back(pt);
        return static_cast<u16>(pts.size() - 1);
    }

    u16
    gen(ValueId v)
    {
        NodeId p = g.values[v].producer;
        if (p == kNoNode || group.find(p) == group.end()) {
            // External operand: one Load per occurrence.
            u16 r = allocReg();
            auto idx = static_cast<u16>(leaves.size());
            leaves.push_back(v);
            spec.ins.push_back(
                {exec::FusedSpec::Op::Load, r, 0, idx});
            return r;
        }
        const Node &n = g.nodes[p];
        switch (n.kind) {
          case NodeKind::Add:
          case NodeKind::Sub: {
              u16 ra = gen(n.inputs[0]);
              u16 rb = gen(n.inputs[1]);
              spec.ins.push_back({n.kind == NodeKind::Add
                                      ? exec::FusedSpec::Op::AddCt
                                      : exec::FusedSpec::Op::SubCt,
                                  ra, rb, 0});
              freeRegs.push_back(rb);
              ++spec.addLike;
              spec.elementsFactor += 2;
              return ra;
          }
          case NodeKind::MulPlain: {
              u16 ra = gen(n.inputs[0]);
              spec.ins.push_back({exec::FusedSpec::Op::MulPt, ra, 0,
                                  ptIndex(n.pt)});
              ++spec.mulLike;
              spec.elementsFactor += 2;
              return ra;
          }
          case NodeKind::AddPlain: {
              u16 ra = gen(n.inputs[0]);
              spec.ins.push_back({exec::FusedSpec::Op::AddPt, ra, 0,
                                  ptIndex(n.pt)});
              ++spec.addLike;
              spec.elementsFactor += 1;
              return ra;
          }
          default:
              TFHE_ASSERT(false, "non-fusable node in a fused group");
              return 0;
        }
    }

    /** Run the walk from the root node; fills result/counts. */
    void
    run(NodeId root)
    {
        spec.result = gen(g.nodes[root].outputs[0]);
        spec.numRegs = watermark;
        spec.numInputs = leaves.size();
        spec.numPts = pts.size();
    }
};

/**
 * Greedy tree growth from `root`: repeatedly inline a producer edge
 * while the grown program still fits the register file. Returns the
 * final member set (possibly just {root}).
 */
std::set<NodeId>
growGroup(const Graph &g, const std::vector<std::size_t> &use_count,
          NodeId root)
{
    std::set<NodeId> group{root};
    std::set<NodeId> rejected;
    bool grew = true;
    while (grew) {
        grew = false;
        for (NodeId m : group) {
            for (ValueId v : g.nodes[m].inputs) {
                NodeId p = g.values[v].producer;
                if (p == kNoNode || group.count(p)
                    || rejected.count(p))
                    continue;
                const Node &pn = g.nodes[p];
                const auto &vm = g.values[v];
                const auto &rm =
                    g.values[g.nodes[root].outputs[0]];
                if (pn.dead || !fusableKind(pn.kind)
                    || use_count[v] != 1 || vm.isOutput
                    || vm.levelCount != rm.levelCount
                    || vm.chunkCount != rm.chunkCount
                    || !ctCtLegal(g, pn)) {
                    rejected.insert(p);
                    continue;
                }
                group.insert(p);
                FusedCodegen cg{g, group, {}, {}, {}, {}, 0, 0};
                cg.run(root);
                if (cg.watermark > exec::FusedSpec::kMaxRegs) {
                    group.erase(p);
                    rejected.insert(p);
                    continue;
                }
                grew = true;
                break; // group changed; restart the scan
            }
            if (grew)
                break;
        }
    }
    return group;
}

/**
 * Fuse MulPlain -> Rescale chains into one MulPlainRescale node
 * (BatchedEvaluator::multiplyPlainRescale). Legality: the
 * intermediate product value is single-consumer and not a graph
 * output — exactly the FusedEle interior-edge rule. Runs BEFORE the
 * elementwise pass: a MulPlain feeding a Rescale could only ever be
 * an elementwise group's root (Rescale is not a fusable member), and
 * the mul+rescale fusion saves a full 2*B*L*n memory round trip where
 * elementwise fusion over the same edge saves nothing. Bit-exact and
 * accounting-invariant by the dispatcher's contract.
 */
void
mulRescaleFusePass(Graph &g, Schedule &sched)
{
    std::vector<std::size_t> use_count(g.values.size(), 0);
    for (const auto &n : g.nodes) {
        if (n.dead)
            continue;
        for (ValueId v : n.inputs)
            ++use_count[v];
    }
    for (ValueId v : g.outputs)
        ++use_count[v];

    std::size_t original = g.nodes.size();
    for (NodeId r = 0; r < original; ++r) {
        const Node &rn = g.nodes[r];
        if (rn.dead || rn.kind != NodeKind::Rescale)
            continue;
        ValueId v = rn.inputs[0];
        NodeId p = g.values[v].producer;
        if (p == kNoNode || g.nodes[p].dead
            || g.nodes[p].kind != NodeKind::MulPlain
            || use_count[v] != 1 || g.values[v].isOutput)
            continue;
        Node f;
        f.kind = NodeKind::MulPlainRescale;
        f.inputs = g.nodes[p].inputs;
        f.outputs = rn.outputs;
        f.pt = g.nodes[p].pt;
        f.layer = rn.layer;
        g.nodes.push_back(std::move(f));
        NodeId fid = g.nodes.size() - 1;
        g.values[g.nodes[fid].outputs[0]].producer = fid;
        g.nodes[p].dead = true;
        g.nodes[r].dead = true;
        ++sched.mulRescaleFused;
    }
}

void
fusePass(Graph &g, Schedule &sched)
{
    // Value use counts over live nodes; graph outputs count as one
    // extra use so they are never folded into a group's interior.
    std::vector<std::size_t> use_count(g.values.size(), 0);
    for (const auto &n : g.nodes) {
        if (n.dead)
            continue;
        for (ValueId v : n.inputs)
            ++use_count[v];
    }
    for (ValueId v : g.outputs)
        ++use_count[v];

    // Reverse creation order = reverse topological order (the
    // builder appends in program order), so a chain's sink is tried
    // before its producers and each tree is grouped from its root.
    std::size_t original = g.nodes.size();
    for (std::size_t i = original; i-- > 0;) {
        const Node &r = g.nodes[i];
        if (r.dead || !fusableKind(r.kind) || !ctCtLegal(g, r))
            continue;
        auto group = growGroup(g, use_count, i);
        if (group.size() < 2)
            continue;
        FusedCodegen cg{g, group, {}, {}, {}, {}, 0, 0};
        cg.run(i);

        Node f;
        f.kind = NodeKind::FusedEle;
        f.inputs = std::move(cg.leaves);
        f.outputs = g.nodes[i].outputs;
        f.fused = std::move(cg.spec);
        f.fusedPts = std::move(cg.pts);
        f.layer = g.nodes[i].layer; // the group's root
        g.nodes.push_back(std::move(f));
        NodeId fid = g.nodes.size() - 1;
        g.values[g.nodes[fid].outputs[0]].producer = fid;
        for (NodeId m : group)
            g.nodes[m].dead = true;
        ++sched.fusedGroups;
        sched.fusedMembers += group.size();
    }
}

/** Kahn topological sort over live nodes, smallest-id-first. */
std::vector<NodeId>
topoOrder(const Graph &g)
{
    std::vector<std::size_t> indeg(g.nodes.size(), 0);
    std::vector<std::vector<NodeId>> adj(g.nodes.size());
    for (NodeId n = 0; n < g.nodes.size(); ++n) {
        if (g.nodes[n].dead)
            continue;
        for (ValueId v : g.nodes[n].inputs) {
            NodeId p = g.values[v].producer;
            if (p == kNoNode)
                continue;
            TFHE_ASSERT(!g.nodes[p].dead,
                        "live node consumes a dead producer");
            adj[p].push_back(n);
            ++indeg[n];
        }
    }
    std::set<NodeId> ready;
    for (NodeId n = 0; n < g.nodes.size(); ++n)
        if (!g.nodes[n].dead && indeg[n] == 0)
            ready.insert(n);
    std::vector<NodeId> order;
    order.reserve(g.liveNodeCount());
    while (!ready.empty()) {
        NodeId n = *ready.begin();
        ready.erase(ready.begin());
        order.push_back(n);
        for (NodeId c : adj[n])
            if (--indeg[c] == 0)
                ready.insert(c);
    }
    TFHE_ASSERT(order.size() == g.liveNodeCount(),
                "graph has a cycle");
    return order;
}

void
assignStreams(const Graph &g, Schedule &sched, int max_streams)
{
    sched.stream.assign(g.nodes.size(), 0);
    std::vector<bool> claimed(g.nodes.size(), false);
    int next = 0;
    int high = 0;
    for (NodeId n : sched.order) {
        int s = -1;
        // Pipeline: continue the first producer whose stream no
        // earlier consumer claimed.
        for (ValueId v : g.nodes[n].inputs) {
            NodeId p = g.values[v].producer;
            if (p == kNoNode || claimed[p])
                continue;
            s = sched.stream[p];
            claimed[p] = true;
            break;
        }
        if (s < 0)
            s = max_streams > 0 ? next++ % max_streams : next++;
        sched.stream[n] = s;
        high = std::max(high, s);
    }
    sched.streamsUsed = high + 1;
}

} // namespace

Schedule
scheduleGraph(Graph &g, const ScheduleOptions &opt)
{
    Schedule sched;
    if (opt.fuse) {
        mulRescaleFusePass(g, sched);
        fusePass(g, sched);
    }
    sched.order = topoOrder(g);
    assignStreams(g, sched, opt.maxStreams);
    return sched;
}

} // namespace tensorfhe::graph
