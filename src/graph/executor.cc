#include "graph/executor.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/logging.hh"
#include "common/stats.hh"
#include "fault/fault.hh"
#include "resilience/counters.hh"
#include "resilience/integrity.hh"
#include "trace/trace.hh"

namespace tensorfhe::graph
{

namespace
{

/** Union of the producers' last-launch sets (the queue indices a
    node's first launch must wait for). */
std::vector<std::size_t>
producerDeps(const Graph &g,
             const std::vector<std::vector<std::size_t>> &last,
             const Node &n)
{
    std::vector<std::size_t> deps;
    for (ValueId v : n.inputs) {
        NodeId p = g.values[v].producer;
        if (p == kNoNode)
            continue;
        for (std::size_t idx : last[p])
            deps.push_back(idx);
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    return deps;
}

/**
 * Execute one non-Input node through the evaluator entry points.
 * Pure with respect to `vals[n.inputs]`: inputs are read, never
 * mutated or moved, which is what makes a retry after a mid-node
 * failure bit-identical to an uninterrupted run.
 */
void
executeNode(const nn::NnEngine &engine, const Graph &g, const Node &n,
            std::vector<Cts> &vals)
{
    const auto &beval = engine.batched();
    const auto &disp = beval.dispatcher();
    switch (n.kind) {
      case NodeKind::Add:
        vals[n.outputs[0]] =
            beval.add(vals[n.inputs[0]], vals[n.inputs[1]]);
        break;
      case NodeKind::Sub:
        vals[n.outputs[0]] =
            beval.sub(vals[n.inputs[0]], vals[n.inputs[1]]);
        break;
      case NodeKind::AddPlain:
        vals[n.outputs[0]] =
            beval.addPlain(vals[n.inputs[0]], *n.pt);
        break;
      case NodeKind::MulPlain:
        vals[n.outputs[0]] =
            beval.multiplyPlain(vals[n.inputs[0]], *n.pt);
        break;
      case NodeKind::MulPlainRescale:
        vals[n.outputs[0]] =
            beval.multiplyPlainRescale(vals[n.inputs[0]], *n.pt);
        break;
      case NodeKind::MulConstToScale:
        vals[n.outputs[0]] = beval.multiplyConstToScale(
            vals[n.inputs[0]], n.constant, n.targetScale);
        break;
      case NodeKind::AddConst:
        vals[n.outputs[0]] =
            beval.addConst(vals[n.inputs[0]], n.constant);
        break;
      case NodeKind::Rescale:
        vals[n.outputs[0]] = beval.rescale(vals[n.inputs[0]]);
        break;
      case NodeKind::Multiply:
        vals[n.outputs[0]] =
            beval.multiply(vals[n.inputs[0]], vals[n.inputs[1]]);
        break;
      case NodeKind::RotateMany: {
          auto rots =
              beval.rotateManyBatch(vals[n.inputs[0]], n.steps);
          for (std::size_t i = 0; i < n.outputs.size(); ++i)
              vals[n.outputs[i]] = std::move(rots[i]);
          break;
      }
      case NodeKind::Drop:
        vals[n.outputs[0]] = beval.dropToLevelCount(
            vals[n.inputs[0]], n.levelCount);
        break;
      case NodeKind::SetScale: {
          Cts out = vals[n.inputs[0]];
          for (auto &ct : out)
              ct.scale = n.targetScale;
          vals[n.outputs[0]] = std::move(out);
          break;
      }
      case NodeKind::Unpack: {
          const Cts &in = vals[n.inputs[0]];
          std::size_t k = n.outputs.size();
          std::size_t b = in.size() / k;
          for (std::size_t c = 0; c < k; ++c) {
              Cts out(b);
              for (std::size_t s = 0; s < b; ++s)
                  out[s] = in[s * k + c];
              vals[n.outputs[c]] = std::move(out);
          }
          break;
      }
      case NodeKind::Pack: {
          std::size_t k = n.inputs.size();
          std::size_t b = vals[n.inputs[0]].size();
          Cts out(k * b);
          for (std::size_t c = 0; c < k; ++c)
              for (std::size_t s = 0; s < b; ++s)
                  out[s * k + c] = vals[n.inputs[c]][s];
          vals[n.outputs[0]] = std::move(out);
          break;
      }
      case NodeKind::BsgsSum: {
          std::size_t terms = n.plans.size();
          std::size_t b = vals[n.inputs[0]].size();
          std::size_t lc = vals[n.inputs[0]][0].levelCount();
          std::vector<exec::BsgsProgram> owned;
          owned.reserve(terms);
          for (std::size_t t = 0; t < terms; ++t)
              owned.push_back(n.plans[t]->program(lc));
          std::vector<const exec::BsgsProgram *> progs;
          progs.reserve(terms);
          std::vector<const ckks::Ciphertext *> ins;
          ins.reserve(terms * b);
          for (std::size_t t = 0; t < terms; ++t) {
              progs.push_back(&owned[t]);
              const Cts &tv = vals[n.inputs[t]];
              for (std::size_t s = 0; s < b; ++s)
                  ins.push_back(&tv[s]);
          }
          vals[n.outputs[0]] = disp.applyBsgsSum(
              progs.data(), ins.data(), terms, b);
          break;
      }
      case NodeKind::LayerApply:
        vals[n.outputs[0]] =
            n.bootstrap->refresh(engine, vals[n.inputs[0]]);
        break;
      case NodeKind::FusedEle: {
          const Cts &base = vals[n.inputs[0]];
          // Shape carrier; the span pass overwrites every
          // coefficient and the dispatcher replays the scales.
          Cts out = base;
          std::vector<const ckks::Ciphertext *> ins;
          ins.reserve(n.inputs.size());
          for (ValueId v : n.inputs)
              ins.push_back(vals[v].data());
          disp.fusedElementwise(n.fused, out.data(), ins.data(),
                                n.fusedPts.data(), out.size());
          vals[n.outputs[0]] = std::move(out);
          break;
      }
      default:
        TFHE_ASSERT(false, "unexecutable node kind");
    }
}

} // namespace

ExecResult
GraphExecutor::runSchedule(const nn::NnEngine &engine,
                           std::vector<Cts> &vals,
                           std::vector<std::vector<u64>> &sums,
                           std::vector<Cts> inputs,
                           std::size_t startPos,
                           const ExecOptions &opt) const
{
    const Graph &g = *g_;

    // Input value -> caller batch index.
    std::vector<std::size_t> input_index(g.values.size(), 0);
    for (std::size_t i = 0; i < g.inputs.size(); ++i)
        input_index[g.inputs[i]] = i;

    // Liveness: a value is released after its last consumer, and
    // decides what each checkpoint snapshot must carry.
    std::vector<std::size_t> lastUse = resilience::valueLastUse(g, sched_);
    std::vector<std::size_t> cuts;
    if (opt.checkpointEvery > 0) {
        requireArg(opt.checkpointLog != nullptr,
                   "checkpointEvery > 0 requires a checkpointLog");
        cuts = resilience::chooseCutPoints(g, sched_,
                                           opt.checkpointEvery);
    }
    auto cutIt =
        std::lower_bound(cuts.begin(), cuts.end(), startPos);

    ExecResult res;
    // Per-node queue indices the node's output depends on.
    std::vector<std::vector<std::size_t>> last(g.nodes.size());
    // One nn span around each run of nodes lowered from the same
    // layer: the layer level of the workload -> layer -> node ->
    // kernel nesting.
    std::optional<trace::TraceSpan> layerSpan;
    const nn::Layer *spanLayer = nullptr;

    for (std::size_t pos = startPos; pos < sched_.order.size();
         ++pos) {
        NodeId id = sched_.order[pos];
        const Node &n = g.nodes[id];

        if (n.layer != spanLayer) {
            layerSpan.reset();
            spanLayer = n.layer;
            if (spanLayer != nullptr && trace::Tracer::armed()) {
                const auto &out = spanLayer->outputMeta();
                layerSpan.emplace("nn", spanLayer->name());
                layerSpan->arg("chunks",
                               static_cast<s64>(out.chunkCount))
                    .arg("level", static_cast<s64>(out.levelCount));
            }
        }

        // Append the attempt's captured launches to the schedule,
        // stream-tagged, first launch gated on every producer.
        auto bookkeep = [&](std::vector<KernelLaunch> q) {
            if (!opt.captureSchedule)
                return;
            auto deps = producerDeps(g, last, n);
            std::size_t base = res.schedule.size();
            for (std::size_t i = 0; i < q.size(); ++i) {
                gpu::ScheduledLaunch sl;
                sl.launch = q[i];
                sl.stream = sched_.stream[id];
                if (i == 0)
                    sl.deps = deps;
                res.schedule.push_back(std::move(sl));
            }
            last[id] = q.empty()
                ? std::move(deps)
                : std::vector<std::size_t>{base + q.size() - 1};
        };

        if (n.kind == NodeKind::Input) {
            // Inputs move from the caller's batches; there is nothing
            // to re-execute, so no fault hooks and no retry — but
            // paranoid mode still seals them with a digest so any
            // later at-rest flip is caught at consume time.
            TFHE_ASSERT(!inputs.empty(),
                        "Input node in a resumed schedule suffix");
            KernelStats::QueueCapture cap(opt.captureSchedule);
            ValueId v = n.outputs[0];
            vals[v] = std::move(inputs[input_index[v]]);
            if (opt.paranoid) {
                sums[v].clear();
                for (const auto &ct : vals[v])
                    sums[v].push_back(resilience::validateCt(
                        ct, "graph/node-output", id));
            }
            bookkeep(cap.take());
            continue;
        }

        for (int attempt = 1;; ++attempt) {
            // Node span: one per attempt, so a retried node shows as
            // repeated spans with the backoff gap between them.
            trace::TraceSpan nodeSpan("graph", nodeKindName(n.kind));
            nodeSpan.arg("node", static_cast<s64>(id))
                .arg("stream", static_cast<s64>(sched_.stream[id]))
                .arg("attempt", attempt)
                .arg("level",
                     static_cast<s64>(
                         g.values[n.outputs[0]].levelCount));
            auto raw = EvalOpStats::instance().rawSnapshot();
            KernelStats::QueueCapture cap(opt.captureSchedule);
            // Roll the failed attempt back so the engine and its
            // accounting look exactly as if the attempt never ran:
            // partially assigned outputs cleared, executed-op
            // counters restored (the capture guard discards the
            // attempt's launches, pooled leases return via RAII).
            auto rollback = [&] {
                EvalOpStats::instance().restore(raw);
                for (ValueId v : n.outputs) {
                    vals[v].clear();
                    sums[v].clear();
                }
            };
            bool retryable = false;
            try {
                // Consume side: the at-rest window since each input
                // was produced closes here — verify before use.
                for (ValueId v : n.inputs) {
                    Cts &in = vals[v];
                    for (std::size_t c = 0; c < in.size(); ++c) {
                        TFHE_FAULT_POINT_CT("graph/value-store",
                                            in[c]);
                        if (opt.paranoid && c < sums[v].size()
                            && resilience::ctChecksum(in[c])
                                != sums[v][c])
                            throw IntegrityError(
                                "graph/value-store",
                                strCat("stored value ", v, " chunk ",
                                       c, " checksum mismatch"),
                                id);
                    }
                }

                executeNode(engine, g, n, vals);

                // Produce side: every output must land on its
                // compiled level and scale (O(1) per chunk, every
                // mode); paranoid mode also validates and seals it
                // with a digest.
                for (ValueId v : n.outputs) {
                    Cts &out = vals[v];
                    if (opt.paranoid)
                        sums[v].clear();
                    for (auto &ct : out) {
                        TFHE_FAULT_POINT_CT("graph/node-output", ct);
                        resilience::checkCtMeta(
                            ct, g.values[v].levelCount,
                            g.values[v].scale, "graph/node-output",
                            id);
                        if (opt.paranoid)
                            sums[v].push_back(resilience::validateCt(
                                ct, "graph/node-output", id));
                    }
                }

                bookkeep(cap.take());
                break;
            } catch (const TransientFault &e) {
                resilience::bump(
                    resilience::Counters::instance().transientFaults);
                trace::SpanArg fargs[] = {{"node",
                                           static_cast<s64>(id)},
                                          {"attempt", attempt}};
                trace::Tracer::instant("graph", "transient-fault",
                                       fargs, 2);
                TFHE_LOG_DEBUG("graph", "node ", id, " attempt ",
                               attempt, " transient fault at ",
                               e.site(), ": ", e.message());
                retryable = attempt < opt.retry.maxAttempts;
                rollback();
                if (!retryable)
                    throw TransientFault(
                        e.site(), e.message(),
                        e.hasNode() ? e.node() : id);
            } catch (const IntegrityError &e) {
                resilience::bump(
                    resilience::Counters::instance()
                        .integrityFailures);
                trace::SpanArg fargs[] = {{"node",
                                           static_cast<s64>(id)},
                                          {"attempt", attempt}};
                trace::Tracer::instant("graph", "integrity-error",
                                       fargs, 2);
                TFHE_LOG_DEBUG("graph", "node ", id, " attempt ",
                               attempt, " integrity error at ",
                               e.site(), ": ", e.message());
                // A corrupted STORED value never repairs itself by
                // re-running its consumer — surface it (recovery is
                // resumeFrom, whose copies predate the corruption).
                retryable = attempt < opt.retry.maxAttempts
                    && opt.retry.retryIntegrity
                    && e.site() != "graph/value-store";
                rollback();
                if (!retryable)
                    throw IntegrityError(
                        e.site(), e.message(),
                        e.hasNode() ? e.node() : id);
            }
            ++res.retriesUsed;
            resilience::bump(resilience::Counters::instance().retries);
            {
                // The backoff gap gets its own span so retry storms
                // render as visible idle stretches on the timeline.
                trace::TraceSpan sp("graph", "backoff");
                sp.arg("node", static_cast<s64>(id))
                    .arg("attempt", attempt + 1);
                resilience::backoff(opt.retry, attempt + 1);
            }
        }

        // Free what no later node reads, as call-by-call evaluation
        // would: memory follows the live set, not the whole graph.
        for (ValueId v : n.inputs) {
            if (lastUse[v] == pos) {
                vals[v] = Cts();
                sums[v].clear();
            }
        }

        if (cutIt != cuts.end() && *cutIt == pos) {
            ++cutIt;
            trace::TraceSpan cpSpan("graph", "checkpoint");
            cpSpan.arg("pos", static_cast<s64>(pos));
            resilience::bump(
                resilience::Counters::instance().checkpointsTaken);
            resilience::Checkpoint cp;
            cp.resumeIndex = pos + 1;
            cp.graphNodes = g.nodes.size();
            for (ValueId v = 0; v < g.values.size(); ++v) {
                if (vals[v].empty() || lastUse[v] <= pos)
                    continue;
                cp.valueIds.push_back(v);
                cp.values.push_back(vals[v]);
                std::vector<u64> cs;
                cs.reserve(vals[v].size());
                for (const auto &ct : vals[v])
                    cs.push_back(resilience::ctChecksum(ct));
                cp.checksums.push_back(std::move(cs));
            }
            opt.checkpointLog->push_back(std::move(cp));
            ++res.checkpointsTaken;
        }
    }

    res.launchCount = res.schedule.size();
    res.outputs.reserve(g.outputs.size());
    for (ValueId v : g.outputs)
        res.outputs.push_back(std::move(vals[v]));
    return res;
}

ExecResult
GraphExecutor::run(const nn::NnEngine &engine, std::vector<Cts> inputs,
                   const ExecOptions &opt) const
{
    const Graph &g = *g_;
    requireArg(inputs.size() == g.inputs.size(),
               "graph run: expected ", g.inputs.size(),
               " input batches, got ", inputs.size());
    requireArg(!g.inputs.empty() && !inputs[0].empty(),
               "graph run: empty input");
    std::size_t batch =
        inputs[0].size() / g.values[g.inputs[0]].chunkCount;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const ValueMeta &m = g.values[g.inputs[i]];
        requireArg(inputs[i].size() == batch * m.chunkCount,
                   "graph run: input ", i,
                   " does not match the common batch size");
        // Usage errors, raised before any node runs: a batch off its
        // Input meta could only fail later as an IntegrityError.
        for (const auto &ct : inputs[i]) {
            requireArg(ct.levelCount() == m.levelCount,
                       "graph run: input ", i, " at level count ",
                       ct.levelCount(), ", compiled for ",
                       m.levelCount);
            requireArg(std::abs(ct.scale - m.scale) <= 1e-6 * m.scale,
                       "graph run: input ", i, " at scale ", ct.scale,
                       ", compiled for ", m.scale);
        }
    }

    // Workload-level span: the root of the workload -> node ->
    // dispatcher-op -> kernel nesting.
    trace::TraceSpan runSpan("graph", "graph-run");
    runSpan.arg("nodes", static_cast<s64>(g.nodes.size()))
        .arg("batch", static_cast<s64>(batch))
        .arg("streams", static_cast<s64>(sched_.streamsUsed));

    std::vector<Cts> vals(g.values.size());
    std::vector<std::vector<u64>> sums(g.values.size());
    return runSchedule(engine, vals, sums, std::move(inputs), 0, opt);
}

ExecResult
GraphExecutor::resumeFrom(const nn::NnEngine &engine,
                          const resilience::Checkpoint &cp,
                          const ExecOptions &opt) const
{
    const Graph &g = *g_;
    requireArg(!cp.empty(), "resume from an empty checkpoint");
    requireArg(cp.graphNodes == g.nodes.size(),
               "checkpoint belongs to a different graph: ",
               cp.graphNodes, " nodes vs ", g.nodes.size());
    requireArg(cp.resumeIndex <= sched_.order.size(),
               "checkpoint resume index ", cp.resumeIndex,
               " beyond the schedule");
    requireArg(cp.valueIds.size() == cp.values.size()
                   && cp.valueIds.size() == cp.checksums.size(),
               "malformed checkpoint: parallel arrays disagree");

    trace::TraceSpan runSpan("graph", "graph-resume");
    runSpan.arg("resume_index",
                static_cast<s64>(cp.resumeIndex));
    resilience::bump(
        resilience::Counters::instance().checkpointsResumed);

    std::vector<Cts> vals(g.values.size());
    std::vector<std::vector<u64>> sums(g.values.size());
    for (std::size_t i = 0; i < cp.valueIds.size(); ++i) {
        ValueId v = cp.valueIds[i];
        requireArg(v < g.values.size(),
                   "checkpoint names unknown value ", v);
        const Cts &src = cp.values[i];
        requireArg(src.size() == cp.checksums[i].size(),
                   "checkpoint value ", v,
                   " chunk/checksum count mismatch");
        for (std::size_t c = 0; c < src.size(); ++c)
            if (resilience::ctChecksum(src[c]) != cp.checksums[i][c])
                throw IntegrityError(
                    "resilience/checkpoint",
                    strCat("checkpoint value ", v, " chunk ", c,
                           " checksum mismatch"));
        vals[v] = src;
        if (opt.paranoid)
            sums[v] = cp.checksums[i];
    }
    return runSchedule(engine, vals, sums, {}, cp.resumeIndex, opt);
}

void
GraphExecutor::prestageWorkspace(const nn::NnEngine &engine,
                                 std::size_t batch) const
{
    const Graph &g = *g_;
    // The widest scratch any dispatch checks out is the key-switch
    // union basis (every q and p limb); the arena's best fit (one
    // ordered-map lookup) serves any smaller request from a pooled
    // buffer of that shape.
    const auto &tower = engine.ctx().tower();
    std::vector<std::size_t> limbs(tower.numTotal());
    std::iota(limbs.begin(), limbs.end(), 0);

    std::size_t widest = 1;
    for (const auto &n : g.nodes) {
        if (n.dead)
            continue;
        for (ValueId v : n.outputs)
            widest = std::max(widest,
                              g.values[v].chunkCount * batch);
    }
    // Two live components per ciphertext plus slack for the
    // per-digit hoist scratch.
    std::size_t count = 2 * widest + 8;
    engine.batched().dispatcher().workspace().prestage(
        limbs, rns::Domain::Eval, count);
}

} // namespace tensorfhe::graph
