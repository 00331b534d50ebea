#include "plan/planner.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/errors.hh"
#include "common/logging.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace tensorfhe::plan
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Limbs that must remain after the last layer.
constexpr std::size_t kTerminalReserve = 1;

double
layerWork(const nn::Layer &l, const perf::CostModel &model,
          std::size_t input_lc)
{
    return perf::CostModel::work(l.costAt(model, input_lc));
}

/** The greedy survey: compile every layer in order, refreshing just
    before any layer the running budget cannot cover, and price that
    baseline schedule (ExecutionPlan::greedyWork). */
struct Survey
{
    std::vector<nn::TensorMeta> inMeta; ///< greedy input per layer
    nn::TensorMeta output;
    double greedyWork = 0.0;
    std::string ledger; ///< per-layer ledger with refreshes (errors)
};

Survey
surveyGreedy(const ckks::CkksContext &ctx,
             const std::vector<std::unique_ptr<nn::Layer>> &layers,
             const nn::TensorMeta &input, const PlannerOptions &opts,
             const perf::CostModel &model)
{
    Survey s;
    nn::TensorMeta meta = input;
    std::ostringstream ledger;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        auto &l = *layers[i];
        bool last = i + 1 == layers.size();
        std::size_t need = l.levelCost() + (last ? 1 : 2);
        if (meta.levelCount < need) {
            requireBudget(
                meta.levelCount >= 2, "plan/planner",
                "no feasible plan: layer ", i, " (", l.name(),
                ") needs ", need, " level counts but only ",
                meta.levelCount,
                " remain and a bootstrap needs >= 2 for its "
                "SlotToCoeff; best plan found:",
                ledger.str());
            nn::Bootstrap b(opts.sine);
            std::size_t pre = meta.levelCount;
            meta = b.compile(ctx, meta);
            s.greedyWork += layerWork(b, model, pre);
            ledger << "\n  Bootstrap: level " << pre << " -> "
                   << meta.levelCount;
            requireBudget(meta.levelCount >= need, "plan/planner",
                          "no feasible plan: layer ", i, " (",
                          l.name(), ") needs ", need,
                          " level counts but a bootstrap refreshes "
                          "only to ",
                          meta.levelCount,
                          " — the first infeasible layer cannot fit "
                          "this chain at any placement; best plan "
                          "found:",
                          ledger.str());
        }
        s.inMeta.push_back(meta);
        std::size_t in_lc = meta.levelCount;
        meta = l.compile(ctx, meta);
        s.greedyWork += layerWork(l, model, in_lc);
        ledger << "\n  " << l.name() << ": level " << in_lc << " -> "
               << meta.levelCount;
    }
    s.output = meta;
    s.ledger = ledger.str();
    return s;
}

/** Per-gap decision recovered from the DP parents. */
struct Decision
{
    bool boot = false;     ///< refresh (landing at runAt) first
    std::size_t runAt = 0; ///< level the layer runs at (post drop)
};

} // namespace

std::string
ExecutionPlan::summary() const
{
    std::ostringstream os;
    for (const auto &s : steps_) {
        os << "\n  " << s.name << ": level " << s.in.levelCount
           << " -> " << s.out.levelCount << ", work " << s.work;
        if (!s.liveChunks.empty()) {
            std::size_t live = static_cast<std::size_t>(std::count(
                s.liveChunks.begin(), s.liveChunks.end(), true));
            os << " (" << live << "/" << s.liveChunks.size()
               << " chunks live)";
        }
    }
    os << "\n  total work " << plannedWork_ << " (greedy baseline "
       << greedyWork_ << ")";
    return os.str();
}

PlanResult
planSequential(const ckks::CkksContext &ctx,
               std::vector<std::unique_ptr<nn::Layer>> layers,
               const nn::TensorMeta &input, const PlannerOptions &opts)
{
    requireArg(!layers.empty(), "planner needs a nonempty stack");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const nn::Layer *l = layers[i].get();
        requireArg(dynamic_cast<const nn::Bootstrap *>(l) == nullptr
                       && dynamic_cast<const nn::LevelDrop *>(l)
                           == nullptr,
                   "planner: layer ", i, " (", l->name(),
                   ") is hand-placed; the planner places every "
                   "refresh and level drop itself — remove it or "
                   "compile without the planner");
    }
    perf::CostModel model(ctx.params());
    auto &metrics = trace::MetricsRegistry::instance();
    auto &candidates = metrics.counter("plan.candidates_explored");
    auto &pruned = metrics.counter("plan.plans_pruned");

    // ---- Phase 1: greedy survey (compiles every layer once). ----
    Survey survey;
    {
        trace::TraceSpan span("plan", "survey");
        span.arg("layers", static_cast<s64>(layers.size()));
        survey = surveyGreedy(ctx, layers, input, opts, model);
    }

    // ---- Phase 2: backward chunk-liveness walk. ----
    std::size_t n = layers.size();
    std::vector<std::vector<bool>> liveAtGap(n + 1);
    {
        trace::TraceSpan span("plan", "liveness");
        liveAtGap[n] = std::vector<bool>(
            survey.output.chunkCount, true);
        for (std::size_t i = n; i-- > 0;)
            liveAtGap[i] = layers[i]->liveInputChunks(liveAtGap[i + 1]);
    }

    // Planner strides from here on: costAt() re-chooses the BSGS
    // stride per queried level exactly as the rebind will, with the
    // root-pattern key restriction lifted (the bundle is generated
    // from the rebuilt stack's requiredRotations()).
    for (auto &l : layers)
        if (auto *m = dynamic_cast<nn::MatvecLayer *>(l.get()))
            m->setPlannedStrides(true);

    // ---- Phase 3: exact DP over (gap, level) states. ----
    std::size_t maxL = ctx.tower().numQ();
    requireArg(input.levelCount >= 1 && input.levelCount <= maxL,
               "input level count outside the tower");
    std::vector<std::vector<double>> dp(
        n + 1, std::vector<double>(maxL + 1, kInf));
    std::vector<std::vector<Decision>> parent(
        n, std::vector<Decision>(maxL + 1));
    for (std::size_t L = kTerminalReserve; L <= maxL; ++L)
        dp[n][L] = 0.0;

    // A refresh is searched at its highest landing, `top`, and priced
    // there, raising the whole chain (the most it can cost); the
    // rebuild then lands it exactly where the layer after it runs,
    // raising onto that level plus postRaiseLevelCost limbs, instead
    // of refreshing high and dropping. Pricing every landing in the
    // search would be exact in work but moves refreshes: on the deep
    // CNN it refreshes after the first ReLU rather than before it,
    // so the refresh error no longer passes the ReLU's slope of about
    // 1/2, and the output measured 1.2-1.6 bits less precise.
    std::size_t top = boot::Bootstrapper::maxLanding(ctx, opts.sine);
    std::vector<double> bootWork(maxL + 1, kInf);
    for (std::size_t L = 2; L <= maxL; ++L)
        bootWork[L] = perf::CostModel::work(model.bootstrap(
            L, maxL, top, ctx.slots(),
            static_cast<std::size_t>(opts.sine.taylorTerms),
            static_cast<std::size_t>(opts.sine.doublings)));

    {
        trace::TraceSpan span("plan", "search");
        span.arg("states", static_cast<s64>(n * maxL));
        for (std::size_t i = n; i-- > 0;) {
            auto &l = *layers[i];
            std::size_t min_in = l.minInputLevelCount();
            std::size_t cost = l.levelCost();
            // Lazy bootstrap: only chunks live downstream refresh.
            auto live = static_cast<std::size_t>(std::count(
                liveAtGap[i].begin(), liveAtGap[i].end(), true));

            // direct[d]: run the layer with its input at exactly d.
            std::vector<double> direct(maxL + 1, kInf);
            for (std::size_t d = min_in; d <= maxL; ++d) {
                std::size_t out = d - cost;
                candidates.add();
                if (out > maxL || dp[i + 1][out] == kInf) {
                    pruned.add();
                    continue;
                }
                direct[d] = layerWork(l, model, d) + dp[i + 1][out];
            }

            // Drop closure: best[d] = cheapest run from any level
            // <= d (limb truncation is free), with its argmin.
            std::vector<double> best(maxL + 1, kInf);
            std::vector<std::size_t> bestAt(maxL + 1, 0);
            for (std::size_t d = 1; d <= maxL; ++d) {
                best[d] = best[d - 1];
                bestAt[d] = bestAt[d - 1];
                if (direct[d] < best[d]) {
                    best[d] = direct[d];
                    bestAt[d] = d;
                }
            }

            for (std::size_t L = 1; L <= maxL; ++L) {
                double run = best[L];
                Decision dec{false, bestAt[L]};
                if (L >= 2) {
                    // Single bootstrap, then the layer at any level up
                    // to the highest landing: the refresh lands there.
                    candidates.add();
                    double boot =
                        static_cast<double>(live) * bootWork[L] + best[top];
                    if (best[top] < kInf && boot < run) {
                        run = boot;
                        dec = Decision{true, bestAt[top]};
                    } else if (best[top] == kInf) {
                        pruned.add();
                    }
                }
                dp[i][L] = run;
                parent[i][L] = dec;
            }
        }
    }

    requireBudget(dp[0][input.levelCount] < kInf, "plan/planner",
                  "no feasible plan from input level count ",
                  input.levelCount,
                  "; best plan found (greedy survey):",
                  survey.ledger);

    // ---- Phase 4: rebuild the stack at the planned levels. ----
    std::vector<PlanStep> steps;
    std::vector<std::unique_ptr<nn::Layer>> stack;
    nn::TensorMeta meta = input;
    {
        trace::TraceSpan span("plan", "rebuild");
        for (std::size_t i = 0; i < n; ++i) {
            const Decision &dec = parent[i][meta.levelCount];
            if (dec.boot) {
                auto b = std::make_unique<nn::Bootstrap>(opts.sine,
                                                         dec.runAt);
                bool anyDead =
                    std::find(liveAtGap[i].begin(), liveAtGap[i].end(),
                              false)
                    != liveAtGap[i].end();
                std::vector<bool> mask;
                if (anyDead) {
                    mask = liveAtGap[i];
                    b->setLiveChunks(mask);
                }
                PlanStep st;
                st.kind = PlanStep::Kind::Bootstrap;
                st.name = b->name();
                st.in = meta;
                meta = b->compile(ctx, meta);
                st.out = meta;
                st.work = layerWork(*b, model, st.in.levelCount);
                st.liveChunks = std::move(mask);
                steps.push_back(std::move(st));
                stack.push_back(std::move(b));
            }
            if (dec.runAt < meta.levelCount) {
                auto d = std::make_unique<nn::LevelDrop>(dec.runAt);
                PlanStep st;
                st.kind = PlanStep::Kind::LevelDrop;
                st.name = d->name();
                st.in = meta;
                meta = d->compile(ctx, meta);
                st.out = meta;
                steps.push_back(std::move(st));
                stack.push_back(std::move(d));
            }
            PlanStep st;
            st.kind = PlanStep::Kind::Layer;
            st.name = layers[i]->name();
            st.in = meta;
            meta = layers[i]->rebind(ctx, meta);
            st.out = meta;
            st.work = layerWork(*layers[i], model, st.in.levelCount);
            steps.push_back(std::move(st));
            stack.push_back(std::move(layers[i]));
        }
    }

    ExecutionPlan plan(std::move(steps), survey.greedyWork);

    // ---- Phase 5: verify the plan's ledger invariants. ----
    {
        trace::TraceSpan span("plan", "verify");
        const nn::TensorMeta *prev = &input;
        for (std::size_t i = 0; i < plan.steps().size(); ++i) {
            const auto &st = plan.steps()[i];
            requireState(st.in.levelCount == prev->levelCount
                             && st.in.chunkCount == prev->chunkCount,
                         "planned step ", st.name,
                         " does not chain from its predecessor");
            if (st.kind == PlanStep::Kind::Bootstrap) {
                // Re-verify against the exact refresh mirror at the
                // placed layer's landing.
                const auto &b =
                    dynamic_cast<const nn::Bootstrap &>(*stack[i])
                        .bootstrapper();
                auto r = boot::Bootstrapper::predictRefresh(
                    ctx, opts.sine, st.in.levelCount, b.landing());
                requireState(st.out.levelCount == r.levelCount
                                 && st.out.scale == r.scale
                                 && b.raisedLevelCount()
                                     == r.levelCount
                                         + b.postRaiseLevelCost(
                                             opts.sine),
                             "planned bootstrap diverged from the "
                             "predictRefresh mirror");
            }
            prev = &st.out;
        }
        requireState(prev->levelCount >= kTerminalReserve,
                     "planned output violates the terminal reserve");
        requireState(plan.plannedWork()
                         <= survey.greedyWork * (1.0 + 1e-9),
                     "planned schedule costs more than the greedy "
                     "baseline it searched over");
    }

    metrics.setGauge("plan.chosen_cost", plan.plannedWork());
    metrics.setGauge("plan.greedy_cost", plan.greedyWork());

    PlanResult res;
    res.stack = std::move(stack);
    res.plan = std::move(plan);
    res.output = meta;
    return res;
}

} // namespace tensorfhe::plan
