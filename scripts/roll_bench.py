#!/usr/bin/env python3
"""Roll per-PR bench dumps into the committed perf trajectory.

The bench binaries emit JSON Lines (one ``{"bench": ...}`` object per
line, several benches per file — see bench/bench_util.hh). CI uploads
them as ``BENCH_PR<N>.json`` artifacts; this script folds them into
one committed ``BENCH_TRAJECTORY.json`` and gates releases on the
headline metrics:

  merge --baseline BENCH_TRAJECTORY.json --out OUT BENCH_PR*.json
      Fold the given dumps into the baseline trajectory: each dump's
      benches replace the same-named benches of its PR entry, every
      other PR entry and headline is kept, and the headlines are
      recomputed from the merged history (latest PR wins per bench).
      Deterministic output: no timestamps, sorted keys — folding the
      same dumps twice is a no-op diff.

  check --baseline BENCH_TRAJECTORY.json BENCH_PR*.json
      Recompute the headline metrics from fresh dumps and compare
      against the committed baseline. Ratio-style headlines (hoist
      win, overlap speedup, launch reduction) fail on a >15% relative
      regression; overhead-style headlines are gated against their
      absolute budget (wall-clock noise on shared runners makes
      relative gating of near-zero overheads meaningless). A baseline
      headline the fresh dumps do not measure fails the check: a gate
      never lapses silently.

Stdlib only — runs on the bare CI python.
"""

import argparse
import json
import re
import sys

# Relative slack for ratio-style headline metrics.
TOLERANCE = 0.15

# name -> (bench, metric key, mode, budget)
#   mode "higher":  regression = new < old * (1 - TOLERANCE)
#   mode "ceiling": regression = new > budget (absolute, baseline-free)
#   mode "floor":   regression = new < budget (absolute, baseline-free)
# The special key "@moddown_reduction" is computed, not read.
HEADLINES = {
    "keyswitch_hoist_speedup": ("keyswitch_hoist", "@hoist_speedup", "higher", None),
    "keyswitch_moddown_reduction": ("keyswitch_hoist", "@moddown_reduction", "higher", None),
    "lstm_overlap_speedup": ("graph_schedule", "lstm_overlap_speedup", "higher", None),
    "lstm_launch_reduction": ("graph_schedule", "lstm_launch_reduction", "higher", None),
    "cnn_overlap_speedup": ("graph_schedule", "cnn_deep_overlap_speedup", "higher", None),
    "fault_paranoid_overhead": ("fault_overhead", "lstm_paranoid_overhead", "ceiling", 0.03),
    "trace_armed_overhead": ("trace_overhead", "armed_overhead", "ceiling", 0.05),
    "trace_disarmed_bound": ("trace_overhead", "disarmed_bound", "ceiling", 0.01),
    # SIMD backend wins (bench_simd_backends): best vector backend vs
    # the bit-identical scalar fallback. Floor-gated: the vectorized
    # forward NTT must stay >= 2x scalar and the key-switch
    # inner-product row >= 1.5x, independent of any baseline drift.
    "ntt_simd_speedup": ("simd_backends", "ntt_simd_speedup", "floor", 2.0),
    "ks_inner_product_simd_speedup": ("simd_backends", "ks_inner_product_speedup", "floor", 1.5),
    # Global planner win (bench_plan): modeled cost of the planned
    # schedule vs the greedy bootstrap splice on the better of the
    # two reference workloads (deep CNN / LSTM gate tower). Model
    # evaluation, fully deterministic, so floor-gated absolutely: the
    # planner must keep a >= 10% win.
    "planned_vs_greedy_cost_ratio": ("plan", "planned_vs_greedy_cost_ratio", "floor", 1.10),
}


def read_dump(path):
    """Parse one JSON-lines bench dump -> {bench_name: metrics}."""
    benches = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: bad JSON line: {e}")
            name = obj.pop("bench", None)
            if name is None:
                sys.exit(f"{path}:{lineno}: object without 'bench' key")
            # Later lines for the same bench win (reruns append).
            benches[name] = obj
    return benches


def pr_label(path):
    m = re.search(r"(PR\d+)", path)
    return m.group(1) if m else path


def pr_order(label):
    """Sort key putting PR labels in numeric order (PR9 before PR10)."""
    m = re.fullmatch(r"PR(\d+)", label)
    return (0, int(m.group(1)), "") if m else (1, 0, label)


def derived(bench, metrics, key):
    if key == "@hoist_speedup":
        return metrics["naive_s_per_rot"] / metrics["hoisted_s_per_rot"]
    if key == "@moddown_reduction":
        return metrics["single_hoisted_mod_downs"] / metrics["mod_down_conversions"]
    return metrics[key]


def compute_headlines(all_benches):
    """Headline name -> value for every headline whose bench is present."""
    out = {}
    for name, (bench, key, _mode, _budget) in HEADLINES.items():
        metrics = all_benches.get(bench)
        if metrics is None:
            continue
        try:
            out[name] = derived(bench, metrics, key)
        except (KeyError, ZeroDivisionError) as e:
            sys.exit(f"headline {name}: cannot compute from bench "
                     f"'{bench}': {e}")
    return out


def fold(paths, history=None):
    """Fold dumps into `history` (PR label -> benches; a dump's benches
    replace same-named ones under its label). Returns the history and
    the latest value of every bench across it, in PR order."""
    history = {k: dict(v) for k, v in (history or {}).items()}
    for path in paths:
        history.setdefault(pr_label(path), {}).update(read_dump(path))
    merged = {}
    for label in sorted(history, key=pr_order):
        merged.update(history[label])
    return history, merged


def cmd_merge(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    history, merged = fold(args.dumps, baseline.get("history"))
    headlines = dict(baseline.get("headlines", {}))
    headlines.update(compute_headlines(merged))
    trajectory = {
        "comment": "Committed perf trajectory. Fold new dumps in with "
                   "scripts/roll_bench.py merge; CI gates releases "
                   "with scripts/roll_bench.py check.",
        "headlines": headlines,
        "history": history,
    }
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}: {len(history)} PR entries, "
          f"{len(trajectory['headlines'])} headline metric(s)")
    return 0


def cmd_check(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    base = baseline.get("headlines", {})
    _, merged = fold(args.dumps)
    fresh = compute_headlines(merged)

    failures = []
    print(f"{'headline':34} {'baseline':>12} {'current':>12}  verdict")
    for name, value in sorted(fresh.items()):
        bench, key, mode, budget = HEADLINES[name]
        old = base.get(name)
        if mode == "ceiling":
            ok = value <= budget
            verdict = f"<= budget {budget:g}" if ok else \
                f"OVER BUDGET {budget:g}"
        elif mode == "floor":
            ok = value >= budget
            verdict = f">= floor {budget:g}" if ok else \
                f"UNDER FLOOR {budget:g}"
        elif old is None:
            ok, verdict = True, "new metric (no baseline)"
        else:
            ok = value >= old * (1.0 - TOLERANCE)
            verdict = "ok" if ok else \
                f"REGRESSED >{TOLERANCE:.0%} vs baseline"
        shown_old = f"{old:.4f}" if old is not None else "-"
        print(f"{name:34} {shown_old:>12} {value:>12.4f}  {verdict}")
        if not ok:
            failures.append(name)

    missing = [n for n in base if n not in fresh]
    for name in sorted(missing):
        print(f"{name:34} {base[name]:>12.4f} {'-':>12}  "
              "NOT MEASURED (no fresh dump carries it)")
        failures.append(name)

    if failures:
        print(f"\nFAIL: {len(failures)} headline metric(s) regressed "
              "or unmeasured: " + ", ".join(failures))
        return 1
    print(f"\nOK: {len(fresh)} headline metric(s) within tolerance")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    mp = sub.add_parser("merge",
                        help="fold dumps into the trajectory file")
    mp.add_argument("--baseline", required=True)
    mp.add_argument("--out", required=True)
    mp.add_argument("dumps", nargs="+", metavar="BENCH_PR*.json")
    mp.set_defaults(fn=cmd_merge)

    cp = sub.add_parser("check", help="gate fresh dumps vs baseline")
    cp.add_argument("--baseline", required=True)
    cp.add_argument("dumps", nargs="+", metavar="BENCH_PR*.json")
    cp.set_defaults(fn=cmd_check)

    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
