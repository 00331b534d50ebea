#!/usr/bin/env python3
"""Fold fhebench traces into per-layer self times, and compare two sets
of benchmark results.

    report.py fold TRACE.json
        Per-layer table of one traced run: the self time and the total
        time of every span kind inside the benchmark's request spans,
        per request.

    report.py compare A/ B/
        A and B each hold result files written by run.py (one per run;
        traced runs and trace files are skipped). Per workload and
        end-to-end metric: each side's median and quartiles, and a
        verdict against the bound in BENCHMARK.json.

Standard library only.
"""

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# The benchmark's own root span; everything else is the library's.
REQUEST = ("bench", "request")


def layer_key(cat, name):
    """Per-layer metric prefix of a span: nn layers are grouped by kind
    (PolyActivation(relu2) -> polyactivation)."""
    if cat == "nn":
        name = name.split("(")[0]
    slug = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    return f"trace.{cat}.{slug}"


def fold(trace_path):
    """Time per span kind inside request spans, in ms per request.

    For every span kind the result holds `<prefix>.self_ms`, its
    duration minus the part its child spans cover, and
    `<prefix>.total_ms`, its whole duration. Self times add up to the
    request time; totals suit the model layers (nn, graph, boot),
    whose work happens in their children. Nesting is read from time
    containment on each thread: a kernel span is recorded after the
    fact and carries the same depth as the spans it encloses. Returns
    (per-layer dict, number of request spans).
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_thread = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_thread[e["tid"]].append(e)

    self_us = defaultdict(float)
    total_us = defaultdict(float)
    request_us = 0.0
    requests = 0
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        # Open spans: [end, key, duration, child time, inside a request].
        stack = []

        def close():
            _, key, dur, child_us, inside = stack.pop()
            if inside:
                self_us[key] += dur - child_us
                total_us[key] += dur

        for e in spans:
            while stack and stack[-1][0] <= e["ts"]:
                close()
            key = (e["cat"], e["name"])
            inside = key == REQUEST or (bool(stack) and stack[-1][4])
            if key == REQUEST:
                requests += 1
                request_us += e["dur"]
            if stack:
                stack[-1][3] += e["dur"]
            stack.append([e["ts"] + e["dur"], key, e["dur"], 0.0, inside])
        while stack:
            close()

    if requests == 0:
        raise ValueError(f"{trace_path}: no request spans")
    layers = defaultdict(float)
    for key in self_us:
        prefix = layer_key(*key)
        layers[prefix + ".self_ms"] += self_us[key] / 1e3 / requests
        layers[prefix + ".total_ms"] += total_us[key] / 1e3 / requests
    unattributed = self_us.get(REQUEST, 0.0)
    layers["trace.attributed_frac"] = 1 - unattributed / request_us
    return dict(layers), requests


def print_fold(trace_path):
    layers, requests = fold(trace_path)
    total = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    print(f"{trace_path}: {requests} requests, "
          f"{total:.3f} ms self time per request")
    print(f"{'layer':40} {'self ms':>10} {'share':>7} {'total ms':>10}")
    rows = sorted((k[:-len(".self_ms")] for k in layers
                   if k.endswith(".self_ms")),
                  key=lambda k: -layers[k + ".self_ms"])
    for k in rows:
        own = layers[k + ".self_ms"]
        print(f"{k:40} {own:10.4f} {own / total:7.1%} "
              f"{layers[k + '.total_ms']:10.4f}")
    print(f"attributed to library spans: "
          f"{layers['trace.attributed_frac']:.1%}")


def load_results(directory):
    """Untraced result files of one side, grouped by workload."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        if not r["traced"]:
            runs[r["workload"]].append(r)
    return runs


def stamp_key(result):
    """The stamp without the seed, which differs between runs."""
    return json.dumps({k: v for k, v in result["stamp"].items()
                       if k != "seed"}, sort_keys=True)


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(a, b, better, bound):
    """better / worse / unresolved / within bound, for one metric.

    The change is the relative move of B's median from A's, counted
    positive when it is a regression. When either side's spread
    (quartile distance over median) is wider than the bound, the
    metric is unresolved unless every B run beats every A run.
    """
    sign = 1 if better == "lower" else -1
    (am, aq1, aq3), (bm, bq1, bq3) = summary(a), summary(b)
    change = sign * (bm - am) / am
    spread = max((aq3 - aq1) / am, (bq3 - bq1) / bm)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -spread and all_better:
        return "better", change
    return "within bound", change


def compare(dir_a, dir_b):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    side_a, side_b = load_results(dir_a), load_results(dir_b)
    status = 0
    for workload in sorted(set(side_a) | set(side_b)):
        a, b = side_a.get(workload, []), side_b.get(workload, [])
        print(f"== {workload}: {len(a)} runs in A, {len(b)} in B")
        if not a or not b:
            print("   missing on one side")
            status = 1
            continue
        stamps = {stamp_key(r) for r in a + b}
        if len(stamps) != 1:
            print("   refusing: environment stamps differ")
            for s in sorted(stamps):
                print(f"   {s}")
            status = 1
            continue
        print(f"   {'metric':16} {'A median [q1, q3]':>32} "
              f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            v, change = verdict(va, vb, m["better"], m["bound"])
            if v == "worse":
                status = 1
            cells = []
            for vals in (va, vb):
                med, q1, q3 = summary(vals)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"   {name:16} {cells[0]:>32} {cells[1]:>32} "
                  f"{change:+8.1%}  {v} (bound {m['bound']:.0%}) "
                  f"{m['unit']}")
    return status


def main(argv):
    if len(argv) == 3 and argv[1] == "fold":
        print_fold(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
