"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS

Each argument is a directory of run records (perfbench/out/runs/ of a
checkout). One row per workload and metric: each side's median and
quartiles, the share of pairs the change won, and a verdict.

Verdicts (the rule for claiming a gain on a small, noisy machine):

- improved: the change wins at least 9/10 of the pairs, ties counting for
  neither, and the medians differ by more than the parent's own spread
  (the distance between its quartiles);
- unresolved: the parent's spread, as a share of its median, is wider than
  the metric's bound, unless every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound (for a per-layer metric, which has none: it loses 9/10 of the pairs
  by more than the spread);
- unchanged: none of these.

Runs pair up by seed when both sides ran the same seeds, else by order.
A per-layer metric that neither the workload nor a probe reached counts
as missing on that side.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory: str):
    files = sorted(Path(directory).glob("*.json"))
    return [json.loads(f.read_text()) for f in files if not f.name.endswith(".spans.json")]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound):
    """Verdict for one metric from two lists of (seed, value)."""
    sign = 1.0 if better == "higher" else -1.0
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    p_seeds = {s: v for s, v in parent}
    c_seeds = {s: v for s, v in change}
    if set(p_seeds) == set(c_seeds) and len(p_seeds) == len(parent):
        pairs = [(p_seeds[s], c_seeds[s]) for s in sorted(p_seeds)]
    else:
        pairs = list(zip(p_vals, c_vals))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    won = wins / len(pairs) if pairs else 0.0
    gain = sign * (c_med - p_med)
    spread = p_q3 - p_q1
    if won >= 0.9 and gain > spread:
        return "improved", won
    all_better = all(sign * c > sign * p for c in c_vals for p in p_vals)
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > spread:
            return "worse", won
        return "unchanged", won
    if p_med and spread / abs(p_med) > bound and not all_better:
        return "unresolved", won
    if -gain > bound * abs(p_med):
        return "worse", won
    return "unchanged", won


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = []
    for directory in argv:
        table = defaultdict(list)
        for rec in load_records(directory):
            reached = {k for k, v in rec.get("metric_source", {}).items() if v != "not reached"}
            for name, entry in rec["metrics"].items():
                # a per-layer 0 that nothing measured is missing, not a saving
                if name in specs and (name in reached or "metric_source" not in rec):
                    table[(rec["workload"], name)].append((rec["meta"]["seed"], entry["value"]))
        sides.append(table)
    parent, change = sides
    header = f"{'workload':11s} {'metric':36s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} {'won':>5s}  verdict"
    print(header)
    worst = 0
    for key in sorted(set(parent) | set(change)):
        workload, name = key
        if key not in parent or key not in change:
            print(f"{workload:11s} {name:36s} {'missing on one side':>32s}")
            continue
        spec = specs[name]
        result, won = verdict(parent[key], change[key], spec["better"], spec.get("bound"))
        cells = []
        for side in (parent[key], change[key]):
            q1, med, q3 = quartiles([v for _, v in side])
            cells.append(f"{q1:.4g}/{med:.4g}/{q3:.4g}")
        print(f"{workload:11s} {name:36s} {cells[0]:>32s} {cells[1]:>32s} {won:5.2f}  {result}")
        if result == "worse" and "bound" in spec:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
