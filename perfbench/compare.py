"""Compare two sets of benchmark runs and give a verdict per metric and
workload: improved, worse, unchanged or unresolved.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --record FILE`` appends, one run
per line, typically ten or more runs per workload of one commit.  Runs of
the two sides are paired in file order, so alternate the sides while
measuring.  The rules:

* improved: the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the base's own
  quartile spread;
* worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (per-layer metrics have no bound: worse
  is the mirror image of improved);
* unresolved: the quartile spread of either side is wider than the bound
  and the change does not read better in every run, or the change failed
  more commands than the base;
* unchanged: everything else.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None, more_failures: bool) -> str:
    sign = 1 if better == "lower" else -1
    q1a, meda, q3a = quartiles(base)
    q1b, medb, q3b = quartiles(change)
    gain = (meda - medb) * sign          # > 0: the change reads better
    spread = q3a - q1a
    pairs = list(zip(base, change))
    wins = sum((a - b) * sign > 0 for a, b in pairs)
    losses = sum((a - b) * sign < 0 for a, b in pairs)
    all_better = all((a - b) * sign > 0 for a in base for b in change)
    if bound is not None:
        scale = abs(meda) or 1.0
        if -gain > bound * scale:
            return "worse"
        wide = max(q3a - q1a, q3b - q1b) > bound * scale
        if wide and not all_better:
            return "unresolved"
    elif losses >= 0.9 * len(pairs) and -gain > spread:
        return "worse"
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "unresolved" if more_failures else "improved"
    if bound is None and abs(gain) > spread:
        return "unresolved"
    return "unchanged"


def load(path: Path) -> dict[tuple, list[dict]]:
    groups: dict[tuple, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                key = (r["stamp"]["workload"], r["stamp"]["trace"])
                groups.setdefault(key, []).append(r)
    return groups


def compare(base: dict, change: dict, spec: dict) -> list[dict]:
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(base) & set(change)):
        a_runs, b_runs = base[key], change[key]
        more_failures = (sum(r["failed"] for r in b_runs)
                         > sum(r["failed"] for r in a_runs))
        for name in a_runs[0]["metrics"]:
            if name not in info or name not in b_runs[0]["metrics"]:
                continue
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            m = info[name]
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name,
                "unit": m["unit"], "base": quartiles(a),
                "change": quartiles(b),
                "n": (len(a), len(b)),
                "verdict": verdict(a, b, m["better"], m.get("bound"),
                                   more_failures)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows = compare(load(args.base), load(args.change), spec)
    fmt = "{:8} {:24} {:>30} {:>30} {:>7} {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]",
                     "change median [q1, q3]", "n", "verdict"))
    for r in rows:
        side = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
        print(fmt.format(r["workload"], r["metric"], side(r["base"]),
                         side(r["change"]), "{}/{}".format(*r["n"]),
                         r["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
