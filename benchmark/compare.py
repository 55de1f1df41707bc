#!/usr/bin/env python3
"""Compares two benchmark results files, a parent and a change.

    python3 benchmark/compare.py build-bench/results-PARENT.json \\
        build-bench/results-CHANGE.json

Both files come from `run.py --repeats N` with the same settings. Each
(workload, end-to-end metric) pair gets its own row and one verdict:

  improved    the change wins at least 9 of 10 pairs (runs paired in run
              order, ties count for neither) and the medians differ by more
              than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (error_rate: any rise);
  unresolved  neither, but the parent's own spread (IQR / median) is wider
              than the bound, so "unchanged" cannot be claimed;
  unchanged   otherwise.

Exits 1 when any row regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def samples(results):
    """{workload: {metric: [values in run order]}} plus error counts."""
    out = {}
    for r in results["runs"]:
        if r.get("trace"):
            continue
        w = out.setdefault(r["workload"], {"attempted": 0, "failed": 0})
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            w.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse = sign * (mc - mp) / mp if mp else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(mc - mp) > q3 - q1:
        v = "improved"
    elif worse > bound:
        v = "regressed"
    elif mp and (q3 - q1) / mp > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, wins, len(pairs), worse


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    parent = samples(json.loads(args.parent.read_text()))
    change = samples(json.loads(args.change.read_text()))

    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in parent or w not in change:
            rows.append((w, "-", "-", "-", "-", "-", "missing"))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            v, wins, n, worse = verdict(parent[w][name], change[w][name],
                                        m["better"], m["bound"])
            rows.append((w, name, fmt(parent[w][name]), fmt(change[w][name]),
                         f"{-100 * worse:+.1f}%", f"{wins}/{n}", v))
        pe = parent[w]["failed"] / parent[w]["attempted"]
        ce = change[w]["failed"] / change[w]["attempted"]
        v = "regressed" if ce > pe else "improved" if ce < pe else "unchanged"
        rows.append((w, "error_rate", f"{pe:.3g}", f"{ce:.3g}", "-", "-", v))

    head = ("workload", "metric", "parent median [q1, q3]",
            "change median [q1, q3]", "better by", "wins", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [head])
              for i in range(len(head))]
    for r in [head] + rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(r)))
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
