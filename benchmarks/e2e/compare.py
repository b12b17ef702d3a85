#!/usr/bin/env python3
"""Compare two result files of ``run.py --out`` metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

A is the parent (baseline), B the change.  For every workload in both
files and every end-to-end metric of ``BENCHMARK.json``, one row gives
each side's median, quartiles and sample count, the change of B against
A, and a verdict:

* ``unresolved`` -- either side's spread (interquartile range over
  median) is wider than the metric's bound, unless every run of B reads
  better than every run of A, which is ``better``;
* ``worse`` / ``better`` -- B's median is worse / better than A's by more
  than the bound;
* ``unchanged`` -- within the bound.

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) \
        if stats["median"] else float("inf")


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> tuple:
    """(verdict, relative change of B's median against A's)."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worsening = change if lower_is_better else -change
    if max(spread(a), spread(b)) > bound:
        if lower_is_better:
            every_run_better = max(b["values"]) < min(a["values"])
        else:
            every_run_better = min(b["values"]) > max(a["values"])
        return ("better" if every_run_better else "unresolved"), change
    if worsening > bound:
        return "worse", change
    if -worsening > bound:
        return "better", change
    return "unchanged", change


def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    rows = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        for metric in spec["end_to_end"]:
            sa = a["workloads"][name]["end_to_end"][metric["name"]]
            sb = b["workloads"][name]["end_to_end"][metric["name"]]
            result, change = verdict(sa, sb, metric["bound"],
                                     metric["better"] == "lower")
            rows.append({"workload": name, "metric": metric["name"],
                         "unit": metric["unit"], "bound": metric["bound"],
                         "a": sa, "b": sb, "change": change,
                         "verdict": result})
    return rows


def _side(stats: dict) -> str:
    return (f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] "
            f"n={stats['n']}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, workloads.load_spec())
    if not rows:
        print("error: the two files share no workload", file=sys.stderr)
        return 2
    print("workload metric unit | A median [q1, q3] n | B median [q1, q3] n "
          "| change | bound | verdict")
    for row in rows:
        print(f"{row['workload']} {row['metric']} {row['unit']} | "
              f"{_side(row['a'])} | {_side(row['b'])} | "
              f"{row['change']:+.1%} | {row['bound']:.0%} | {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
