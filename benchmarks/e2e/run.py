#!/usr/bin/env python3
"""End-to-end benchmark: the real protocol and the journaled stream.

Usage::

    python3 benchmarks/e2e/run.py [--workload a,b | all] [--seed N]
        [--seconds S | --reps R] [--trace 0|1] [--out FILE] [--smoke]

Each repetition of a workload runs in a fresh child process
(``child.py``), one at a time, round-robin across the selected
workloads, with BLAS pinned to one thread.  ``--seconds`` is the time
budget per workload (default 30): repetitions start while the next one
is expected to end inside it, with at least three untraced repetitions
when ``--trace 0``.  ``--reps`` runs exactly that many instead.

``--trace 1`` (the default) adds one traced repetition per workload,
right after its first untraced one: the layer wrappers of ``layers.py``
plus the op-level profiler.  Its outputs must equal the untraced ones
bit for bit, and it gives the per-layer metrics.  ``--trace 0`` runs
untraced repetitions only.

Every metric is printed as ``workload metric value unit``; end-to-end
metrics are medians over the untraced repetitions, followed by their
quartiles and sample count.  The output checks (see ``README.md``) are
printed as ``# check`` lines.  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(names prefixed by the workload when several run).  The exit code is 0
only when every check passes; a repetition that crashes ends the run
without a result line.  ``--out`` writes every value, quartile and check
as JSON for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

CHILD = workloads.HERE / "child.py"
WORKDIR = workloads.ROOT / ".e2e_work"
#: untraced repetitions a time-budgeted run takes at least, so set-up
#: time and every end-to-end metric are medians
MIN_REPS = 3
#: a repetition that runs longer than this is killed and fails the run
CHILD_TIMEOUT_S = 120.0
#: shares of wall time the output checks allow
MAX_OUTSIDE_SHARE = 0.05
MIN_COVERAGE_SHARE = 0.90
MIN_ATTRIBUTED_SHARE = 0.90


class ChildFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(workloads.ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, trace: int, smoke: bool,
              workdir: Path) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=str(workloads.ROOT))
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"{workload}: repetition timed out after "
                          f"{err.timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: repetition exited {proc.returncode}\n"
                          + proc.stderr[-3000:])
    return json.loads(lines[-1])


def summarize(values: List[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def check_workload(name: str, seed: int, smoke: bool, untraced: List[dict],
                   traced: Optional[dict]) -> List[dict]:
    checks: List[dict] = []

    def check(label: str, ok: bool, detail: str) -> None:
        checks.append({"name": label, "ok": bool(ok), "detail": detail})

    wl = workloads.get(name)
    runs = untraced + ([traced] if traced is not None else [])
    for metric in ("hr20", "ndcg20"):
        values = [r["layers"][f"eval.{metric}"] for r in runs]
        check(f"{metric}_range",
              all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values),
              f"{metric} in [0, 1]: {min(values):.6g}..{max(values):.6g}")
    first = untraced[0]["outputs"]
    check("deterministic", all(r["outputs"] == first for r in untraced),
          f"{len(untraced)} untraced repetitions give identical outputs")
    if traced is not None:
        check("trace_identical", traced["outputs"] == first,
              "traced outputs equal the untraced outputs exactly")
    if seed == 0 and not smoke:
        reference = workloads.load_reference()[name]
        for metric in ("hr20", "ndcg20"):
            ref, tol = reference[metric]["value"], reference[metric]["tol"]
            got = untraced[0]["layers"][f"eval.{metric}"]
            check(f"{metric}_reference", abs(got - ref) <= tol,
                  f"|{got:.6f} - {ref:.6f}| <= {tol:.6f}")
    if wl.kind == "stream":
        check("stream_accounting",
              all(r["scored"] + r["quarantined_total"] == r["events"]
                  for r in runs),
              "scored + quarantined == events in every repetition")
    if smoke:
        # tiny worlds are all fixed overhead: the time-share checks below
        # only hold at the workloads' real sizes
        return checks
    if wl.kind == "span":
        worst = max(r["layers"]["incremental.outside_s"] / r["wall_s"]
                    for r in untraced)
        check("outside_share", worst <= MAX_OUTSIDE_SHARE,
              f"time outside train/extract/eval <= {MAX_OUTSIDE_SHARE:.0%} "
              f"of wall: worst {worst:.2%}")
    if traced is not None:
        layers = traced["layers"]
        coverage = layers["obs.layer_coverage_share"]
        check("layer_coverage", coverage >= MIN_COVERAGE_SHARE,
              f"layers cover {coverage:.1%} of traced wall "
              f"(>= {MIN_COVERAGE_SHARE:.0%})")
        # the stream's learn phase holds per-event glue the profiler does
        # not attribute (about 78%); the layer wrappers cover it instead
        if wl.kind == "span":
            attributed = layers["kernel.attributed_share"]
            check("kernel_attribution", attributed >= MIN_ATTRIBUTED_SHARE,
                  f"profiler attributes {attributed:.1%} of phase wall "
                  f"(>= {MIN_ATTRIBUTED_SHARE:.0%})")
    return checks


# ---------------------------------------------------------------------- #
# scheduling
# ---------------------------------------------------------------------- #
def measure(names: List[str], seed: int, seconds: float, reps: Optional[int],
            trace: int, smoke: bool, workdir: Path) -> Dict[str, dict]:
    """Run the repetitions round-robin; returns per-workload raw results."""
    state = {name: {"untraced": [], "traced": None, "spent": 0.0,
                    "longest": 0.0, "done": False} for name in names}

    def timed_child(name: str, traced: int) -> dict:
        start = time.perf_counter()
        result = run_child(name, seed, traced, smoke, workdir)
        took = time.perf_counter() - start
        entry = state[name]
        entry["spent"] += took
        if not traced:
            entry["longest"] = max(entry["longest"], took)
        return result

    min_reps = 1 if trace else MIN_REPS
    while not all(entry["done"] for entry in state.values()):
        for name in names:
            entry = state[name]
            if entry["done"]:
                continue
            count = len(entry["untraced"])
            if reps is not None:
                wanted = count < reps
            else:
                wanted = count < min_reps or (
                    entry["spent"] + entry["longest"] <= seconds)
            if wanted:
                entry["untraced"].append(timed_child(name, 0))
                if trace and entry["traced"] is None:
                    # next to an untraced repetition, so that the trace
                    # overhead compares runs made under similar load
                    entry["traced"] = timed_child(name, 1)
            else:
                entry["done"] = True
    return state


def report(names: List[str], seed: int, smoke: bool, trace: int,
           state: Dict[str, dict], spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out = {"version": 1, "seed": seed, "smoke": smoke, "trace": trace,
           "workloads": {}}
    for name in names:
        untraced, traced = state[name]["untraced"], state[name]["traced"]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            stats = summarize([r[metric["name"]] for r in untraced])
            end_to_end[metric["name"]] = {"unit": metric["unit"], **stats}
        per_layer = {}
        if traced is not None:
            layers = dict(traced["layers"])
            layers["obs.trace_overhead_share"] = (
                traced["wall_s"] / end_to_end["wall_s"]["median"] - 1.0)
            per_layer = {m["name"]: {"unit": m["unit"],
                                     "value": layers[m["name"]]}
                         for m in spec["per_layer"]}
            extra = set(layers) - set(units)
            if extra:
                raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
        out["workloads"][name] = {
            "reps": len(untraced),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "checks": check_workload(name, seed, smoke, untraced, traced),
        }
    return out


def print_report(result: dict, trace: int) -> int:
    """Print metric and check lines plus the final JSON; returns failures."""
    several = len(result["workloads"]) > 1
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    print("# end-to-end values are medians of the untraced repetitions; "
          "fewer than 10 samples support no high percentile")
    for name, entry in result["workloads"].items():
        for metric, stats in entry["end_to_end"].items():
            print(f"{name} {metric} {stats['median']!r} {stats['unit']} "
                  f"q1={stats['q1']!r} q3={stats['q3']!r} n={stats['n']}")
            if not trace:
                key = f"{name}.{metric}" if several else metric
                metrics[key] = {"value": stats["median"], "unit": stats["unit"]}
        for metric, item in entry["per_layer"].items():
            print(f"{name} {metric} {item['value']!r} {item['unit']}")
            key = f"{name}.{metric}" if several else metric
            metrics[key] = {"value": item["value"], "unit": item["unit"]}
        failing = [c for c in entry["checks"] if not c["ok"]]
        for c in entry["checks"]:
            print(f"# check {name} {c['name']} "
                  f"{'ok' if c['ok'] else 'FAILED'}: {c['detail']}")
        # a failed check fails every repetition of its workload
        runs = entry["reps"] + (1 if entry["per_layer"] else 0)
        attempted += runs
        failed += runs if failing else 0
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return failed


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", "--workloads", dest="workload",
                        default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget per workload (default 30)")
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced repetitions per workload; "
                             "overrides --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds: a seconds-long check of every path")
    args = parser.parse_args(argv)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"options: {sorted(workloads.WORKLOADS)}")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    spec = workloads.load_spec()

    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = measure(names, args.seed, args.seconds, args.reps,
                        args.trace, args.smoke, workdir)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    result = report(names, args.seed, args.smoke, args.trace, state, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                                  + "\n")
    return 1 if print_report(result, args.trace) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
