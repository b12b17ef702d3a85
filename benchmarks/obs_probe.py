#!/usr/bin/env python3
"""Measure the cost of the observability layer (repro.obs).

Usage:  PYTHONPATH=src python benchmarks/obs_probe.py
            [--repeats N] [--out BENCH_obs.json]

Four measurements:

* **disabled probe cost** — a microbenchmark of the module-level probe
  functions (``obs.span`` / ``obs.event`` / ``obs.counter`` /
  ``obs.observe``) with no active tracer, i.e. the price every
  instrumented call site pays in a normal, untraced run;
* **disabled profiler cost** — the same treatment for the op-level
  profiler's hook sites (``prof.op`` / ``prof.phase`` scopes and the
  ``_AUTOGRAD`` / ``_MEM`` ``None`` checks every ``Tensor`` op pays),
  scaled by the number of times those hooks actually fire in a
  profiled run of the same workload;
* **untraced run** — best-of wall time of a full incremental IMSR run
  with tracing off (the production configuration);
* **traced run** — the same run with ``--trace-dir`` live, plus the
  event/metric counts from its ``trace-meta.json``.

The headline numbers are ``disabled_overhead_pct`` and
``prof_disabled_overhead_pct``: the hook-fire count of an instrumented
run times the per-call disabled cost, as a percentage of the untraced
wall time.  That is the worst-case tax instrumentation adds to a run
that never turns tracing or profiling on.  The probe **asserts both
stay under 2%** — the budget docs/OBSERVABILITY.md promises — so CI
fails if an instrumentation site ever lands on a hot path.

Emits a JSON report (``BENCH_obs.json`` in CI) that
``benchmarks/summarize.py --obs`` folds into the markdown summary.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List

from repro.data import WorldConfig, generate_world, split_time_spans
from repro.experiments import make_strategy, run_strategy
from repro.incremental import TrainConfig
from repro.obs import META_NAME, enabled
from repro.obs import prof as _prof
from repro.obs import trace as obs

OVERHEAD_BUDGET_PCT = 2.0

WORLD = WorldConfig(
    num_users=32, num_items=200, num_topics=8,
    init_topics_per_user=(2, 3), new_topic_rate=0.6, num_spans=3,
    pretrain_events_per_user=(16, 24), span_events_per_user=(8, 12),
    initial_catalog_fraction=0.8, span_activity=0.9, seed=11,
)


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall time in seconds (robust to scheduler noise)."""
    times: List[float] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def measure_disabled_probe(loops: int = 50_000) -> float:
    """Per-call cost (seconds) of a disabled probe site.

    Times a representative mix — one span with a keyword field, one
    decision event, one counter bump, one histogram observation — and
    averages over the individual calls.  Must run with tracing off.
    """
    if enabled():
        raise AssertionError("disabled-probe benchmark needs tracing off")

    def mix() -> None:
        for i in range(loops):
            with obs.span("bench.span", idx=i):
                pass
            obs.event("bench.event", idx=i)
            obs.counter("bench.counter")
            obs.observe("bench.value", 0.5)

    return best_of(mix, 3) / (4 * loops)


def measure_disabled_prof(loops: int = 50_000) -> dict:
    """Per-call costs (seconds) of the profiler's two disabled hook shapes.

    ``scope_s`` is a disabled ``prof.op`` / ``prof.phase`` context (one
    function call returning the shared null context, plus the ``with``
    machinery); ``check_s`` is the bare module-attribute ``None`` check
    every ``Tensor._make`` / ``Tensor.__init__`` / ``backward`` pays.
    Must run with profiling off.
    """
    if _prof.enabled():
        raise AssertionError("disabled-prof benchmark needs profiling off")

    def scopes() -> None:
        for _ in range(loops):
            with _prof.op("bench.op"):
                pass
            with _prof.phase("bench.phase"):
                pass

    def checks() -> None:
        for _ in range(loops):
            if _prof._AUTOGRAD is not None:
                raise AssertionError("profiler hooks unexpectedly armed")
            if _prof._MEM is not None:
                raise AssertionError("profiler hooks unexpectedly armed")

    return {
        "scope_s": best_of(scopes, 3) / (2 * loops),
        "check_s": best_of(checks, 3) / (2 * loops),
    }


def build_strategy(split):
    config = TrainConfig(epochs_pretrain=2, epochs_incremental=2,
                         num_negatives=10, seed=0)
    return make_strategy("IMSR", "ComiRec-DR", split, config,
                         model_kwargs={"dim": 32, "num_interests": 4},
                         strategy_kwargs={"c1": 0.2})


def measure(repeats: int = 3) -> dict:
    world = generate_world(WORLD)
    split = split_time_spans(world.interactions, num_items=WORLD.num_items,
                             T=WORLD.num_spans, alpha=0.5)

    per_call_s = measure_disabled_probe()
    prof_costs = measure_disabled_prof()

    def run_untraced():
        return run_strategy(build_strategy(split), split, "bench", "bench")

    run_off_s = best_of(run_untraced, repeats)

    with tempfile.TemporaryDirectory() as tmp:
        def run_traced():
            return run_strategy(build_strategy(split), split, "bench",
                                "bench", trace_dir=tmp)

        run_traced_s = best_of(run_traced, repeats)
        meta = json.loads((Path(tmp) / META_NAME).read_text())

    # one profiled run of the same workload counts how often the
    # profiler's hook sites actually fire, split by what each site costs
    # while disabled: sandwich fwd/bwd samples, per-tensor memory
    # tracking, backend-op samples (the scatters check the profiler
    # themselves) and step samples (``prof.on_step``) are bare None
    # checks; explicit op scopes and phase markers are disabled-context
    # calls.
    profiled = run_strategy(build_strategy(split), split, "bench", "bench",
                            profile=True).profile
    scope_fires = check_fires = 0
    for row in profiled["kernels"]:
        if row["op"].startswith(("fwd.", "bwd.")):
            check_fires += row["count"]
        else:
            scope_fires += row["count"]
    check_fires += int(profiled["memory"].get("tensors_tracked", 0))
    check_fires += sum(row["count"] for row in profiled["backend_ops"])
    check_fires += int(profiled["steps"])
    prof_hook_fires = scope_fires + check_fires

    # every record in the trace came from one probe call (spans emit two
    # records per call, so events_written overcounts span sites — a
    # conservative bias), plus every metric update is one probe call
    probe_calls = int(meta["events"]) + int(meta["metric_updates"])
    disabled_overhead_pct = 100.0 * probe_calls * per_call_s / run_off_s
    prof_disabled_overhead_pct = 100.0 * (
        scope_fires * prof_costs["scope_s"]
        + check_fires * prof_costs["check_s"]) / run_off_s
    traced_overhead_pct = 100.0 * (run_traced_s - run_off_s) / run_off_s

    return {
        "version": 2,
        "tool": "repro.obs",
        "world": {"users": WORLD.num_users, "items": WORLD.num_items,
                  "spans": WORLD.num_spans},
        "disabled_probe_ns": round(per_call_s * 1e9, 1),
        "probe_calls": probe_calls,
        "events_written": int(meta["events"]),
        "metric_updates": int(meta["metric_updates"]),
        "run_off_s": round(run_off_s, 4),
        "run_traced_s": round(run_traced_s, 4),
        "disabled_overhead_pct": round(disabled_overhead_pct, 4),
        "traced_overhead_pct": round(traced_overhead_pct, 2),
        "prof_scope_ns": round(prof_costs["scope_s"] * 1e9, 1),
        "prof_check_ns": round(prof_costs["check_s"] * 1e9, 1),
        "prof_scope_fires": scope_fires,
        "prof_check_fires": check_fires,
        "prof_hook_fires": prof_hook_fires,
        "prof_disabled_overhead_pct": round(prof_disabled_overhead_pct, 4),
        "budget_pct": OVERHEAD_BUDGET_PCT,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timing (default 3)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here (default stdout)")
    args = parser.parse_args(argv)
    report = measure(repeats=args.repeats)
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"disabled probe: {report['disabled_probe_ns']} ns/call, "
              f"{report['probe_calls']} sites fired when traced -> "
              f"{report['disabled_overhead_pct']:.4f}% of the untraced run "
              f"(budget {report['budget_pct']}%)")
        print(f"traced run: {report['traced_overhead_pct']:+.1f}% wall "
              f"({report['events_written']} events, "
              f"{report['metric_updates']} metric updates)")
        print(f"disabled profiler: {report['prof_scope_ns']} ns/scope x "
              f"{report['prof_scope_fires']} + "
              f"{report['prof_check_ns']} ns/check x "
              f"{report['prof_check_fires']} -> "
              f"{report['prof_disabled_overhead_pct']:.4f}% of the "
              f"untraced run (budget {report['budget_pct']}%)")
    else:
        print(payload)
    if report["disabled_overhead_pct"] >= OVERHEAD_BUDGET_PCT:
        print(f"FAIL: disabled-probe overhead "
              f"{report['disabled_overhead_pct']:.4f}% exceeds the "
              f"{OVERHEAD_BUDGET_PCT}% budget", file=sys.stderr)
        return 1
    if report["prof_disabled_overhead_pct"] >= OVERHEAD_BUDGET_PCT:
        print(f"FAIL: disabled-profiler overhead "
              f"{report['prof_disabled_overhead_pct']:.4f}% exceeds the "
              f"{OVERHEAD_BUDGET_PCT}% budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
