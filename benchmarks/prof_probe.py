#!/usr/bin/env python3
"""Validate the op-level profiler on a batched large-scale training run.

Usage:  PYTHONPATH=src python benchmarks/prof_probe.py
            [--out BENCH_prof.json] [--users-per-batch B]

Two claims, both asserted (CI fails when either breaks):

* **attribution** — profiling a batched large-scale IMSR run must
  attribute at least :data:`ATTRIBUTION_FLOOR` (90%) of the training
  phase's wall time to named kernels (sandwich forward ops, backward
  fns, explicit ``optim.step`` / ``eval.*`` scopes).  Anything below
  means the profiler is losing time to unattributed glue and its op
  table cannot be trusted for optimization work;
* **bit identity** — the profiled run's final parameters and metrics
  must be byte-identical to an unprofiled run of the same seeded
  strategy.  Profiler hooks read clocks and counters only; if this
  breaks, a hook touched the numbers.

Emits a JSON report (``BENCH_prof.json`` in CI) with the attribution
fractions, the top kernels/backend ops, memory peaks, and the measured
profiling overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import List

import numpy as np

from repro.data import WorldConfig, generate_world, split_time_spans
from repro.experiments import make_strategy, run_strategy
from repro.incremental import TrainConfig

#: minimum fraction of train-phase wall time attributed to named kernels
ATTRIBUTION_FLOOR = 0.90

#: a 96-user, 800-item world — big enough that per-op recording
#: overhead amortizes into realistic kernel durations
WORLD = WorldConfig(
    num_users=96, num_items=800, num_topics=12,
    init_topics_per_user=(2, 4), new_topic_rate=0.6, num_spans=3,
    pretrain_events_per_user=(24, 40), span_events_per_user=(10, 16),
    initial_catalog_fraction=0.8, span_activity=0.95, seed=13,
)


def build_strategy(split, users_per_batch: int):
    config = TrainConfig(epochs_pretrain=2, epochs_incremental=2,
                         num_negatives=10, seed=0,
                         users_per_batch=users_per_batch,
                         batched_snapshots=users_per_batch > 1)
    return make_strategy("IMSR", "ComiRec-DR", split, config,
                         model_kwargs={"dim": 32, "num_interests": 4},
                         strategy_kwargs={"c1": 0.2})


def param_digest(strategy) -> str:
    """SHA-256 over every named parameter's bytes, in name order."""
    hasher = hashlib.sha256()
    for name, param in sorted(strategy.model.named_parameters()):
        hasher.update(name.encode("utf-8"))
        hasher.update(np.ascontiguousarray(param.data).tobytes())
    return hasher.hexdigest()


def measure(users_per_batch: int = 8) -> dict:
    world = generate_world(WORLD)
    split = split_time_spans(world.interactions, num_items=WORLD.num_items,
                             T=WORLD.num_spans, alpha=0.5)

    base = build_strategy(split, users_per_batch)
    start = time.perf_counter()
    base_result = run_strategy(base, split, "bench", "bench")
    base_s = time.perf_counter() - start
    base_digest = param_digest(base)

    profiled = build_strategy(split, users_per_batch)
    start = time.perf_counter()
    prof_result = run_strategy(profiled, split, "bench", "bench",
                               profile=True)
    prof_s = time.perf_counter() - start
    prof_digest = param_digest(profiled)
    profile = prof_result.profile

    attribution = profile["attribution"]
    train_frac = attribution.get("train", {}).get("frac", 0.0)
    bit_identical = (
        base_digest == prof_digest
        and base_result.hr == prof_result.hr
        and base_result.ndcg == prof_result.ndcg)

    return {
        "version": 1,
        "tool": "repro.prof",
        "world": {"users": WORLD.num_users, "items": WORLD.num_items,
                  "spans": WORLD.num_spans},
        "users_per_batch": users_per_batch,
        "attribution": {
            phase: {"wall_s": round(entry["wall_s"], 4),
                    "kernel_s": round(entry["kernel_s"], 4),
                    "frac": round(entry["frac"], 4)}
            for phase, entry in attribution.items()
        },
        "attribution_floor": ATTRIBUTION_FLOOR,
        "train_attributed_frac": round(train_frac, 4),
        "top_kernels": profile["kernels"][:8],
        "top_backend_ops": profile["backend_ops"][:8],
        "memory": profile["memory"],
        "steps": profile["steps"],
        "bit_identical": bit_identical,
        "param_digest": prof_digest[:16],
        "run_unprofiled_s": round(base_s, 4),
        "run_profiled_s": round(prof_s, 4),
        "profiled_overhead_pct": round(
            100.0 * (prof_s - base_s) / base_s, 2) if base_s > 0 else None,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users-per-batch", type=int, default=8,
                        help="micro-batch group size (default 8)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here (default stdout)")
    args = parser.parse_args(argv)
    report = measure(users_per_batch=args.users_per_batch)
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        for phase, entry in report["attribution"].items():
            print(f"attribution[{phase}]: {100.0 * entry['frac']:.1f}% of "
                  f"{entry['wall_s']:.3f}s wall")
        print(f"bit identity: {report['bit_identical']}  "
              f"profiling overhead: {report['profiled_overhead_pct']:+.1f}%")
    else:
        print(payload)
    failed = False
    if report["train_attributed_frac"] < ATTRIBUTION_FLOOR:
        print(f"FAIL: train-phase attribution "
              f"{report['train_attributed_frac']:.3f} is below the "
              f"{ATTRIBUTION_FLOOR} floor", file=sys.stderr)
        failed = True
    if not report["bit_identical"]:
        print("FAIL: profiled run diverged from the unprofiled run "
              "(parameters or metrics differ)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
