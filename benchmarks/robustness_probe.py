#!/usr/bin/env python3
"""Measure the robustness subsystem's cost on a small synthetic world.

Usage:  PYTHONPATH=src python benchmarks/robustness_probe.py
            [--repeats N] [--out robustness.json]

Times the checkpoint primitives (atomic save, full verification, load)
and the end-to-end overhead of running journaled vs plain, plus the
speedup a resume gets from reusing completed spans.  ``members`` counts
the zip members of a fresh checkpoint (format v3: the manifest and one
blob), next to the logical ``arrays`` its manifest maps into the blob.  Emits a JSON report
that ``benchmarks/summarize.py --robustness`` folds into the markdown
summary, so the crash-safety tax is tracked next to the reproduction
metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Callable, List, Optional

from repro.data import WorldConfig, generate_world, split_time_spans
from repro.experiments import make_strategy, run_strategy
from repro.incremental import TrainConfig
from repro.persistence import (
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)

PROBE_WORLD = WorldConfig(
    num_users=24,
    num_items=120,
    num_topics=8,
    init_topics_per_user=(2, 3),
    new_topic_rate=0.6,
    num_spans=4,
    pretrain_events_per_user=(16, 24),
    span_events_per_user=(6, 10),
    initial_catalog_fraction=0.8,
    span_activity=0.9,
    seed=11,
)


def build_split():
    world = generate_world(PROBE_WORLD)
    return split_time_spans(
        world.interactions, num_items=PROBE_WORLD.num_items,
        T=PROBE_WORLD.num_spans, alpha=0.5,
    )


def build_strategy(split):
    config = TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                         num_negatives=4, seed=0)
    return make_strategy(
        "IMSR", "ComiRec-DR", split, config,
        model_kwargs={"dim": 16, "num_interests": 2},
        strategy_kwargs={"c1": 0.2},
    )


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall time in milliseconds (robust to scheduler noise)."""
    times: List[float] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1000.0


def measure(repeats: int = 3, workdir: Optional[Path] = None) -> dict:
    """The full probe; returns the JSON-ready report dict."""
    split = build_split()
    with tempfile.TemporaryDirectory() as fallback:
        base = Path(workdir) if workdir is not None else Path(fallback)

        strategy = build_strategy(split)
        strategy.pretrain()
        ckpt = base / "probe.npz"
        save_ms = best_of(lambda: save_checkpoint(strategy, ckpt),
                          repeats)
        verify_ms = best_of(lambda: verify_checkpoint(ckpt), repeats)
        fresh = build_strategy(split)
        load_ms = best_of(lambda: load_checkpoint(fresh, ckpt), repeats)
        manifest = verify_checkpoint(ckpt)
        with zipfile.ZipFile(ckpt) as archive:
            members = len(archive.namelist())

        start = time.perf_counter()
        run_strategy(build_strategy(split), split, "probe", "ComiRec-DR",
                     keep_per_user=False)
        plain_s = time.perf_counter() - start

        ckdir = base / "journaled"
        start = time.perf_counter()
        run_strategy(build_strategy(split), split, "probe", "ComiRec-DR",
                     keep_per_user=False, checkpoint_dir=ckdir)
        journaled_s = time.perf_counter() - start

        start = time.perf_counter()
        resumed = run_strategy(build_strategy(split), split, "probe",
                               "ComiRec-DR", keep_per_user=False,
                               checkpoint_dir=ckdir, resume=True)
        resume_s = time.perf_counter() - start

        return {
            "version": 1,
            "tool": "repro.robustness",
            "world": {"users": PROBE_WORLD.num_users,
                      "items": PROBE_WORLD.num_items,
                      "spans": PROBE_WORLD.num_spans},
            "checkpoint": {
                "size_bytes": ckpt.stat().st_size,
                "arrays": len(manifest["arrays"]),
                "members": members,
                "save_ms": round(save_ms, 3),
                "verify_ms": round(verify_ms, 3),
                "load_ms": round(load_ms, 3),
            },
            "run": {
                "plain_s": round(plain_s, 4),
                "journaled_s": round(journaled_s, 4),
                "journal_overhead_pct": round(
                    100.0 * (journaled_s - plain_s) / plain_s, 1),
                "resume_s": round(resume_s, 4),
                "resume_speedup": round(plain_s / max(resume_s, 1e-9), 1),
                "resumed_spans": len(resumed.resumed_spans),
            },
        }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per primitive (default 3)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here (default stdout)")
    args = parser.parse_args(argv[1:])
    report = measure(repeats=args.repeats)
    blob = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(blob + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(blob)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
