#!/usr/bin/env python3
"""Derive the seed-0 HR/NDCG references that ``run.py`` checks against.

Usage::

    python3 benchmarks/e2e/calibrate.py [--workload a,b | all]

For each workload, runs one untraced repetition at workload seed 0 for
each training seed 0, 1 and 2, and writes ``reference.json``: the
reference is the training-seed-0 value (what the benchmark runs), and the
tolerance is ``max(0.005, (max - min) / 2)`` over the three training
seeds, so a change that moves HR or NDCG by more than training-seed
noise fails the check.  Run it again only when a workload's definition
changes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import CHILD, CHILD_TIMEOUT_S, WORKDIR, child_env  # noqa: E402

TRAIN_SEEDS = (0, 1, 2)
MIN_TOL = 0.005


def run_seed(name: str, train_seed: int, workdir: Path) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", name, "--seed", "0",
           "--trace", "0", "--workdir", str(workdir),
           "--train-seed", str(train_seed)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True,
                          cwd=str(workloads.ROOT))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {}
    workdir = WORKDIR / "calibrate"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            runs = [run_seed(name, s, workdir) for s in TRAIN_SEEDS]
            entry = {}
            for metric in ("hr20", "ndcg20"):
                values = [r["layers"][f"eval.{metric}"] for r in runs]
                entry[metric] = {
                    "value": values[0],
                    "tol": max(MIN_TOL, (max(values) - min(values)) / 2),
                    "train_seed_values": values,
                }
            reference[name] = entry
            print(name, json.dumps(entry))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
