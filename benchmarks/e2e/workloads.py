"""The benchmark's workloads and the spec it reads from ``BENCHMARK.json``.

Each workload is one fixed configuration of the real protocol
(``run_strategy``: pretrain, then T-1 incremental spans with evaluation
after each) or of the journaled stream (``run_stream``).  The workload
seed only shapes the generated data: it goes to
``load_dataset(..., seed_offset=seed)`` and ``events_from_split(...,
seed=seed)``; the training seed stays 0.

Sizes are chosen so that one repetition (set-up plus run) takes a few
seconds on a 2-core machine, which lets a 30 s measurement take several
repetitions and report medians.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration (``kind`` is ``span`` or ``stream``)."""

    kind: str
    dataset: str
    model: str
    strategy: str
    scale: float
    #: (pretrain, incremental) epochs
    epochs: Tuple[int, int]
    backend: str = "default"
    #: extra ``TrainConfig`` fields
    train: Dict[str, object] = field(default_factory=dict)
    #: stream only: how many leading events of ``events_from_split``
    events: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    # `repro run taobao ComiRec-DR IMSR --epochs 2`: the per-user float64
    # loop the CLI selects, on its default world; train dominates the wall
    "span-imsr-dr": Workload(
        kind="span", dataset="taobao", model="ComiRec-DR", strategy="IMSR",
        scale=1.0, epochs=(2, 2)),
    # the same train layer through the batched engine, the fused float32
    # kernels and the SA attention path, which every float64 change bypasses
    "span-imsr-sa-fast": Workload(
        kind="span", dataset="books", model="ComiRec-SA", strategy="IMSR",
        scale=2.0, epochs=(5, 2), backend="fast",
        train={"users_per_batch": 8, "batched_snapshots": True}),
    # a wide catalog and many users: evaluation does a large share of the
    # work and SparseAdam keeps training cheap
    "span-ft-eval-wide": Workload(
        kind="span", dataset="taobao", model="ComiRec-DR", strategy="FT",
        scale=2.0, epochs=(1, 1),
        train={"users_per_batch": 8, "sparse_adam": True,
               "batched_snapshots": True}),
    # `repro stream run taobao ComiRec-DR FT --scale 0.5 --epochs 2
    # --events 1600` with a checkpoint directory: the write side, with a
    # score, a learn step and every 32 events a journaled commit
    "stream-ft-journaled": Workload(
        kind="stream", dataset="taobao", model="ComiRec-DR", strategy="FT",
        scale=0.5, epochs=(2, 2), events=1600),
}


def get(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks it to a seconds-long check
    of the same code path."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; options: {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    if smoke:
        workload = replace(workload, scale=0.1, epochs=(1, 1),
                           events=None if workload.events is None else 96)
    return workload


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads(SPEC_PATH.read_text())


def load_reference() -> dict:
    """Seed-0 HR/NDCG references with their tolerances."""
    return json.loads(REFERENCE_PATH.read_text())
