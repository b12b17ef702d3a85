"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Layers  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    return proc, time.perf_counter() - start, out


def test_smoke_pass_of_every_workload(smoke):
    proc, took, out = smoke
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert took < 60.0
    result = json.loads(out.read_text())
    assert sorted(result["workloads"]) == sorted(workloads.WORKLOADS)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 2 * len(workloads.WORKLOADS)


def test_printed_names_match_the_spec(smoke):
    proc, _, _ = smoke
    spec = workloads.load_spec()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed = {}
    for line in proc.stdout.strip().splitlines()[:-1]:
        if line.startswith("#"):
            continue
        workload, metric = line.split()[:2]
        assert NAME.match(workload) and NAME.match(metric), line
        printed.setdefault(workload, set()).add(metric)
    assert set(printed) == set(workloads.WORKLOADS)
    for names in printed.values():
        assert names == declared


def test_wrappers_are_restored_to_the_identical_objects():
    import os

    from repro.autograd import Tensor
    from repro.data import load_dataset
    from repro.experiments import default_config, make_strategy, runner
    from repro.incremental import strategy as strategy_module
    from repro.models import batched_train
    from repro.nn import optim
    from repro.stream import pipeline
    from repro.stream.journal import StreamJournal

    _, split = load_dataset("books", scale=0.1)
    strategy = make_strategy("IMSR", "ComiRec-DR", split,
                             default_config(epochs_pretrain=1,
                                            epochs_incremental=1))
    targets = [
        (runner, "evaluate_span"), (runner, "save_checkpoint"),
        (pipeline, "save_checkpoint"), (pipeline, "clip_grad_norm"),
        (StreamJournal, "write"), (strategy_module, "clip_grad_norm"),
        (Tensor, "backward"), (batched_train, "batched_compute_interests"),
        (batched_train, "batched_loss_targets"), (os, "fsync"),
        (optim.SGD, "step"), (optim.Adam, "step"), (optim.SparseAdam, "step"),
    ]
    before = [vars(owner)[name] for owner, name in targets]
    instance_attrs = [(strategy, "pretrain"), (strategy, "score_user"),
                      (strategy, "score_users"), (strategy, "train_span"),
                      (strategy.model, "compute_interests"),
                      (strategy.model, "loss_targets")]
    with Layers(strategy, stream=False):
        for (owner, name), original in zip(targets, before):
            assert vars(owner)[name] is not original, name
        for owner, name in instance_attrs:
            assert name in vars(owner), name
    for (owner, name), original in zip(targets, before):
        assert vars(owner)[name] is original, name
    for owner, name in instance_attrs:
        assert name not in vars(owner), name


def _result(wall_scale: float = 1.0) -> dict:
    base = {"setup_s": 1.2, "wall_s": 3.0, "events_per_s": 3500.0,
            "peak_rss_mb": 130.0}
    jitter = (0.995, 0.998, 1.0, 1.002, 1.005)
    end_to_end = {}
    for name, value in base.items():
        scale = wall_scale if name == "wall_s" else 1.0
        end_to_end[name] = run.summarize([value * scale * j for j in jitter])
    return {"workloads": {"span-imsr-dr": {"end_to_end": end_to_end}}}


def test_compare_passes_a_self_compare_and_flags_a_slowdown(tmp_path, capsys):
    bound = {m["name"]: m["bound"]
             for m in workloads.load_spec()["end_to_end"]}["wall_s"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(_result(wall_scale=1.0 + 1.25 * bound)))
    assert compare.main([str(a), str(a)]) == 0
    assert "worse" not in capsys.readouterr().out
    assert compare.main([str(a), str(b)]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.endswith("worse")]
    assert len(rows) == 1 and rows[0].startswith("span-imsr-dr wall_s")
