"""Per-layer timing for the traced run, taken from outside the program.

:class:`Layers` replaces public functions and methods of the program with
wrappers that count calls and read the clock, and puts every original
attribute back on :meth:`Layers.uninstall`.  The wrappers never touch
arguments or results, so a traced run computes the same numbers as an
untraced one.

Top-level layers (pretrain, span training, evaluation, stream score,
learn and commit, bare fsyncs) are timed with a depth counter, so the
time they cover is counted once even when they nest; ``covered_s``
divided by the run's wall time is the share of the run the layers
explain.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

_perf = time.perf_counter


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Layers:
    """Wrappers around one strategy's run; install, run, uninstall."""

    def __init__(self, strategy, stream: bool) -> None:
        self.strategy = strategy
        self.stream = stream
        self.calls: Dict[str, int] = defaultdict(int)
        self.secs: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = {
            "score": [], "learn": [], "commit": []}
        self.covered_s = 0.0
        self.bytes_written = 0
        self.cases = 0
        self.loss_attempts = 0
        self._depth = 0
        self._armed = False          # stream: pretrain has returned
        self._learn_start: Optional[float] = None
        self._commit_start: Optional[float] = None
        #: (owner, name, had own attribute, original own attribute)
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #
    def _patch(self, owner, name: str, make: Callable) -> None:
        own = vars(owner)
        had = name in own
        self._saved.append((owner, name, had, own.get(name)))
        setattr(owner, name, make(getattr(owner, name)))

    def install(self) -> "Layers":
        from repro.autograd import Tensor, is_grad_enabled
        from repro.experiments import runner
        from repro.incremental import strategy as trainer
        from repro.models import batched_train
        from repro.nn import optim
        from repro.stream import pipeline
        from repro.stream.journal import StreamJournal

        self._grad_enabled = is_grad_enabled
        patch = self._patch

        def timed(key: str, top: bool = False) -> Callable:
            return functools.partial(self._timed, key, top=top)

        patch(runner, "evaluate_span", self._wrap_evaluate)
        patch(runner, "save_checkpoint",
              timed("persistence.save_checkpoint", top=True))
        patch(trainer, "clip_grad_norm", timed("optim.clip"))
        patch(pipeline, "clip_grad_norm", timed("optim.clip"))
        patch(pipeline, "save_checkpoint", self._wrap_stream_save)
        patch(StreamJournal, "write", self._wrap_journal_write)
        patch(os, "fsync", timed("persistence.fsync", top=True))
        patch(batched_train, "batched_compute_interests",
              timed("models.batched_compute_interests"))
        patch(batched_train, "batched_loss_targets", functools.partial(
            self._wrap_loss, "models.batched_loss_targets"))
        for cls in vars(optim).values():
            if isinstance(cls, type) and issubclass(cls, optim.Optimizer) \
                    and "step" in vars(cls):
                patch(cls, "step", self._wrap_step)
        patch(Tensor, "backward", timed("autograd.backward"))
        strategy, model = self.strategy, self.strategy.model
        patch(strategy, "pretrain", self._wrap_pretrain)
        patch(strategy, "train_span", timed("incremental.train_span", top=True))
        patch(strategy, "score_user", self._wrap_score_user)
        patch(strategy, "score_users", timed("eval.score_users", top=True))
        patch(model, "compute_interests", self._wrap_compute_interests)
        patch(model, "loss_targets", functools.partial(
            self._wrap_loss, "models.loss_targets"))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self._close_learn(record=False)
        while self._saved:
            owner, name, had, original = self._saved.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Layers":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # timing helpers
    # ------------------------------------------------------------------ #
    def _enter_top(self) -> None:
        self._depth += 1

    def _exit_top(self, dur: float) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.covered_s += dur

    def _timed(self, key: str, fn: Callable, top: bool = False,
               after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if top:
                self._enter_top()
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                self.calls[key] += 1
                self.secs[key] += dur
                if top:
                    self._exit_top(dur)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _close_learn(self, record: bool) -> None:
        """End the open stream learn interval (a skipped step closes it
        unrecorded when the next event or commit starts)."""
        if self._learn_start is None:
            return
        dur = _perf() - self._learn_start
        self._learn_start = None
        if record:
            self.samples["learn"].append(dur)
        self.secs["stream.learn"] += dur
        self._exit_top(dur)

    # ------------------------------------------------------------------ #
    # specific wrappers
    # ------------------------------------------------------------------ #
    def _wrap_pretrain(self, fn: Callable) -> Callable:
        def armed(result, args):
            self._armed = self.stream
        return self._timed("incremental.pretrain", fn, top=True, after=armed)

    def _wrap_score_user(self, fn: Callable) -> Callable:
        """One stream score per call once pretraining is done."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._armed:
                return fn(*args, **kwargs)
            self._close_learn(record=False)
            self._enter_top()
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                self.samples["score"].append(dur)
                self._exit_top(dur)
        return wrapper

    def _wrap_compute_interests(self, fn: Callable) -> Callable:
        timed = self._timed("models.compute_interests", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._armed and self._learn_start is None \
                    and self._grad_enabled():
                self._enter_top()
                self._learn_start = _perf()
            return timed(*args, **kwargs)
        return wrapper

    def _wrap_loss(self, key: str, fn: Callable) -> Callable:
        """A training loss under autograd is one attempted step; the
        optimizer steps that follow count the attempts that were taken."""
        def attempt(result, args):
            if self._grad_enabled():
                self.loss_attempts += 1
        return self._timed(key, fn, after=attempt)

    def _wrap_evaluate(self, fn: Callable) -> Callable:
        def cases(result, args):
            self.cases += result.num_cases
        return self._timed("eval.evaluate_span", fn, top=True, after=cases)

    def _wrap_step(self, fn: Callable) -> Callable:
        timed = self._timed("optim.step", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self._close_learn(record=True)
            return result
        return wrapper

    def _wrap_stream_save(self, fn: Callable) -> Callable:
        def written(path, args):
            self.bytes_written += Path(path).stat().st_size
        timed = self._timed("persistence.save_checkpoint", fn, after=written)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._close_learn(record=False)
            if self._commit_start is None:
                # the commit ends when the journal write after it returns
                self._enter_top()
                self._commit_start = _perf()
            return timed(*args, **kwargs)
        return wrapper

    def _wrap_journal_write(self, fn: Callable) -> Callable:
        def written(result, args):
            journal = args[0]
            self.bytes_written += journal.path.stat().st_size
            if self._commit_start is not None:
                dur = _perf() - self._commit_start
                self._commit_start = None
                self.samples["commit"].append(dur)
                self.secs["stream.commit"] += dur
                self._exit_top(dur)
        return self._timed("persistence.journal_write", fn, top=True,
                           after=written)

    # ------------------------------------------------------------------ #
    # report
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics these wrappers measure."""
        calls, secs, samples = self.calls, self.secs, self.samples
        steps = calls["optim.step"]
        attempts = max(self.loss_attempts, steps)
        out = {
            "incremental.pretrain_s": secs["incremental.pretrain"],
            "incremental.steps": steps,
            "incremental.nonfinite_skips": attempts - steps,
            "incremental.useful_step_share": steps / attempts if attempts else 1.0,
            "autograd.backward.calls": calls["autograd.backward"],
            "autograd.backward_s": secs["autograd.backward"],
            "optim.step.calls": steps,
            "optim.step_s": secs["optim.step"],
            "optim.clip_s": secs["optim.clip"],
            "eval.evaluate_span_s": secs["eval.evaluate_span"],
            "eval.cases": self.cases,
            "eval.score_users.calls": calls["eval.score_users"],
            "eval.score_users_s": secs["eval.score_users"],
            "persistence.save_checkpoint.calls": calls["persistence.save_checkpoint"],
            "persistence.save_checkpoint_s": secs["persistence.save_checkpoint"],
            "persistence.bytes_written_mb": self.bytes_written / 1e6,
            "persistence.fsync.calls": calls["persistence.fsync"],
            "persistence.fsync_s": secs["persistence.fsync"],
            "persistence.journal_write_s": secs["persistence.journal_write"],
            "stream.score_ms.p50": 1e3 * _percentile(samples["score"], 50),
            "stream.score_ms.p99": 1e3 * _percentile(samples["score"], 99),
            "stream.learn_ms.p50": 1e3 * _percentile(samples["learn"], 50),
            "stream.learn_ms.p99": 1e3 * _percentile(samples["learn"], 99),
            "stream.commit_ms.p50": 1e3 * _percentile(samples["commit"], 50),
            "stream.commit_ms.p80": 1e3 * _percentile(samples["commit"], 80),
            "stream.score_s": float(sum(samples["score"])),
            "stream.learn_s": secs["stream.learn"],
            "stream.commit_s": secs["stream.commit"],
            "stream.commits": len(samples["commit"]),
        }
        for name in ("compute_interests", "loss_targets",
                     "batched_compute_interests", "batched_loss_targets"):
            out[f"models.{name}.calls"] = calls[f"models.{name}"]
            out[f"models.{name}_s"] = secs[f"models.{name}"]
        return out


def profile_metrics(report: dict) -> Dict[str, float]:
    """Backend, kernel and memory metrics from a ``prof.profiling()``
    report (:meth:`repro.obs.prof.OpProfiler.report`)."""
    backend_s: Dict[str, float] = defaultdict(float)
    gemm_flops = 0.0
    for row in report["backend_ops"]:
        op = row["op"].split("[", 1)[0]   # "einsum[bnd,bkd->bnk]" -> "einsum"
        backend_s[op] += row["total_s"]
        if op == "gemm":
            gemm_flops += row["flops"]
    kernel_s: Dict[str, float] = defaultdict(float)
    for row in report["kernels"]:
        kernel_s[row["op"]] += row["total_s"]
    pool = report.get("pool") or {}
    pool_total = pool.get("hits", 0) + pool.get("misses", 0)
    overall = report["attribution"].get("overall", {})
    return {
        **{f"backend.{op}_s": backend_s[op]
           for op in ("gemm", "einsum", "gather", "scatter_add", "softmax")},
        "backend.gemm_gflops_per_s": (gemm_flops / backend_s["gemm"] / 1e9
                                      if backend_s["gemm"] else 0.0),
        "backend.pool_hit_share": (pool["hits"] / pool_total
                                   if pool_total else 0.0),
        "kernel.attributed_share": overall.get("frac", 0.0),
        "kernel.optim_step_s": kernel_s["optim.step"],
        "kernel.gather_rows_s": (kernel_s["fwd.gather_rows"]
                                 + kernel_s["bwd.gather_rows"]),
        "kernel.graph_overhead_s": kernel_s["bwd.graph_overhead"],
        "kernel.eval_score_s": kernel_s["eval.score"],
        "kernel.eval_rank_s": kernel_s["eval.rank"],
        "mem.peak_tensor_mb": report["memory"].get("peak_bytes", 0) / 1e6,
    }
