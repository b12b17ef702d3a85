"""Experiment runner: pretrain → spans → evaluation (paper protocol).

After training on span ``t`` the model is evaluated on span ``t+1``'s test
items; headline numbers average spans ``1..T-1`` (the pretrained model's
own test performance is excluded), exactly as Section V-A describes.

Crash safety
------------
Passing ``checkpoint_dir=`` makes the run journaled: after every span the
strategy state is checkpointed atomically and the span's metrics are
recorded in ``journal.json``.  ``resume=True`` restarts an interrupted
run from the last good span — completed spans are skipped and their
recorded metrics reused, and because checkpoints capture every RNG
stream, the resumed run is metric-identical to an uninterrupted one.  A
divergence guard detects non-finite parameters or metrics after a span,
rolls the strategy back to the last good checkpoint, and records a
structured incident instead of poisoning later spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Type, Union

import numpy as np

from .. import backend as _backend
from .. import faults
from ..data.schema import TemporalSplit
from ..eval import EvalResult, average_results, evaluate_span
from ..incremental import STRATEGY_REGISTRY, IncrementalStrategy, TrainConfig
from ..journal import Journal, JournalError
from ..models import make_model
from ..obs import prof as _prof
from ..obs import trace as obs
from ..obs.log import get_logger
from ..persistence import load_checkpoint, run_fingerprint, save_checkpoint
from .journal import JOURNAL_NAME, SpanRecord

logger = get_logger(__name__)


@dataclass
class RunResult:
    """Everything one (dataset, model, strategy) run produces."""

    dataset: str
    model: str
    strategy: str
    #: evaluation after each trained span t = 1..T-1 (tested on span t+1)
    per_span: List[EvalResult]
    #: spans-averaged headline metrics
    avg: EvalResult
    #: seconds per training call (0 = pretraining)
    train_times: Dict[int, float]
    #: mean per-user inference seconds
    inference_time: float
    #: mean interests per user after each trained span
    interest_counts: List[float]
    #: per-user (hit, ndcg) pairs per span, for significance testing
    per_user_metrics: List[Dict[int, tuple]] = field(default_factory=list)
    #: span -> per-user interest counts right after that span was trained
    counts_by_span: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: for seed-averaged runs (run_repeated): the individual seed results
    per_seed: List["RunResult"] = field(default_factory=list)
    #: spans whose metrics were reused from a resume journal
    resumed_spans: List[int] = field(default_factory=list)
    #: divergence-rollback incidents recorded during the run
    incidents: List[dict] = field(default_factory=list)
    #: per-span evaluation wall-clock (no key 0 — pretrain isn't evaluated)
    eval_times: Dict[int, float] = field(default_factory=dict)
    #: per-span snapshot-extraction wall-clock (0 = pretraining), the
    #: phase ``train_times`` never covered — together the three dicts
    #: give honest cumulative timings, resumed spans included
    extract_times: Dict[int, float] = field(default_factory=dict)
    #: op-level profiler report (``run_strategy(..., profile=True)``)
    profile: Optional[dict] = None

    @property
    def hr(self) -> float:
        return self.avg.hr

    @property
    def ndcg(self) -> float:
        return self.avg.ndcg


def default_config(**overrides) -> TrainConfig:
    """The reproduction's default training configuration."""
    return TrainConfig(**overrides)


def make_strategy(
    strategy_name: str,
    model_name: str,
    split: TemporalSplit,
    config: TrainConfig,
    model_kwargs: Optional[dict] = None,
    strategy_kwargs: Optional[dict] = None,
) -> IncrementalStrategy:
    """Instantiate a strategy with a fresh base model."""
    model_kwargs = dict(model_kwargs or {})
    strategy_kwargs = dict(strategy_kwargs or {})
    model_kwargs.setdefault("seed", config.seed)

    def factory():
        return make_model(model_name, num_items=split.num_items, **model_kwargs)

    cls: Type[IncrementalStrategy] = STRATEGY_REGISTRY[strategy_name]
    if strategy_name == "FR":
        strategy_kwargs.setdefault("model_factory", factory)
    return cls(factory(), split, config, **strategy_kwargs)


def _prepare_journal(strategy: IncrementalStrategy, checkpoint_dir,
                     resume: bool, dataset_name: str, model_name: str):
    """(journal, restored_span) for a checkpointed run; fresh runs get a
    new journal and ``restored_span=None``."""
    directory = Path(checkpoint_dir)
    fingerprint = run_fingerprint(strategy)
    if resume and (directory / JOURNAL_NAME).exists():
        journal = Journal.load(SpanRecord, directory, fingerprint)
        restored = journal.last_restorable_span()
        if restored is None:
            # nothing restorable: retrain everything, and drop the
            # aborted run's stale spans/incidents from memory *and* disk
            # so they cannot leak into the new run's journal or result
            journal.spans.clear()
            journal.incidents.clear()
            journal.write()
        return journal, restored
    journal = Journal(SpanRecord, directory, fingerprint=fingerprint,
                      dataset=dataset_name, model=model_name,
                      strategy=strategy.name)
    journal.write()
    return journal, None


def _commit_span(strategy: IncrementalStrategy, journal: Journal,
                 record: SpanRecord) -> None:
    """Checkpoint the span, then journal it: an entry always points at a
    complete checkpoint."""
    save_checkpoint(strategy, journal.checkpoint_path(record.span),
                    span=record.span)
    journal.append(record)
    obs.counter("journal.spans_committed")
    obs.event("journal.span_committed", span_id=record.span,
              rolled_back=record.rolled_back, checkpoint=record.checkpoint)
    obs.sync()
    faults.fire("span-boundary", span=record.span)


def _record_incident(journal: Journal, span: int, kind: str, detail: object,
                     action: str) -> None:
    journal.record_incident(span, kind, detail, action)
    obs.counter("journal.incidents")
    obs.event("journal.incident", span_id=span, incident=kind, action=action)


def _rollback(strategy: IncrementalStrategy, journal: Journal,
              span: int, kind: str, detail: object) -> None:
    """Restore the last good checkpoint and record the incident."""
    good = journal.last_restorable_span()
    if good is None:
        raise RuntimeError(
            f"divergence at span {span} with no restorable checkpoint "
            f"in {journal.directory}")
    load_checkpoint(strategy, journal.checkpoint_path(good))
    obs.counter("divergence.rollbacks")
    obs.event("divergence.rollback", span_id=span, kind=kind,
              restored_span=good)
    logger.warning("divergence at span %d (%s): rolled back to span %d",
                   span, kind, good)
    _record_incident(journal, span, kind, detail,
                     f"rolled-back-to-span-{good}")


def run_strategy(
    strategy: IncrementalStrategy,
    split: TemporalSplit,
    dataset_name: str = "",
    model_name: str = "",
    keep_per_user: bool = True,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    trace_dir: Optional[Union[str, Path]] = None,
    profile: bool = False,
) -> RunResult:
    """Execute the full incremental protocol for a prepared strategy.

    Evaluation scores every next-span item as a test case
    (``evaluate_span(targets="all")``), densifying the paper's
    one-item-per-user protocol to offset our smaller synthetic user
    counts; :func:`repro.eval.forgetting_analysis` keeps the strict one.

    ``checkpoint_dir`` enables journaled checkpoints (one per span plus
    ``journal.json``) and the divergence guard; ``resume=True``
    additionally restores the last good span from that directory, reusing
    the recorded metrics of already-completed spans.  ``strategy`` must
    be freshly constructed (pre-pretraining) in both cases.

    ``trace_dir`` activates :mod:`repro.obs` tracing for the run: spans,
    decision events, and metrics land in ``trace_dir/trace.jsonl`` (see
    ``docs/OBSERVABILITY.md``).  If a tracer is already active the run
    joins it instead of opening a second sink; with ``resume=True`` the
    trace file is appended to (after torn-tail recovery), so one trace
    covers the interrupted run and its resumption.

    ``profile=True`` activates the op-level profiler
    (:mod:`repro.obs.prof`) for the run: kernel/backend-op timing and
    memory accounting land in the trace (when one is active) and in
    ``RunResult.profile``.  Profiling only reads clocks — the run stays
    bit-identical to an unprofiled one.
    """
    owns_trace = trace_dir is not None and not obs.enabled()
    if owns_trace:
        run_id = "-".join(
            p for p in (dataset_name, model_name, strategy.name) if p
        ) or "run"
        obs.start_tracing(trace_dir, run_id=run_id, resume=resume)
    owns_prof = profile and not _prof.enabled()
    if owns_prof:
        _prof.start_profiling()
    try:
        obs.gauge("backend.active", 1.0,
                  backend=_backend.active_backend_name())
        with obs.span("run", dataset=dataset_name, model=model_name,
                      strategy=strategy.name,
                      backend=_backend.active_backend_name()):
            result = _run_protocol(
                strategy, split, dataset_name, model_name, keep_per_user,
                checkpoint_dir, resume)
    finally:
        profiler = _prof.stop_profiling() if owns_prof else None
        if owns_trace:
            obs.stop_tracing()
    if profiler is not None:
        result.profile = profiler.report()
    return result


def _run_protocol(
    strategy: IncrementalStrategy,
    split: TemporalSplit,
    dataset_name: str,
    model_name: str,
    keep_per_user: bool,
    checkpoint_dir: Optional[Union[str, Path]],
    resume: bool,
) -> RunResult:
    journal: Optional[Journal] = None
    restored_span: Optional[int] = None
    if checkpoint_dir is not None:
        journal, restored_span = _prepare_journal(
            strategy, checkpoint_dir, resume, dataset_name, model_name)

    per_span: List[EvalResult] = []
    per_user: List[Dict[int, tuple]] = []
    interest_counts: List[float] = []
    counts_by_span: Dict[int, Dict[int, int]] = {}
    resumed_spans: List[int] = []
    eval_times: Dict[int, float] = {}

    if restored_span is None:
        with obs.span("pretrain"), _prof.phase("pretrain"):
            strategy.pretrain()
        if journal is not None:
            _commit_span(strategy, journal, SpanRecord(
                span=0, train_time=strategy.train_times.get(0, 0.0),
                checkpoint=journal.checkpoint_path(0).name,
                extract_time=strategy.extract_times.get(0, 0.0)))
    else:
        logger.info("resuming from span %d in %s", restored_span,
                    journal.directory)
        load_checkpoint(strategy, journal.checkpoint_path(restored_span))
        for record in journal.spans.values():
            if record.span <= restored_span:
                strategy.train_times[record.span] = record.train_time
                strategy.extract_times[record.span] = record.extract_time
                if record.span > 0:
                    eval_times[record.span] = record.eval_time

    for t in range(1, split.T):
        if restored_span is not None and t <= restored_span:
            record = journal.spans.get(t)
            if record is None or record.hr is None:
                raise JournalError(
                    f"resume requested span {t} but the journal has no "
                    f"evaluated record for it")
            result = record.eval_result()
            per_span.append(result)
            per_user.append(result.per_user)
            counts_by_span[t] = dict(record.counts)
            interest_counts.append(float(record.interest_mean))
            resumed_spans.append(t)
            obs.event("span.resumed", span_id=t)
            continue

        faults.fire("span-start", span=t)
        strategy.set_current_span(t)
        with obs.span("train_span", span_id=t), _prof.phase("train"):
            strategy.train_span(t)
        faults.fire("span-trained", span=t, strategy=strategy)

        rolled_back = False
        if journal is not None:
            bad = faults.non_finite_sites(strategy, strategy.states)
            if bad:
                _rollback(strategy, journal, t, "non-finite-state", bad[:20])
                rolled_back = True

        eval_start = time.perf_counter()
        with obs.span("evaluate", span_id=t), _prof.phase("eval"):
            result = evaluate_span(strategy.score_users, split.spans[t],
                                   keep_per_user=keep_per_user, targets="all")
        if journal is not None and not (
                np.isfinite(result.hr) and np.isfinite(result.ndcg)):
            _rollback(strategy, journal, t, "non-finite-metrics",
                      {"hr": repr(result.hr), "ndcg": repr(result.ndcg)})
            rolled_back = True
            with obs.span("evaluate", span_id=t, after_rollback=True), \
                    _prof.phase("eval"):
                result = evaluate_span(
                    strategy.score_users, split.spans[t],
                    keep_per_user=keep_per_user, targets="all")
            if not (np.isfinite(result.hr) and np.isfinite(result.ndcg)):
                # the restored state scores non-finite too: nothing left
                # to roll back to — record a fatal incident rather than
                # journal the span as a restorable 'good' state
                _record_incident(
                    journal, t, "non-finite-metrics",
                    {"hr": repr(result.hr), "ndcg": repr(result.ndcg)},
                    "fatal")
                raise RuntimeError(
                    f"span {t} metrics are non-finite even after rolling "
                    f"back to the last good checkpoint; aborting the run "
                    f"(incident recorded in {journal.path})")

        eval_times[t] = time.perf_counter() - eval_start
        per_span.append(result)
        per_user.append(result.per_user)
        counts = strategy.interest_counts()
        counts_by_span[t] = dict(counts)
        interest_counts.append(float(np.mean(list(counts.values()))))

        if journal is not None:
            _commit_span(strategy, journal, SpanRecord(
                span=t, train_time=strategy.train_times.get(t, 0.0),
                checkpoint=journal.checkpoint_path(t).name,
                hr=result.hr, ndcg=result.ndcg, num_cases=result.num_cases,
                per_user=dict(result.per_user),
                interest_mean=interest_counts[-1], counts=dict(counts),
                rolled_back=rolled_back,
                extract_time=strategy.extract_times.get(t, 0.0),
                eval_time=eval_times[t]))

    # mean per-user inference time on the last evaluated span, through
    # the batched scoring path the evaluator uses
    eval_users = split.spans[split.T - 1].user_ids()[:50]
    start = time.perf_counter()
    strategy.score_users(eval_users)
    inference_time = (time.perf_counter() - start) / max(1, len(eval_users))

    return RunResult(
        dataset=dataset_name,
        model=model_name,
        strategy=strategy.name,
        per_span=per_span,
        avg=average_results(per_span),
        train_times=dict(strategy.train_times),
        inference_time=inference_time,
        interest_counts=interest_counts,
        per_user_metrics=per_user,
        counts_by_span=counts_by_span,
        resumed_spans=resumed_spans,
        incidents=list(journal.incidents) if journal is not None else [],
        eval_times=eval_times,
        extract_times=dict(strategy.extract_times),
    )


def run(
    dataset_name: str,
    model_name: str,
    strategy_name: str,
    split: TemporalSplit,
    config: Optional[TrainConfig] = None,
    model_kwargs: Optional[dict] = None,
    strategy_kwargs: Optional[dict] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    trace_dir: Optional[Union[str, Path]] = None,
) -> RunResult:
    """One-call convenience: build the strategy and run the protocol."""
    config = config or default_config()
    strategy = make_strategy(
        strategy_name, model_name, split, config,
        model_kwargs=model_kwargs, strategy_kwargs=strategy_kwargs,
    )
    return run_strategy(
        strategy, split, dataset_name=dataset_name, model_name=model_name,
        checkpoint_dir=checkpoint_dir, resume=resume, trace_dir=trace_dir,
    )


def run_repeated(
    dataset_name: str,
    model_name: str,
    strategy_name: str,
    split: TemporalSplit,
    config: Optional[TrainConfig] = None,
    repeats: int = 3,
    model_kwargs: Optional[dict] = None,
    strategy_kwargs: Optional[dict] = None,
) -> RunResult:
    """Average a run over ``repeats`` training seeds (same data split).

    The paper averages 10 repeated experiments per cell; this helper
    implements the same protocol (varying initialization / sampling
    randomness, not the data).  The returned result carries the
    seed-averaged metrics; per-seed results are in ``.per_seed``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base = config or default_config()
    runs: List[RunResult] = []
    for offset in range(repeats):
        cfg = TrainConfig(**{**base.__dict__, "seed": base.seed + offset})
        runs.append(run(dataset_name, model_name, strategy_name, split,
                        config=cfg, model_kwargs=model_kwargs,
                        strategy_kwargs=strategy_kwargs))

    n_spans = len(runs[0].per_span)
    per_span = [
        average_results([r.per_span[i] for r in runs]) for i in range(n_spans)
    ]
    aggregated = RunResult(
        dataset=dataset_name,
        model=model_name,
        strategy=strategy_name,
        per_span=per_span,
        avg=average_results(per_span),
        train_times={
            k: float(np.mean([r.train_times[k] for r in runs]))
            for k in runs[0].train_times
        },
        eval_times={
            k: float(np.mean([r.eval_times[k] for r in runs]))
            for k in runs[0].eval_times
        },
        extract_times={
            k: float(np.mean([r.extract_times[k] for r in runs]))
            for k in runs[0].extract_times
        },
        inference_time=float(np.mean([r.inference_time for r in runs])),
        interest_counts=[
            float(np.mean([r.interest_counts[i] for r in runs]))
            for i in range(n_spans)
        ],
        per_user_metrics=runs[0].per_user_metrics,
        counts_by_span=runs[0].counts_by_span,
    )
    aggregated.per_seed = runs
    return aggregated
