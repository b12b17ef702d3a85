"""Deterministic fault injection for crash-safety testing.

An incremental recommender is a long-lived stateful service; proving it
crash-safe requires *reproducible* failures, not ad-hoc monkeypatching.
This module defines a seeded fault model: a :class:`FaultPlan` lists
faults bound to named probe points that the production code fires at its
critical transitions (span boundaries, checkpoint writes, training
steps).  When no plan is active every probe is a near-free no-op, so the
probes stay in the real code paths permanently — the exercised code is
the shipped code.

Probe points fired by the substrate
-----------------------------------
``span-start``          before ``train_span(t)`` (info: ``span``)
``span-trained``        after ``train_span(t)`` returns (info: ``span``,
                        ``strategy``) — where state-poisoning faults act
``span-boundary``       after span ``t``'s checkpoint + journal entry
                        are committed (info: ``span``)
``io-write``            before an atomic write starts (info: ``path``,
                        ``kind``: ``checkpoint`` | ``journal``)
``io-replace``          after the temp file is durable, before
                        ``os.replace`` commits it (same info)
``train-step``          once per optimizer step (info: ``step``,
                        ``user``)

Probe points fired by the streaming pipeline (:mod:`repro.stream`)
------------------------------------------------------------------
``stream-event-boundary`` after one event is fully processed (info:
                          ``seq``, ``offset``)
``stream-trained``        after training on one event (info: ``seq``,
                          ``strategy``) — where poisoning faults act
``stream-boundary``       after a commit interval's checkpoint + stream
                          journal landed (info: ``interval``,
                          ``offset``)

Bad input is not a fault here: a stream's duplicated, malformed, late
and never-seen events are part of the event list it is given.

Example
-------
>>> plan = FaultPlan(seed=0).crash_at_span_boundary(2)
>>> with active(plan):
...     run_strategy(strategy, split, checkpoint_dir=ckdir)   # raises
Traceback (most recent call last):
SimulatedCrash: injected crash at span-boundary (span=2)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Tuple, Union)

import numpy as np

from .obs import trace as obs

if TYPE_CHECKING:
    from .incremental.strategy import IncrementalStrategy

__all__ = [
    "FaultPlan",
    "Fault",
    "FaultInjected",
    "SimulatedCrash",
    "InjectedIOError",
    "active",
    "fire",
    "all_finite",
    "non_finite_sites",
    "flip_one_byte",
]


class FaultInjected(RuntimeError):
    """Base class for exceptions raised by an active fault plan."""


class SimulatedCrash(FaultInjected):
    """Stands in for a process kill: nothing after the raise executes."""


class InjectedIOError(OSError):
    """A planned IO failure (disk full, permission flap, torn device)."""


@dataclass
class Fault:
    """One planned failure, bound to a probe point.

    ``at`` selects the n-th firing of the point (0-based occurrence
    count); ``match`` filters on the probe's info dict (e.g.
    ``{"span": 2}``).  ``kind`` is one of ``crash``, ``io-error``,
    ``modifier`` (returns ``payload`` to the probe's caller), or
    ``call`` (invokes ``payload(**info)``).  Faults are one-shot unless
    ``once`` is False.
    """

    point: str
    kind: str
    at: Optional[int] = None
    match: Dict[str, Any] = field(default_factory=dict)
    payload: Union[None, Dict[str, Any], Callable[..., Any]] = None
    once: bool = True
    spent: bool = False

    def matches(self, occurrence: int, info: Dict[str, Any]) -> bool:
        if self.spent:
            return False
        if self.at is not None and occurrence != self.at:
            return False
        return all(info.get(k) == v for k, v in self.match.items())

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"point": self.point, "kind": self.kind}
        if self.at is not None:
            out["at"] = self.at
        if self.match:
            out["match"] = dict(self.match)
        if isinstance(self.payload, dict):
            out["payload"] = dict(self.payload)
        return out


class FaultPlan:
    """A seeded, deterministic list of faults plus its firing log.

    Builders return ``self`` so plans read as one expression::

        FaultPlan(seed=3).io_error_on_write(1).crash_at_span_boundary(2)
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.faults: List[Fault] = []
        #: occurrence counters per probe point
        self.counters: Dict[str, int] = {}
        #: every fault that actually fired: (point, info-without-objects)
        self.log: List[Tuple[str, Dict[str, Any]]] = []

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    def crash_at_span_boundary(self, span: int) -> "FaultPlan":
        """Die right after span ``span``'s checkpoint+journal committed."""
        self.faults.append(Fault("span-boundary", "crash", match={"span": span}))
        return self

    def crash_before_span(self, span: int) -> "FaultPlan":
        """Die at the boundary, before ``train_span(span)`` starts."""
        self.faults.append(Fault("span-start", "crash", match={"span": span}))
        return self

    def io_error_on_write(self, nth: int = 0) -> "FaultPlan":
        """Fail the ``nth`` atomic write before any bytes hit disk."""
        self.faults.append(Fault("io-write", "io-error", at=nth))
        return self

    def crash_during_write(self, nth: int = 0) -> "FaultPlan":
        """Die after the temp file is written but before the commit —
        the torn-write scenario atomic replacement must survive."""
        self.faults.append(Fault("io-replace", "crash", at=nth))
        return self

    def nan_loss_at_step(self, step: Optional[int] = None) -> "FaultPlan":
        """Poison the training loss at optimizer step ``step`` (every
        step when ``None``) — exercises the non-finite containment."""
        match = {} if step is None else {"step": step}
        self.faults.append(Fault("train-step", "modifier", match=match,
                                 payload={"poison_nan": True},
                                 once=step is not None))
        return self

    def poison_params_after_span(self, span: int) -> "FaultPlan":
        """Write a NaN into one (seeded) model parameter element right
        after ``train_span(span)`` — triggers the divergence guard."""
        self.faults.append(Fault("span-trained", "call", match={"span": span},
                                 payload=self._poison_one_param))
        return self

    def _poison_one_param(self, strategy=None, **info) -> None:
        if strategy is None:
            return
        params = [p for _, p in strategy.model.named_parameters()]
        param = params[int(self.rng.integers(len(params)))]
        flat = param.data.reshape(-1)
        # corrupting the live parameter is this fault's entire purpose
        flat[int(self.rng.integers(flat.size))] = np.nan

    # ------------------------------------------------------------------ #
    # streaming fault kinds (consumed by repro.stream)
    # ------------------------------------------------------------------ #
    def io_error_burst(self, first: int = 0, length: int = 3) -> "FaultPlan":
        """Fail ``length`` consecutive atomic writes starting at the
        ``first`` occurrence — exercises seeded retry-with-backoff."""
        for k in range(length):
            self.faults.append(Fault("io-write", "io-error", at=first + k))
        return self

    def crash_at_stream_boundary(self, interval: int) -> "FaultPlan":
        """Die right after stream commit interval ``interval`` lands."""
        self.faults.append(Fault("stream-boundary", "crash",
                                 match={"interval": interval}))
        return self

    def crash_after_event(self, seq: int) -> "FaultPlan":
        """Die at the event boundary right after event ``seq`` was
        processed (scored/trained) but before the next one starts."""
        self.faults.append(Fault("stream-event-boundary", "crash",
                                 match={"seq": seq}))
        return self

    def poison_params_after_event(self, seq: int) -> "FaultPlan":
        """Write a NaN into one (seeded) model parameter element right
        after training on event ``seq`` — trips the degradation guard at
        the next commit boundary."""
        self.faults.append(Fault("stream-trained", "call",
                                 match={"seq": seq},
                                 payload=self._poison_one_param))
        return self

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #
    def fire(self, point: str, info: Dict[str, Any]) -> Dict[str, Any]:
        """Advance the point's occurrence counter and trigger matches."""
        occurrence = self.counters.get(point, 0)
        self.counters[point] = occurrence + 1
        mods: Dict[str, Any] = {}
        for fault in self.faults:
            if fault.point != point or not fault.matches(occurrence, info):
                continue
            if fault.once:
                fault.spent = True
            self.log.append((point, {
                k: v for k, v in info.items()
                if isinstance(v, (int, float, str, bool, type(None)))
            }))
            # telemetry before any raise, so injected crashes leave a
            # fault.fired record explaining the torn trace behind them
            obs.counter("faults.probe_fired")
            obs.event("fault.fired", point=point, fault_kind=fault.kind,
                      occurrence=occurrence, **self.log[-1][1])
            if fault.kind == "crash":
                raise SimulatedCrash(
                    f"injected crash at {point} "
                    f"({', '.join(f'{k}={v}' for k, v in sorted(self.log[-1][1].items()))})"
                )
            if fault.kind == "io-error":
                raise InjectedIOError(
                    f"injected IO error at {point} occurrence {occurrence}")
            if fault.kind == "modifier" and isinstance(fault.payload, dict):
                mods.update(fault.payload)
            elif fault.kind == "call" and callable(fault.payload):
                extra = fault.payload(**info)
                if isinstance(extra, dict):
                    mods.update(extra)
        return mods

    def describe(self) -> List[Dict[str, Any]]:
        """The plan as data — for journals, incident reports, and docs."""
        return [f.describe() for f in self.faults]


# ---------------------------------------------------------------------- #
# module-level activation + probe API
# ---------------------------------------------------------------------- #
_ACTIVE: List[FaultPlan] = []


@contextlib.contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the block."""
    _ACTIVE.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE.remove(plan)


def fire(point: str, **info: Any) -> Dict[str, Any]:
    """Probe call placed in production code; no-op without active plans.

    Returns the merged modifier dict from every matching ``modifier`` /
    ``call`` fault; ``crash`` and ``io-error`` faults raise instead.
    """
    if not _ACTIVE:
        return {}
    mods: Dict[str, Any] = {}
    for plan in list(_ACTIVE):
        mods.update(plan.fire(point, info))
    return mods


# ---------------------------------------------------------------------- #
# array/file corruption helpers
# ---------------------------------------------------------------------- #
def all_finite(arr: np.ndarray) -> bool:
    """True when every element of a float array is finite."""
    return bool(np.isfinite(arr).all())


def non_finite_sites(strategy: "IncrementalStrategy",
                     users: Iterable[int]) -> List[str]:
    """Names of the model parameters and of ``users``' stored states that
    hold NaN or inf: ``param/<name>`` and ``user/<u>/<array>`` for the
    interests, the previous interests (the retention and distillation
    target of the next steps) and the SA weights.  The span runner scans
    every user after a span, the stream the interval's users at a commit.
    """
    sites = [f"param/{name}"
             for name, param in strategy.model.named_parameters()
             if not all_finite(param.data)]
    for user in sorted(set(users)):
        state = strategy.states.get(user)
        if state is None:
            continue
        sa = None if state.sa_weights is None else state.sa_weights.data
        for name, arr in (("interests", state.interests),
                          ("prev_interests", state.prev_interests),
                          ("sa_weights", sa)):
            if arr is not None and not all_finite(arr):
                sites.append(f"user/{user}/{name}")
    return sites


def flip_one_byte(path, offset: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None) -> int:
    """Flip one byte of the file at ``path`` in place; returns the offset.

    ``offset=None`` picks a seeded-random position via ``rng`` (a fresh
    ``default_rng(0)`` when omitted).  The byte is XORed with 0xFF, so a
    second flip at the same offset restores the original file.
    """
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    if offset is None:
        offset = int((rng or np.random.default_rng(0)).integers(len(data)))
    data[offset] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(data)
    return offset
