#!/usr/bin/env python3
"""Measure the streaming pipeline's throughput and robustness costs.

Usage:  PYTHONPATH=src python benchmarks/stream_probe.py
            [--repeats N] [--out stream.json]

Times the prequential driver (:mod:`repro.stream`) on a small synthetic
world three ways:

* a clean offset-journaled run — **events/sec** (the headline number)
  and the journal's overhead vs an unjournaled run;
* a dirty run over the same events with redelivered and malformed ones
  mixed into the list — the **quarantine rate** and its throughput tax;
* a poisoned run (NaN injected into the parameters mid-stream) — the
  **recovery latency**: wall time of the commit boundary that detects
  the anomaly, rolls back, and the one that retrains the queued events,
  read from the run's own obs trace.

Emits a JSON report that ``benchmarks/summarize.py --stream`` folds
into the markdown summary, and exits 1 unless the dirty run quarantined
exactly the bad events mixed in, counted per reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.data import WorldConfig, generate_world, split_time_spans
from repro.experiments import make_strategy
from repro.faults import FaultPlan, active
from repro.incremental import TrainConfig
from repro.obs import read_trace
from repro.stream import (StreamConfig, StreamEvent, events_from_split,
                          run_stream)

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
        "FT", "ComiRec-DR", split, config,
        model_kwargs={"dim": 16, "num_interests": 2},
    )


def with_bad_events(events: List[StreamEvent]
                    ) -> Tuple[List[StreamEvent], Dict[str, int]]:
    """``events`` with a redelivered copy after every 20th event from the
    6th, and every 20th from the 16th with its item mangled to -1; also
    returns how many of each were mixed in, by quarantine reason."""
    dirty: List[StreamEvent] = []
    injected = {"duplicate": 0, "malformed-item": 0}
    for offset, event in enumerate(events):
        if offset % 20 == 15:
            dirty.append(replace(event, item=-1))
            injected["malformed-item"] += 1
            continue
        dirty.append(event)
        if offset % 20 == 5:
            # a redelivery carries a fresh seq and the same content
            dirty.append(replace(event, seq=len(events) + offset))
            injected["duplicate"] += 1
    return dirty, injected


def timed_run(split, events, config, checkpoint_dir=None, trace_dir=None,
              plan=None):
    """(wall seconds, StreamResult) for one fresh streaming run."""
    strategy = build_strategy(split)
    start = time.perf_counter()
    if plan is not None:
        with active(plan):
            result = run_stream(strategy, events=events, config=config,
                                checkpoint_dir=checkpoint_dir,
                                trace_dir=trace_dir)
    else:
        result = run_stream(strategy, events=events, config=config,
                            checkpoint_dir=checkpoint_dir,
                            trace_dir=trace_dir)
    return time.perf_counter() - start, result


def recovery_latency_s(trace_dir: Path) -> Optional[float]:
    """Wall time of the commit boundaries that degrade and recover.

    The ``stream.degraded`` / ``stream.recovered`` decision events
    attach to their enclosing ``stream.interval`` spans; the summed
    ``dur_s`` of those spans is the full detect → rollback → retrain →
    promote cycle.
    """
    events, _ = read_trace(trace_dir)
    marked_spans = {
        record.get("span")
        for record in events
        if record.get("kind") == "event"
        and record.get("name") in ("stream.degraded", "stream.recovered")
    }
    durations = [
        float(record.get("dur_s", 0.0))
        for record in events
        if record.get("kind") == "span_end" and record.get("id") in marked_spans
    ]
    return round(sum(durations), 6) if durations else None


def measure(repeats: int = 3, workdir: Optional[Path] = None) -> dict:
    split = build_split()
    events = events_from_split(split, seed=0)
    config = StreamConfig(checkpoint_every=64)

    with tempfile.TemporaryDirectory() as fallback:
        base = Path(workdir) if workdir is not None else Path(fallback)

        plain_s = min(timed_run(split, events, config)[0]
                      for _ in range(max(1, repeats)))
        journaled_times: List[float] = []
        for i in range(max(1, repeats)):
            wall, clean = timed_run(split, events, config,
                                    checkpoint_dir=base / f"clean-{i}")
            journaled_times.append(wall)
        journaled_s = min(journaled_times)
        events_per_sec = len(events) / journaled_s

        dirty_events, injected = with_bad_events(events)
        dirty_s, dirty = timed_run(split, dirty_events, config,
                                   checkpoint_dir=base / "dirty")

        poison_plan = FaultPlan().poison_params_after_event(
            events[len(events) // 2].seq)
        _, poisoned = timed_run(split, events, config,
                                checkpoint_dir=base / "poisoned",
                                trace_dir=base / "poisoned-trace",
                                plan=poison_plan)

        return {
            "version": 1,
            "tool": "repro.stream",
            "world": {"users": PROBE_WORLD.num_users,
                      "items": PROBE_WORLD.num_items,
                      "events": len(events)},
            "throughput": {
                "events_per_sec": round(events_per_sec, 1),
                "plain_s": round(plain_s, 4),
                "journaled_s": round(journaled_s, 4),
                "journal_overhead_pct": round(
                    100.0 * (journaled_s - plain_s) / plain_s, 1),
                "intervals_committed": len(clean.intervals),
            },
            "quarantine": {
                "injected": injected,
                "quarantined": dict(dirty.quarantined),
                "quarantine_rate": round(
                    dirty.quarantined_total / dirty.scored, 4)
                    if dirty.scored else None,
                "dirty_run_s": round(dirty_s, 4),
            },
            "recovery": {
                "degraded_spells": poisoned.degraded_spells,
                "recoveries": poisoned.recoveries,
                "recovery_latency_s": recovery_latency_s(
                    base / "poisoned-trace"),
                "final_mode": poisoned.mode,
            },
        }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timing (default 3)")
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
    quarantine = report["quarantine"]
    if quarantine["quarantined"] != quarantine["injected"]:
        print(f"error: the dirty run quarantined {quarantine['quarantined']}"
              f", but {quarantine['injected']} bad events were mixed in",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
