"""repro.stream — resilient prequential (test-then-learn) streaming.

The pipeline consumes a list of raw ``(user, item, ts)`` events one at
a time, scoring each before training on it, inside a robustness envelope:
validation gate + dead-letter quarantine, offset-journaled exactly-once
commits, seeded retry-with-backoff on transient IO, and a graceful-
degradation state machine that demotes to score-only serving on
anomalies and recovers once a clean interval commits.  See
``docs/STREAMING.md``.
"""

from .events import (
    Quarantine,
    StreamEvent,
    events_from_split,
    read_quarantine,
    validate_event,
)
from .journal import STREAM_JOURNAL_NAME, IntervalRecord, chain_extend
from .pipeline import (
    MODE_DEGRADED,
    MODE_HEALTHY,
    QUARANTINE_NAME,
    StreamConfig,
    StreamResult,
    run_stream,
)

__all__ = [
    "StreamEvent",
    "validate_event",
    "events_from_split",
    "Quarantine",
    "read_quarantine",
    "IntervalRecord",
    "STREAM_JOURNAL_NAME",
    "chain_extend",
    "StreamConfig",
    "StreamResult",
    "run_stream",
    "MODE_HEALTHY",
    "MODE_DEGRADED",
    "QUARANTINE_NAME",
]
