"""Dataset statistics — regenerates the analog of the paper's Table II."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .schema import TemporalSplit


@dataclass
class DatasetStats:
    """Counts matching the columns of Table II."""

    name: str
    num_users: int
    num_items: int
    pretrain_interactions: int
    span_interactions: List[int]

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "dataset": self.name,
            "#users": self.num_users,
            "#items": self.num_items,
            "pre-training": self.pretrain_interactions,
        }
        for idx, count in enumerate(self.span_interactions, start=1):
            row[str(idx)] = count
        return row


def compute_stats(name: str, split: TemporalSplit) -> DatasetStats:
    """Compute Table-II-style statistics for a temporal split."""
    return DatasetStats(
        name=name,
        num_users=split.num_users,
        num_items=split.num_items,
        pretrain_interactions=split.pretrain.num_interactions(),
        span_interactions=[span.num_interactions() for span in split.spans],
    )


def interest_reappearance_rate(world, min_reappearances: int = 3) -> float:
    """Fraction of (user, topic) pairs active in ≥ ``min_reappearances``
    periods after first appearing — the paper cites >80% of interests
    reappearing more than three times, which motivates retaining all
    existing interests."""
    total = 0
    reappearing = 0
    for timeline in world.user_topic_timeline.values():
        seen: Dict[int, int] = {}
        for period_topics in timeline:
            for topic in period_topics:
                seen[topic] = seen.get(topic, 0) + 1
        for count in seen.values():
            total += 1
            if count > min_reappearances:
                reappearing += 1
    return reappearing / total if total else 0.0
