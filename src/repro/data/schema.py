"""Core data types shared across the reproduction.

The paper's input is a set of (user, item, timestamp) interactions split
into a pre-training period plus ``T`` incremental time spans.  These types
capture that structure in a backend-agnostic way: the synthetic generator
produces :class:`Interaction` streams, and :mod:`repro.data.timespans`
turns them into :class:`TemporalSplit` objects the strategies consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Interaction:
    """A single user-item interaction (the paper's ``(u, i, s)`` triple)."""

    user: int
    item: int
    timestamp: float


@dataclass
class UserSpanData:
    """One user's data inside one time span, split leave-one-out style.

    Following the paper's protocol: the latest interaction is the test
    target, the second latest is the validation target, everything earlier
    in the span is training data.
    """

    user: int
    train_items: List[int] = field(default_factory=list)
    val_item: Optional[int] = None
    test_item: Optional[int] = None

    @property
    def all_items(self) -> List[int]:
        items = list(self.train_items)
        if self.val_item is not None:
            items.append(self.val_item)
        if self.test_item is not None:
            items.append(self.test_item)
        return items


@dataclass
class SpanDataset:
    """All users' data for one time span."""

    span_index: int
    users: Dict[int, UserSpanData] = field(default_factory=dict)

    def num_interactions(self) -> int:
        return sum(len(u.all_items) for u in self.users.values())

    def user_ids(self) -> List[int]:
        return sorted(self.users)

    def __contains__(self, user: int) -> bool:
        return user in self.users


@dataclass
class TemporalSplit:
    """Pre-training dataset plus ``T`` incremental span datasets."""

    pretrain: SpanDataset
    spans: List[SpanDataset]
    num_users: int
    num_items: int

    @property
    def T(self) -> int:
        return len(self.spans)


def interactions_by_user(
    interactions: Sequence[Interaction],
) -> Dict[int, List[Interaction]]:
    """Group interactions per user, sorted chronologically."""
    grouped: Dict[int, List[Interaction]] = {}
    for inter in interactions:
        grouped.setdefault(inter.user, []).append(inter)
    for events in grouped.values():
        events.sort(key=lambda e: e.timestamp)
    return grouped
