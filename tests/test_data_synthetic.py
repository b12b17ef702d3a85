"""Unit tests for the synthetic interest-world generator."""

import numpy as np
import pytest

from repro.data import WorldConfig, generate_world, interactions_by_user
from repro.data.stats import interest_reappearance_rate


def small(**overrides):
    base = dict(num_users=12, num_items=60, num_topics=6, num_spans=3,
                pretrain_events_per_user=(10, 14),
                span_events_per_user=(4, 6), seed=5)
    base.update(overrides)
    return WorldConfig(**base)


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        a = generate_world(small())
        b = generate_world(small())
        assert len(a.interactions) == len(b.interactions)
        assert all(
            (x.user, x.item, x.timestamp) == (y.user, y.item, y.timestamp)
            for x, y in zip(a.interactions, b.interactions)
        )
        # every draw comes from the seeded generator, none from numpy's
        # global state
        np.testing.assert_array_equal(a.topic_centers, b.topic_centers)

    def test_different_seed_differs(self):
        a = generate_world(small(seed=1))
        b = generate_world(small(seed=2))
        pairs_a = [(x.user, x.item) for x in a.interactions]
        pairs_b = [(x.user, x.item) for x in b.interactions]
        assert pairs_a != pairs_b

    def test_timestamps_sorted_and_in_unit_range(self):
        world = generate_world(small())
        ts = [e.timestamp for e in world.interactions]
        assert ts == sorted(ts)
        assert min(ts) >= 0.0 and max(ts) < 1.0

    def test_every_user_has_pretrain_events(self):
        world = generate_world(small())
        grouped = interactions_by_user(world.interactions)
        for user in range(world.num_users):
            assert any(e.timestamp < 0.5 for e in grouped[user])

    def test_items_within_catalog(self):
        world = generate_world(small())
        assert all(0 <= e.item < world.num_items for e in world.interactions)

    def test_item_topics_cover_all_items(self):
        world = generate_world(small())
        assert world.item_topics.shape == (world.num_items,)
        assert world.item_topics.min() >= 0
        assert world.item_topics.max() < world.config.num_topics


class TestTopicDynamics:
    def test_timeline_length(self):
        world = generate_world(small(num_spans=4))
        for timeline in world.user_topic_timeline.values():
            assert len(timeline) == 5  # pretrain + 4 spans

    def test_topics_never_removed(self):
        world = generate_world(small())
        for timeline in world.user_topic_timeline.values():
            for prev, cur in zip(timeline, timeline[1:]):
                assert prev <= cur  # active sets only grow

    def test_high_adoption_rate_grows_topics(self):
        lazy = generate_world(small(new_topic_rate=0.0))
        eager = generate_world(small(new_topic_rate=0.9, num_topics=20))
        growth = lambda w: np.mean([
            len(t[-1]) - len(t[0]) for t in w.user_topic_timeline.values()
        ])
        assert growth(lazy) == 0.0
        assert growth(eager) > 1.0

    def test_new_topic_users_matches_timeline(self):
        world = generate_world(small(new_topic_rate=0.8))
        grew = world.new_topic_users(1)
        for user in grew:
            timeline = world.user_topic_timeline[user]
            assert timeline[1] - timeline[0]

    def test_reappearance_rate_high(self):
        # the paper's motivation: >80% of interests reappear
        world = generate_world(small(num_spans=6))
        assert interest_reappearance_rate(world) > 0.7


class TestCatalogRelease:
    def test_initial_fraction_respected(self):
        world = generate_world(small(initial_catalog_fraction=0.5))
        live_at_start = (world.item_release_period == 0).sum()
        assert live_at_start == pytest.approx(0.5 * world.num_items, abs=2)

    def test_full_fraction_means_all_live(self):
        world = generate_world(small(initial_catalog_fraction=1.0))
        assert (world.item_release_period == 0).all()

    def test_no_item_interacted_before_release(self):
        config = small(initial_catalog_fraction=0.4)
        world = generate_world(config)
        span_width = 0.5 / config.num_spans
        for e in world.interactions:
            period = 0 if e.timestamp < 0.5 else int(
                (e.timestamp - 0.5) // span_width) + 1
            assert world.item_release_period[e.item] <= period


class TestActivity:
    def test_full_activity_means_every_span(self):
        world = generate_world(small(span_activity=1.0))
        grouped = interactions_by_user(world.interactions)
        span_width = 0.5 / world.config.num_spans
        for user, events in grouped.items():
            periods = {0 if e.timestamp < 0.5 else int(
                (e.timestamp - 0.5) // span_width) + 1 for e in events}
            assert periods == set(range(world.config.num_spans + 1))

    def test_low_activity_creates_gaps(self):
        world = generate_world(small(span_activity=0.3, num_spans=4))
        grouped = interactions_by_user(world.interactions)
        n_gappy = 0
        for events in grouped.values():
            periods = {0 if e.timestamp < 0.5 else int(
                (e.timestamp - 0.5) // (0.5 / 4)) + 1 for e in events}
            if len(periods) < 5:
                n_gappy += 1
        assert n_gappy > len(grouped) / 2
