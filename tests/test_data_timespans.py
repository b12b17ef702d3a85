"""Unit tests for the time-span splitting protocol."""

import pytest

from repro.data import Interaction, split_time_spans


def make_stream(events):
    """events: list of (user, item, ts)."""
    return [Interaction(u, i, t) for u, i, t in events]


class TestSplitting:
    def test_basic_partition(self):
        # pretrain [0, 0.5): 3 events; two spans over [0.5, 1.0)
        stream = make_stream([
            (0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3),
            (0, 4, 0.55), (0, 5, 0.6),
            (0, 6, 0.8), (0, 7, 0.9), (0, 8, 1.0),
        ])
        split = split_time_spans(stream, num_items=10, T=2, alpha=0.5)
        assert split.T == 2
        assert split.pretrain.num_interactions() == 3
        assert split.spans[0].num_interactions() == 2
        assert split.spans[1].num_interactions() == 3

    def test_last_timestamp_in_final_span(self):
        stream = make_stream([(0, i, t) for i, t in
                              enumerate([0.0, 0.25, 0.5, 0.75, 1.0])])
        split = split_time_spans(stream, num_items=10, T=2, alpha=0.5)
        assert 0 in split.spans[1]

    def test_leave_one_out_roles(self):
        stream = make_stream([
            (0, 1, 0.1), (0, 2, 0.15), (0, 3, 0.2), (0, 4, 0.3), (0, 5, 0.4),
            (0, 9, 0.9),
        ])
        split = split_time_spans(stream, num_items=10, T=1, alpha=0.5)
        pre = split.pretrain.users[0]
        assert pre.train_items == [1, 2, 3]
        assert pre.val_item == 4
        assert pre.test_item == 5

    def test_two_items_yield_test_but_no_val(self):
        stream = make_stream([(0, 1, 0.1), (0, 2, 0.2), (0, 9, 0.9)])
        split = split_time_spans(stream, num_items=10, T=1, alpha=0.5)
        pre = split.pretrain.users[0]
        assert pre.train_items == [1]
        assert pre.val_item is None
        assert pre.test_item == 2

    def test_single_item_is_train_only(self):
        stream = make_stream([(0, 1, 0.1), (0, 9, 0.9)])
        split = split_time_spans(stream, num_items=10, T=1, alpha=0.5)
        pre = split.pretrain.users[0]
        assert pre.train_items == [1]
        assert pre.test_item is None

    def test_min_interactions_filter(self):
        stream = make_stream(
            [(0, i, 0.01 * i) for i in range(40)] + [(1, 1, 0.3)]
        )
        split = split_time_spans(stream, num_items=50, T=2, alpha=0.5,
                                 min_user_interactions=30)
        assert split.num_users == 1
        assert 1 not in split.pretrain

    def test_chronological_order_preserved_within_span(self):
        stream = make_stream([(0, 5, 0.3), (0, 2, 0.1), (0, 7, 0.2), (0, 9, 0.9)])
        split = split_time_spans(stream, num_items=10, T=1, alpha=0.5)
        pre = split.pretrain.users[0]
        assert pre.train_items == [2]
        assert pre.val_item == 7
        assert pre.test_item == 5

    def test_all_items_property(self):
        stream = make_stream([(0, i, 0.05 * i) for i in range(5)] + [(0, 9, 0.9)])
        split = split_time_spans(stream, num_items=10, T=1, alpha=0.5)
        assert split.pretrain.users[0].all_items == [0, 1, 2, 3, 4]


class TestValidation:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            split_time_spans([], num_items=10)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_bad_alpha_rejected(self, alpha):
        stream = make_stream([(0, 1, 0.5)])
        with pytest.raises(ValueError):
            split_time_spans(stream, num_items=10, alpha=alpha)

    def test_bad_T_rejected(self):
        stream = make_stream([(0, 1, 0.5)])
        with pytest.raises(ValueError):
            split_time_spans(stream, num_items=10, T=0)

    def test_all_filtered_rejected(self):
        stream = make_stream([(0, 1, 0.5)])
        with pytest.raises(ValueError):
            split_time_spans(stream, num_items=10, min_user_interactions=5)

    def test_arbitrary_timestamp_scale(self):
        # timestamps in epoch seconds, not [0, 1]
        stream = make_stream([
            (0, 1, 1_000_000.0), (0, 2, 1_250_000.0),
            (0, 3, 1_600_000.0), (0, 4, 2_000_000.0),
        ])
        split = split_time_spans(stream, num_items=10, T=2, alpha=0.5)
        assert split.pretrain.num_interactions() == 2
        assert split.spans[0].num_interactions() == 1
        assert split.spans[1].num_interactions() == 1
