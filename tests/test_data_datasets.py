"""Unit tests for the dataset presets and statistics."""

import pytest

from repro.data import (
    DATASET_NAMES,
    WorldConfig,
    compute_stats,
    dataset_config,
    load_custom,
    load_dataset,
)


class TestPresets:
    def test_four_paper_datasets(self):
        assert set(DATASET_NAMES) == {"electronics", "clothing", "books", "taobao"}

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            dataset_config("netflix")

    def test_scale_changes_sizes(self):
        small = dataset_config("books", scale=0.25)
        big = dataset_config("books", scale=1.0)
        assert small.num_users < big.num_users
        assert small.num_items < big.num_items

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            dataset_config("books", scale=0.0)

    def test_seed_offset_changes_seed(self):
        a = dataset_config("books", seed_offset=0)
        b = dataset_config("books", seed_offset=1)
        assert a.seed != b.seed

    def test_taobao_is_largest_and_fastest_changing(self):
        # mirrors the paper: Taobao has the most items and the fastest
        # interest change
        taobao = dataset_config("taobao")
        others = [dataset_config(n) for n in DATASET_NAMES if n != "taobao"]
        assert all(taobao.num_items > o.num_items for o in others)
        assert all(taobao.new_topic_rate > o.new_topic_rate for o in others)

    def test_books_is_most_stable(self):
        books = dataset_config("books")
        others = [dataset_config(n) for n in DATASET_NAMES if n != "books"]
        assert all(books.new_topic_rate < o.new_topic_rate for o in others)


class TestLoading:
    def test_load_dataset_shapes(self):
        world, split = load_dataset("electronics", scale=0.2)
        assert split.T == 6
        assert split.num_items == world.num_items
        assert split.pretrain.num_interactions() > 0
        assert all(s.num_interactions() > 0 for s in split.spans)

    def test_load_custom(self):
        config = WorldConfig(num_users=10, num_items=50, num_topics=5,
                             num_spans=3, seed=2)
        world, split = load_custom(config, T=3)
        assert split.T == 3
        assert world.num_users == 10

    def test_pretrain_has_most_interactions(self):
        # alpha = 0.5 puts about half the timeline in pretraining and the
        # generator emits 30-60 pretrain events vs 8-16 per span
        _, split = load_dataset("books", scale=0.2)
        assert split.pretrain.num_interactions() > max(
            s.num_interactions() for s in split.spans
        )


class TestStats:
    def test_table2_columns(self):
        world, split = load_dataset("clothing", scale=0.2)
        stats = compute_stats("clothing", split)
        row = stats.as_row()
        assert row["dataset"] == "clothing"
        assert set(row) == {"dataset", "#users", "#items", "pre-training",
                            "1", "2", "3", "4", "5", "6"}

    def test_counts_match_split(self):
        world, split = load_dataset("books", scale=0.2)
        stats = compute_stats("books", split)
        assert stats.num_users == split.num_users
        assert stats.span_interactions[2] == split.spans[2].num_interactions()
