"""Tests for the experiment harness: runner, reporting, registry."""

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    format_table,
    get_experiment,
    make_strategy,
    relative_improvement,
    render_shape_checks,
    run_strategy,
    series_to_rows,
    shape_check,
)
from repro.experiments.table3 import PAPER_TABLE3
from repro.experiments.table4 import PAPER_TABLE4
from repro.incremental import TrainConfig


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_custom_columns(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_relative_improvement(self):
        assert relative_improvement(1.1, 1.0) == pytest.approx(10.0)
        assert relative_improvement(0.9, 1.0) == pytest.approx(-10.0)
        assert relative_improvement(1.0, 0.0) == 0.0

    def test_shape_check_rows(self):
        assert shape_check("x", True)["holds"] == "yes"
        assert shape_check("x", False)["holds"] == "NO"

    def test_render_shape_checks_counts(self):
        text = render_shape_checks([shape_check("a", True),
                                    shape_check("b", False)])
        assert "1/2 shape checks hold" in text

    def test_series_to_rows(self):
        rows = series_to_rows({"FT": [0.1, 0.2], "FR": [0.3, 0.4]})
        assert rows[0] == {"span": 1, "FT": 0.1, "FR": 0.3}
        assert rows[1]["span"] == 2

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_to_rows({"a": [1.0], "b": [1.0, 2.0]})


class TestRegistry:
    def test_every_table_and_figure_present(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3", "table4", "table5",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        }

    def test_get_experiment(self):
        exp = get_experiment("table3")
        assert callable(exp.driver)
        assert exp.bench_module.endswith(".py")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            get_experiment("table99")


class TestPaperConstants:
    def test_table3_covers_full_grid(self):
        for dataset, models in PAPER_TABLE3.items():
            assert set(models) == {"MIND", "ComiRec-DR", "ComiRec-SA"}
            for model, strategies in models.items():
                assert set(strategies) == {"FR", "FT", "SML", "ADER", "IMSR"}

    def test_table3_paper_orderings(self):
        """Sanity: the transcribed paper numbers show FT as weakest and
        IMSR as the best incremental method."""
        for dataset, models in PAPER_TABLE3.items():
            for model, strategies in models.items():
                mean = lambda s: sum(strategies[s]) / 2
                assert mean("IMSR") > mean("FT")
                assert mean("IMSR") > mean("SML")
                assert mean("IMSR") > mean("ADER")

    def test_table4_ordering(self):
        for dataset, methods in PAPER_TABLE4.items():
            assert methods["IMSR"] > methods["LimaRec"] > methods["MIMN"]


class TestRunner:
    @pytest.fixture()
    def fast_config(self):
        return TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                           num_negatives=4, seed=0)

    def test_run_strategy_end_to_end(self, tiny_split, fast_config):
        strategy = make_strategy("FT", "ComiRec-DR", tiny_split, fast_config,
                                 model_kwargs={"dim": 10, "num_interests": 2})
        result = run_strategy(strategy, tiny_split, "tiny", "ComiRec-DR")
        assert len(result.per_span) == tiny_split.T - 1
        assert 0.0 <= result.hr <= 1.0
        assert 0.0 <= result.ndcg <= result.hr + 1e-12
        assert result.inference_time > 0
        assert 0 in result.train_times
        assert len(result.interest_counts) == tiny_split.T - 1

    def test_counts_by_span_recorded(self, tiny_split, fast_config):
        strategy = make_strategy("IMSR", "ComiRec-DR", tiny_split, fast_config,
                                 model_kwargs={"dim": 10, "num_interests": 2},
                                 strategy_kwargs={"c1": 0.2})
        result = run_strategy(strategy, tiny_split, "tiny", "ComiRec-DR")
        assert set(result.counts_by_span) == set(range(1, tiny_split.T))

    def test_eval_targets_protocols_differ(self, tiny_split, fast_config):
        strategy = make_strategy("FT", "ComiRec-DR", tiny_split, fast_config,
                                 model_kwargs={"dim": 10, "num_interests": 2})
        dense = run_strategy(strategy, tiny_split)
        strict_cases = sum(
            1 for span in tiny_split.spans[1:]
            for u in span.users.values() if u.test_item is not None
        )
        dense_cases = sum(r.num_cases for r in dense.per_span)
        assert dense_cases > strict_cases

    def test_fr_strategy_gets_factory(self, tiny_split, fast_config):
        strategy = make_strategy("FR", "ComiRec-DR", tiny_split, fast_config,
                                 model_kwargs={"dim": 10, "num_interests": 2})
        assert strategy.name == "FR"
        strategy.pretrain()
        strategy.train_span(1)  # exercises reinitialization
