"""Structural tests for the table/figure drivers at tiny scale.

These verify the drivers produce well-formed results (correct keys,
bounded metrics, rendered tables) — the paper-shape assertions live in
the benchmarks, which run at meaningful scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    default_config,
    run_fig4,
    run_fig5,
    run_fig6,
    run_table3,
    run_table4,
    run_table5,
)

SCALE = 0.15
CFG = dict(epochs_pretrain=2, epochs_incremental=1, num_negatives=4, seed=0)


@pytest.fixture(scope="module")
def config():
    return default_config(**CFG)


class TestTable3Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3(
            datasets=("books",), models=("ComiRec-DR",),
            scale=SCALE, config=default_config(**CFG),
            model_kwargs={"dim": 8, "num_interests": 2},
        )

    def test_all_cells_present(self, result):
        strategies = {s for (_, _, s) in result.cells}
        assert strategies == {"FR", "FT", "SML", "ADER", "IMSR"}

    def test_metrics_bounded(self, result):
        for cell in result.cells.values():
            assert 0.0 <= cell.ndcg <= cell.hr <= 1.0

    def test_ft_ri_is_zero(self, result):
        assert result.cells[("books", "ComiRec-DR", "FT")].ri == 0.0

    def test_rows_include_paper_values(self, result):
        rows = result.rows()
        assert all("paper_HR" in row for row in rows)
        assert len(rows) == 5

    def test_format_renders(self, result):
        text = result.format()
        assert "IMSR" in text and "paper_HR" in text

    def test_shape_checks_well_formed(self, result):
        checks = result.shape_checks()
        assert checks
        assert all(c["holds"] in ("yes", "NO") for c in checks)

    def test_significance_marker_set_for_imsr(self, result):
        cell = result.cells[("books", "ComiRec-DR", "IMSR")]
        assert cell.significant in (True, False, None)


class TestTable4Driver:
    def test_structure(self, config):
        result = run_table4(datasets=("books",), scale=SCALE, config=config)
        methods = {m for (_, m) in result.runs}
        assert methods == {"MIMN", "LimaRec", "IMSR"}
        rows = result.rows()
        assert rows[0]["dataset"] == "books"
        assert "paper_IMSR" in rows[0]


class TestTable5Driver:
    def test_structure(self, config):
        result = run_table5(models=("ComiRec-DR",),
                            strategies=("FT", "FR", "IMSR", "ADER"),
                            scale=SCALE, config=config)
        run = result.runs[("ComiRec-DR", "FT")]
        assert all(v > 0 for v in run.train_times.values())
        assert "inference(ms)" in result.rows()[0]
        checks = result.shape_checks(model="ComiRec-DR")
        assert checks
        assert all(c["holds"] in ("yes", "NO") for c in checks)


class TestFig4Driver:
    def test_structure(self, config):
        result = run_fig4(datasets=("books",), strategies=("FT", "IMSR", "FR",
                                                           "SML", "ADER"),
                          scale=SCALE, config=config)
        series = result.series["books"]
        assert set(series) == {"FT", "IMSR", "FR", "SML", "ADER"}
        assert all(len(v) == 5 for v in series.values())
        assert all(0.0 <= x <= 1.0 for v in series.values() for x in v)
        assert "span" in result.format() or "FT" in result.format()


class TestFig5Driver:
    def test_subset_of_variants(self, config):
        result = run_fig5(datasets=("books",), models=("ComiRec-DR",),
                          variants=("FT", "IMSR"), scale=SCALE, config=config)
        averages = result.averages()[("books", "ComiRec-DR")]
        assert set(averages) == {"FT", "IMSR"}


class TestFig6Driver:
    def test_single_sweep(self, config):
        result = run_fig6(datasets=("books",), scale=SCALE, config=config,
                          c1_grid=(0.3, 0.7), sweeps=("c1",))
        key = ("c1", "books", "ComiRec-DR")
        assert set(result.sweeps[key]) == {0.3, 0.7}
        assert all(0.0 <= v <= 1.0 for v in result.sweeps[key].values())

    def test_k_sweep_prealloc(self, config):
        result = run_fig6(datasets=("books",), scale=SCALE, config=config,
                          k_grid=((2, 1), (5, 0)), sweeps=("K",))
        key = ("K", "books", "ComiRec-DR")
        assert set(result.sweeps[key]) == {(2, 1), (5, 0)}


class TestFig7Projection:
    def test_projects_without_touching_the_snapshots(self, rng):
        # Figure 7(b) projects each span's stored interest snapshot; a
        # write into it would move every plotted trajectory point
        from repro.experiments.fig7 import _pca_2d

        points = rng.normal(size=(4, 6))
        basis = rng.normal(size=(6, 2))
        before = points.copy()
        np.testing.assert_array_equal(_pca_2d(points, basis=basis),
                                      before @ basis)
        _pca_2d(points)
        np.testing.assert_array_equal(points, before)
