"""Tests for the CLI and the ASCII plotting helpers."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.plotting import ascii_bars, ascii_heatmap, ascii_line_chart


class TestPlotting:
    def test_line_chart_contains_markers_and_legend(self):
        chart = ascii_line_chart({"FT": [0.1, 0.2, 0.15], "FR": [0.3, 0.25, 0.2]})
        assert "o=FT" in chart
        assert "x=FR" in chart
        grid_rows = chart.splitlines()[:-2]  # exclude axis + legend
        assert any("o" in row for row in grid_rows)
        assert any("x" in row for row in grid_rows)

    def test_line_chart_bounds_labels(self):
        chart = ascii_line_chart({"a": [1.0, 3.0]})
        assert "3.000" in chart
        assert "1.000" in chart

    def test_line_chart_constant_series_safe(self):
        chart = ascii_line_chart({"a": [0.5, 0.5, 0.5]})
        assert "(empty" not in chart

    def test_line_chart_empty(self):
        assert ascii_line_chart({}) == "(no series)"

    def test_line_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_line_chart({"a": [1.0], "b": [1.0, 2.0]})

    def test_heatmap_scale_line(self):
        out = ascii_heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]))
        assert "scale:" in out
        assert "0.000" in out and "1.000" in out

    def test_heatmap_labels(self):
        out = ascii_heatmap(np.eye(2), row_labels=["u1", "u2"],
                            col_labels=["i1", "i2"])
        assert "u1" in out and "u2" in out

    def test_heatmap_empty(self):
        assert ascii_heatmap(np.zeros((0, 0))) == "(empty heatmap)"

    def test_bars_render_values(self):
        out = ascii_bars({"skirt": 0.9, "lego": 0.1})
        assert "skirt" in out and "0.900" in out

    def test_bars_negative_values(self):
        out = ascii_bars({"a": -1.0, "b": 1.0})
        assert "-1.000" in out


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "IMSR" in out
        assert "taobao" in out
        assert "table3" in out

    def test_stats_command(self, capsys):
        assert main(["stats", "books", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "books" in out
        assert "#users" in out

    def test_stats_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["stats", "netflix"])

    def test_run_command_tiny(self, capsys):
        assert main(["run", "books", "ComiRec-DR", "FT",
                     "--scale", "0.15", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "HR@20" in out
        assert "average:" in out

    def test_run_imsr_flags(self, capsys):
        assert main(["run", "books", "ComiRec-DR", "IMSR",
                     "--scale", "0.15", "--epochs", "2",
                     "--c1", "0.3", "--delta-k", "2"]) == 0
        assert "mean K" in capsys.readouterr().out

    def test_imsr_flag_on_other_strategy_warns(self, capsys):
        assert main(["run", "books", "ComiRec-DR", "FT",
                     "--scale", "0.15", "--epochs", "2", "--c1", "0.3"]) == 0
        assert "only applies to IMSR" in capsys.readouterr().err

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "pre-training" in out

    def test_lint_command_clean_on_src(self, capsys):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        assert main(["lint", str(src)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_command_flags_violation(self, tmp_path, capsys):
        bad = tmp_path / "m.py"
        bad.write_text("import numpy as np\n"
                       "def f():\n"
                       "    return np.random.rand(3)\n")
        assert main(["lint", str(bad)]) == 1
        assert "RA201" in capsys.readouterr().out

    def test_lint_command_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "RA201" in capsys.readouterr().out

    def test_checkpoint_info_command(self, tiny_split, tmp_path, capsys):
        from repro.experiments import make_strategy
        from repro.incremental import TrainConfig
        from repro.persistence import save_checkpoint

        strategy = make_strategy(
            "FT", "ComiRec-DR", tiny_split,
            TrainConfig(epochs_pretrain=1, epochs_incremental=1, seed=0),
            model_kwargs={"dim": 8, "num_interests": 2})
        path = tmp_path / "c.npz"
        save_checkpoint(strategy, path)
        assert main(["checkpoint-info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "model_family: dr" in out
