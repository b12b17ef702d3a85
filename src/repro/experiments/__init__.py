"""Experiment harness: drivers for every table and figure in the paper."""

from .runner import RunResult, default_config, make_strategy, run, run_repeated, run_strategy
from .journal import JOURNAL_NAME, SpanRecord
from .reporting import (
    format_table,
    relative_improvement,
    render_shape_checks,
    series_to_rows,
    shape_check,
)
from .registry import EXPERIMENTS, Experiment, get_experiment
from .plotting import ascii_line_chart
from .artifacts import export_result, load_artifact
from .table3 import PAPER_TABLE3, Table3Result, run_table3
from .table4 import PAPER_TABLE4, Table4Result, run_table4
from .table5 import PAPER_TABLE5_DR, Table5Result, run_table5
from .fig2 import Fig2Result, run_fig2
from .fig3 import Fig3Result, run_fig3
from .fig4 import Fig4Result, run_fig4
from .fig5 import VARIANTS, Fig5Result, run_fig5
from .fig6 import C1_GRID, C2_GRID, K_GRID, Fig6Result, run_fig6
from .fig7 import Fig7Result, run_fig7

__all__ = [
    "RunResult",
    "default_config",
    "make_strategy",
    "run",
    "run_repeated",
    "run_strategy",
    "JOURNAL_NAME",
    "SpanRecord",
    "format_table",
    "relative_improvement",
    "render_shape_checks",
    "series_to_rows",
    "shape_check",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "ascii_line_chart",
    "export_result",
    "load_artifact",
    "PAPER_TABLE3",
    "Table3Result",
    "run_table3",
    "PAPER_TABLE4",
    "Table4Result",
    "run_table4",
    "PAPER_TABLE5_DR",
    "Table5Result",
    "run_table5",
    "Fig2Result",
    "run_fig2",
    "Fig3Result",
    "run_fig3",
    "Fig4Result",
    "run_fig4",
    "VARIANTS",
    "Fig5Result",
    "run_fig5",
    "C1_GRID",
    "C2_GRID",
    "K_GRID",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
]
