"""Per-table/figure experiment definitions and text reporting."""

from .cache import RunCache, run_key
from .executor import ExperimentExecutor
from .figures import (
    ALGORITHM_ORDER,
    FIGURES,
    FigureResult,
    figure_configs,
    run_distance_answers_figure,
    run_figure,
    run_message_curve_figure,
    shape_checks,
)
from .export import (
    figure_result_to_csv,
    figure_result_to_dict,
    figure_result_to_json,
)
from .paper_values import PAPER_FIGURES, PaperFigure, compare_with_paper
from .plots import ascii_chart, figure_chart
from .report import render_checks, render_figure, render_table
from .reproduce import DEFAULT_FIGURE_SETTINGS, reproduce_all
from .storage import ResultStore
from .sweeps import SweepPointResult, SweepSpec, run_sweep, sweep_grid
from .validation import ks_curve_test, means_differ, ordering_stability
from .tables import TOPOLOGIES, TopologyTraits, table1_rows, table2_rows

__all__ = [
    "RunCache",
    "run_key",
    "ExperimentExecutor",
    "figure_configs",
    "figure_result_to_csv",
    "figure_result_to_dict",
    "figure_result_to_json",
    "ascii_chart",
    "figure_chart",
    "DEFAULT_FIGURE_SETTINGS",
    "reproduce_all",
    "PAPER_FIGURES",
    "PaperFigure",
    "compare_with_paper",
    "ResultStore",
    "SweepPointResult",
    "SweepSpec",
    "run_sweep",
    "sweep_grid",
    "ks_curve_test",
    "means_differ",
    "ordering_stability",
    "ALGORITHM_ORDER",
    "FIGURES",
    "FigureResult",
    "run_distance_answers_figure",
    "run_figure",
    "run_message_curve_figure",
    "shape_checks",
    "render_checks",
    "render_figure",
    "render_table",
    "TOPOLOGIES",
    "TopologyTraits",
    "table1_rows",
    "table2_rows",
]
