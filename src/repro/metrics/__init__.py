"""Metrics: received-message counters, small-world stats, aggregation."""

from .aggregate import FileRankStats, mean_ci, per_file_stats, sorted_curve_mean
from .analytics import AnalyticsEngine
from .balance import gini, jain_fairness, load_balance_report, lorenz_curve
from .collector import FAMILIES, MetricsCollector
from .connectivity import expected_mean_degree
from .graphfast import (
    average_clustering,
    component_labels,
    graph_csr,
    local_clustering,
    path_length_sums,
    triangle_counts,
)
from .lifetimes import ClosedConnection, LifetimeLog, lifetime_summary
from .smallworld import random_graph_pathlength, regular_graph_pathlength

__all__ = [
    "AnalyticsEngine",
    "expected_mean_degree",
    "average_clustering",
    "component_labels",
    "graph_csr",
    "local_clustering",
    "path_length_sums",
    "triangle_counts",
    "ClosedConnection",
    "LifetimeLog",
    "lifetime_summary",
    "gini",
    "jain_fairness",
    "load_balance_report",
    "lorenz_curve",
    "FileRankStats",
    "mean_ci",
    "per_file_stats",
    "sorted_curve_mean",
    "FAMILIES",
    "MetricsCollector",
    "random_graph_pathlength",
    "regular_graph_pathlength",
]
