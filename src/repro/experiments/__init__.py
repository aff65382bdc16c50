"""Experiment harness: the paper's evaluation, regenerated.

This package defines the scaled workloads (see DESIGN.md for the
paper-to-repo substitution table), timing runners and formatters used by
``benchmarks/`` and ``examples/``:

* :mod:`repro.experiments.workloads` — net specifications mirroring the
  paper's three industrial test cases (scaled x1/10 in sinks) plus the
  Figure 3/4 sweeps.
* :mod:`repro.experiments.runner` — wall-clock measurement of one
  algorithm on one instance.
* :mod:`repro.experiments.table1` — Table 1: runtimes and speedups over
  nets x library sizes.
* :mod:`repro.experiments.figures` — Figures 3 and 4: normalized
  runtime versus ``b`` and versus ``n``.
"""

from repro.experiments.workloads import (
    NetSpec,
    TABLE1_NETS,
    TABLE1_LIBRARY_SIZES,
    FIG3_LIBRARY_SIZES,
    FIG4_NET,
    FIG4_POSITION_COUNTS,
    FIGURE_NET,
    build_net,
)
from repro.experiments.runner import (
    MeasuredBatch,
    MeasuredRun,
    time_algorithm,
    time_batch,
)
from repro.experiments.list_stats import (
    ListStats,
    collect_list_stats,
    list_growth_by_positions,
)
from repro.experiments.table1 import Table1Row, run_table1, format_table1
from repro.experiments.figures import (
    SeriesPoint,
    FigureSeries,
    run_fig3,
    run_fig4,
    format_figure,
)

__all__ = [
    "NetSpec",
    "TABLE1_NETS",
    "TABLE1_LIBRARY_SIZES",
    "FIG3_LIBRARY_SIZES",
    "FIG4_NET",
    "FIG4_POSITION_COUNTS",
    "FIGURE_NET",
    "build_net",
    "MeasuredRun",
    "MeasuredBatch",
    "time_algorithm",
    "time_batch",
    "ListStats",
    "collect_list_stats",
    "list_growth_by_positions",
    "Table1Row",
    "run_table1",
    "format_table1",
    "SeriesPoint",
    "FigureSeries",
    "run_fig3",
    "run_fig4",
    "format_figure",
]
