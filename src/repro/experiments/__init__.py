"""Experiment harness: regenerate every table and figure of §5.

One function per experiment, each returning structured results plus an
ASCII rendering matching the paper's rows/series:

=============  ==============================================  =========
Experiment     Function                                        Paper
=============  ==============================================  =========
Fig. 3         :func:`~repro.experiments.figures.figure3`      §5.2
Fig. 4a/4b     :func:`~repro.experiments.figures.figure4`      §5.3
Table 2        :func:`~repro.experiments.tables.table2`        §5.3
Fig. 5a/5b     :func:`~repro.experiments.figures.figure5`      §5.4
Fig. 6a/6b     :func:`~repro.experiments.figures.figure6`      §5.5
Fig. 7a/7b     :func:`~repro.experiments.figures.figure7`      §5.6
β sweep        :func:`~repro.experiments.figures.beta_sweep`   §5.1
=============  ==============================================  =========

All experiments accept ``scale`` (1.0 = the paper's full-size workload;
benchmarks default to a laptop-friendly fraction) and a ``seed``.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.spec import ExperimentGrid, GridResult, CellKey
    from repro.experiments.artifacts import FORMAT_VERSION, ArtifactCache
    from repro.experiments.runner import (
        trace_for, run_cell, run_grid, paper_beta, set_default_artifact_dir,
    )
    from repro.experiments.report import render_table, render_series
    from repro.experiments.figures import figure3, figure4, figure5, figure6, figure7, beta_sweep
    from repro.experiments.tables import table2
    from repro.experiments.chaos import CHAOS_STRATEGIES, DEFAULT_CHAOS, ChaosResult, run_chaos
    from repro.experiments.calibrate import (
        CalibrationResult, calibrate_all, calibrate_beta, trace_prefix,
    )
    from repro.experiments.sensitivity import (
        RobustComparison, SeedSweep, compare_across_seeds, seed_sweep,
    )

__all__ = [
    "ExperimentGrid",
    "GridResult",
    "CellKey",
    "FORMAT_VERSION",
    "ArtifactCache",
    "trace_for",
    "run_cell",
    "run_grid",
    "paper_beta",
    "set_default_artifact_dir",
    "render_table",
    "render_series",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "beta_sweep",
    "table2",
    "CHAOS_STRATEGIES",
    "DEFAULT_CHAOS",
    "ChaosResult",
    "run_chaos",
    "CalibrationResult",
    "calibrate_all",
    "calibrate_beta",
    "trace_prefix",
    "RobustComparison",
    "SeedSweep",
    "compare_across_seeds",
    "seed_sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "spec": ("ExperimentGrid", "GridResult", "CellKey"),
    "artifacts": ("FORMAT_VERSION", "ArtifactCache"),
    "runner": ("trace_for", "run_cell", "run_grid", "paper_beta", "set_default_artifact_dir"),
    "report": ("render_table", "render_series"),
    "figures": ("figure3", "figure4", "figure5", "figure6", "figure7", "beta_sweep"),
    "tables": ("table2",),
    "chaos": ("CHAOS_STRATEGIES", "DEFAULT_CHAOS", "ChaosResult", "run_chaos"),
    "calibrate": ("CalibrationResult", "calibrate_all", "calibrate_beta", "trace_prefix"),
    "sensitivity": ("RobustComparison", "SeedSweep", "compare_across_seeds", "seed_sweep"),
})
