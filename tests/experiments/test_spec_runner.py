"""Tests for the experiment grid machinery."""

import logging
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments import runner
from repro.experiments.runner import paper_beta, run_cell, run_grid, trace_for
from repro.experiments.spec import CellKey, ExperimentGrid, GridResult
from tests.system.test_replay_fastpath import stripped as comparable

SCALE = 0.03


def test_grid_cells_cartesian():
    grid = ExperimentGrid(
        traces=("news", "alternative"),
        strategies=("gdstar", "sub"),
        capacities=(0.01, 0.05),
        sqs=(0.5, 1.0),
    )
    cells = grid.cells()
    assert len(cells) == grid.cell_count == 16
    assert len(set(cells)) == 16


def test_cell_key_str():
    key = CellKey("news", "sg2", 0.05)
    assert "news" in str(key) and "sg2" in str(key)


def test_trace_for_memoized():
    a = trace_for("news", SCALE, 3)
    b = trace_for("news", SCALE, 3)
    assert a is b


def test_run_cell_produces_result():
    result = run_cell(CellKey("news", "gdstar", 0.05), scale=SCALE, seed=3)
    assert result.requests > 0
    assert result.strategy == "gdstar"


def test_run_grid_and_lookup():
    grid = ExperimentGrid(strategies=("gdstar", "sub"), capacities=(0.05,))
    outcome = run_grid(grid, scale=SCALE, seed=3)
    assert isinstance(outcome, GridResult)
    assert outcome.hit_ratio(strategy="gdstar") >= 0.0
    sub = outcome.get(strategy="sub")
    assert sub.strategy == "sub"


def test_grid_result_relative_improvement():
    grid = ExperimentGrid(strategies=("gdstar", "sg2"), capacities=(0.05,))
    outcome = run_grid(grid, scale=SCALE, seed=3)
    relative = outcome.relative_improvement(strategy="sg2")
    expected = outcome.hit_ratio(strategy="sg2") / outcome.hit_ratio(
        strategy="gdstar"
    ) - 1.0
    assert relative == pytest.approx(expected)


def test_grid_result_ambiguous_lookup_raises():
    grid = ExperimentGrid(strategies=("gdstar", "sub"), capacities=(0.01, 0.05))
    outcome = run_grid(grid, scale=SCALE, seed=3)
    with pytest.raises(KeyError):
        outcome.get(strategy="sub")  # capacity ambiguous


def test_run_grid_progress_callback():
    grid = ExperimentGrid(strategies=("gdstar",), capacities=(0.05,))
    seen = []
    run_grid(grid, scale=SCALE, seed=3, progress=lambda key, res: seen.append(key))
    assert len(seen) == 1


def test_paper_beta_rules():
    assert paper_beta("news", "gdstar", 0.05) == 2.0
    assert paper_beta("news", "sg2", 0.01) == 2.0
    assert paper_beta("alternative", "sg2", 0.05) == 0.5
    assert paper_beta("alternative", "gdstar", 0.01) == 1.0
    assert paper_beta("alternative", "sg1", 0.10) == 2.0


NINE = ("gdstar", "sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap")


def _grid_messages(caplog) -> list:
    return [
        record.getMessage()
        for record in caplog.records
        if record.getMessage().startswith("grid: ")
    ]


def test_run_grid_parallel_matches_serial(monkeypatch, caplog):
    """A cell replayed in a forked worker equals the same cell replayed
    in process, in every simulated field and in ``grid.cells()`` order."""
    grid = ExperimentGrid(traces=("news", "alternative"), strategies=NINE, capacities=(0.05,))
    with caplog.at_level(logging.DEBUG, logger="repro.experiments.runner"):
        monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
        serial = run_grid(grid, scale=SCALE, seed=3)
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        parallel = run_grid(grid, scale=SCALE, seed=3)
    assert _grid_messages(caplog) == [
        "grid: replaying 18 cells serially (one usable CPU)",
        "grid: replaying 18 cells across 2 processes",
    ]
    assert list(serial.results) == list(parallel.results) == grid.cells()
    for key in grid.cells():
        assert comparable(parallel.results[key]) == comparable(serial.results[key]), key


def test_run_grid_parallel_progress_and_options_forwarded(monkeypatch):
    """Across two processes, progress fires once per cell as cells
    complete, and strategy_options/beta reach the replays."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    grid = ExperimentGrid(strategies=("gdstar", "sg2"), capacities=(0.05,))
    seen = []
    parallel = run_grid(
        grid,
        scale=SCALE,
        seed=3,
        beta=0.5,
        strategy_options={"beta": 0.5},
        progress=lambda key, result: seen.append(key),
    )
    assert sorted(map(str, seen)) == sorted(map(str, grid.cells()))
    monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
    serial = run_grid(
        grid, scale=SCALE, seed=3, beta=0.5, strategy_options={"beta": 0.5}
    )
    for key in grid.cells():
        assert serial.results[key].hits == parallel.results[key].hits


# -- each serial fallback says why ---------------------------------------------

FALLBACK_GRID = ExperimentGrid(strategies=("gdstar", "sub"), capacities=(0.05,))


def _fallback_grid_results() -> dict:
    outcome = run_grid(FALLBACK_GRID, scale=SCALE, seed=3)
    return {key: comparable(result) for key, result in outcome.results.items()}


def test_one_usable_cpu_replays_serially(monkeypatch, caplog):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with caplog.at_level(logging.DEBUG, logger="repro.experiments.runner"):
        got = _fallback_grid_results()
    assert _grid_messages(caplog) == ["grid: replaying 2 cells serially (one usable CPU)"]
    assert list(got) == FALLBACK_GRID.cells()


def test_a_platform_without_fork_replays_serially(monkeypatch, caplog):
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with caplog.at_level(logging.DEBUG, logger="repro.experiments.runner"):
        got = _fallback_grid_results()
    assert _grid_messages(caplog) == [
        "grid: replaying 2 cells serially (the platform lacks the fork start method)"
    ]
    assert list(got) == FALLBACK_GRID.cells()


def _grid_in_a_pool_worker():
    """run_grid called from a daemonic process: its grid DEBUG lines and
    its results."""
    messages = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("repro.experiments.runner")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        results = _fallback_grid_results()
    finally:
        logger.removeHandler(handler)
    return [m for m in messages if m.startswith("grid: ")], results


def test_a_daemonic_caller_replays_serially(monkeypatch):
    """A pool worker may not have children: the grid falls back rather
    than fail with 'daemonic processes are not allowed to have children'."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        messages, results = pool.apply(_grid_in_a_pool_worker)
    assert messages == [
        "grid: replaying 2 cells serially (a daemonic process cannot have children)"
    ]
    monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
    assert results == _fallback_grid_results()


def test_one_cell_to_replay_forks_nothing(monkeypatch, caplog):
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    grid = ExperimentGrid(strategies=("gdstar",), capacities=(0.05,))
    with caplog.at_level(logging.DEBUG, logger="repro.experiments.runner"):
        run_grid(grid, scale=SCALE, seed=3)
    assert _grid_messages(caplog) == [
        "grid: replaying 1 cells serially (at most one cell to replay)"
    ]


#: ``figure 4`` / ``table 2`` whose grid worker dies on the first cell it
#: replays: the grid's second, since this process replays the first.
_DYING_GRID_WORKER = """
import os, sys
from repro.experiments import runner
from repro.system.simulator import Simulation
parent, run = os.getpid(), Simulation.run
def dying(self):
    if os.getpid() != parent:
        os._exit(9)
    return run(self)
Simulation.run = dying
runner.usable_cpus = lambda: 2
from repro.cli import main
sys.exit(main([*sys.argv[1:], "--scale", "0.03", "--no-artifact-cache"]))
"""


@pytest.mark.parametrize(
    "command, cell",
    [(("figure", "4"), "news/gdstar@cap=0.05"), (("table", "2"), "news/sub@cap=0.05")],
    ids=["figure-4", "table-2"],
)
def test_a_dead_grid_worker_ends_the_command_with_one_line(command, cell):
    """A grid worker that dies (here ``os._exit(9)``) ends the command
    within a bound, with one line naming the cell and exit code 2."""
    started = time.monotonic()
    finished = subprocess.run(
        [sys.executable, "-c", _DYING_GRID_WORKER, *command],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__))),
    )
    assert time.monotonic() - started < 60
    assert finished.returncode == 2, finished.stderr
    assert finished.stderr == (
        f"{command[0]} failed: grid worker died replaying "
        f"{cell},sq=1,when-necessary (exit code 9)\n"
    )
    assert finished.stdout == ""


def test_run_grid_serial_forwards_strategy_options():
    """An explicit beta in strategy_options overrides the paper default
    in both the serial and parallel paths."""
    grid = ExperimentGrid(strategies=("sg2",), capacities=(0.05,))
    default = run_grid(grid, scale=SCALE, seed=3)
    overridden = run_grid(grid, scale=SCALE, seed=3, strategy_options={"beta": 0.01})
    key = grid.cells()[0]
    assert default.results[key].requests == overridden.results[key].requests
