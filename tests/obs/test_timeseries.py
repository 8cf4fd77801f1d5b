"""The per-window time-series collector: folding, ring, spill, series.

Includes the ISSUE 7 acceptance check: per-window series from a
Figure-6-style observed run must sum/average consistently with the
end-of-run ``SimulationResult`` hourly metrics, and attaching the
collector must not change the simulation outcome at all.
"""

import json

import pytest

from repro.obs import Observer, TimeSeriesCollector
from repro.obs import timeseries as timeseries_module
from repro.system.config import SimulationConfig
from repro.system.metrics import dense_clamped
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace


def read_windows(path):
    """The window dicts of a JSONL series file."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def series(windows, kind, name):
    """``(window, value)`` of one counter or gauge, oldest first."""
    return [(w["window"], w[kind][name]) for w in windows if name in w.get(kind, ())]


def collected(tmp_path, window_seconds, *samples):
    """The series file's windows after ``samples`` — ``(method, t, name,
    value)`` calls — went through one collector."""
    path = str(tmp_path / "series.jsonl")
    ts = TimeSeriesCollector(window_seconds, path)
    for method, *arguments in samples:
        getattr(ts, method)(*arguments)
    ts.close()
    return read_windows(path)


class TestFolding:
    def test_counters_fold_into_windows(self, tmp_path):
        windows = collected(
            tmp_path, 10.0,
            ("inc", 0.0, "requests"), ("inc", 9.99, "requests"), ("inc", 10.0, "requests"),
        )
        assert series(windows, "counters", "requests") == [(0, 2.0), (1, 1.0)]

    def test_inc_amount_and_missing_name(self, tmp_path):
        windows = collected(
            tmp_path, 10.0, ("inc", 5.0, "bytes", 128.0), ("inc", 5.0, "bytes", 64.0)
        )
        assert series(windows, "counters", "bytes") == [(0, 192.0)]
        assert series(windows, "counters", "absent") == []

    def test_gauge_keeps_last_value_per_window(self, tmp_path):
        windows = collected(
            tmp_path, 10.0,
            ("set_gauge", 1.0, "depth", 3),
            ("set_gauge", 9.0, "depth", 7),
            ("set_gauge", 12.0, "depth", 2),
        )
        assert series(windows, "gauges", "depth") == [(0, 7.0), (1, 2.0)]

    def test_observe_tracks_count_sum_min_max(self, tmp_path):
        (window,) = collected(
            tmp_path, 10.0,
            *(("observe", 3.0, "latency", value) for value in (0.5, 2.0, 1.0)),
        )
        assert window["stats"]["latency"] == {
            "count": 3,
            "sum": 3.5,
            "min": 0.5,
            "max": 2.0,
        }

    def test_window_bounds_in_dict(self, tmp_path):
        (window,) = collected(tmp_path, 3600.0, ("inc", 7200.5, "requests"))
        assert window["window"] == 2
        assert window["start"] == 7200.0
        assert window["end"] == 10800.0

    def test_sparse_windows_skip_quiet_gaps(self, tmp_path):
        windows = collected(tmp_path, 1.0, ("inc", 0.5, "x"), ("inc", 100.5, "x"))
        assert [w["window"] for w in windows] == [0, 100]

    def test_rejects_bad_parameters(self, tmp_path):
        for window in (0, -5.0, float("nan")):
            with pytest.raises(ValueError):
                TimeSeriesCollector(window, str(tmp_path / "series.jsonl"))


class TestRingAndSpill:
    def test_spilled_windows_stream_to_sink(self, tmp_path, monkeypatch):
        monkeypatch.setattr(timeseries_module, "MAX_WINDOWS", 2)
        path = str(tmp_path / "series.jsonl")
        ts = TimeSeriesCollector(1.0, path)
        for hour in range(5):
            ts.inc(hour + 0.5, "x", hour)
        ts._file.flush()
        # Only the ring's two newest windows are still in memory.
        assert [w["window"] for w in read_windows(path)] == [0, 1, 2]
        ts.close()
        # close() writes the retained remainder: the full series is on disk.
        assert [w["window"] for w in read_windows(path)] == [0, 1, 2, 3, 4]

    def test_ring_bounds_memory(self, tmp_path):
        path = str(tmp_path / "series.jsonl")
        ts = TimeSeriesCollector(1.0, path)
        hours = timeseries_module.MAX_WINDOWS + 7
        for hour in range(hours):
            ts.inc(hour + 0.5, "x")
        ts._file.flush()
        # Everything older than the ring's MAX_WINDOWS newest windows is on disk.
        assert [w["window"] for w in read_windows(path)] == list(range(7))
        ts.close()
        assert [w["window"] for w in read_windows(path)] == list(range(hours))

    def test_late_sample_clamps_into_oldest_retained(self, tmp_path, monkeypatch):
        monkeypatch.setattr(timeseries_module, "MAX_WINDOWS", 2)
        windows = collected(
            tmp_path, 1.0,
            ("inc", 0.5, "x"),
            ("inc", 5.5, "x"),
            ("inc", 6.5, "x"),  # windows 5 and 6 retained now
            ("inc", 0.7, "x"),  # window 0 is gone: folds into window 5
        )
        assert series(windows, "counters", "x") == [(0, 1.0), (5, 2.0), (6, 1.0)]

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "series.jsonl")
        ts = TimeSeriesCollector(60.0, path)
        ts.inc(30.0, "requests", 5)
        ts.set_gauge(90.0, "depth", 2)
        ts.close()
        windows = read_windows(path)
        assert windows[0]["counters"] == {"requests": 5.0}
        assert windows[1]["gauges"] == {"depth": 2.0}

    def test_spill_path_owned_file(self, tmp_path):
        """The collector opens the spill path and closes it once."""
        path = str(tmp_path / "spill.jsonl")
        ts = TimeSeriesCollector(1.0, path)
        ts.inc(0.5, "x")
        ts.inc(1.5, "x")
        ts.close()
        ts.close()
        assert [w["window"] for w in read_windows(path)] == [0, 1]


class TestSimulationConsistency:
    """The acceptance check: windows agree with SimulationResult."""

    @pytest.fixture(scope="class")
    def observed_run(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("series") / "series.jsonl")
        workload = make_trace("news", scale=0.02, seed=7)
        config = SimulationConfig(strategy="sg2", capacity_fraction=0.05, seed=7)
        observer = Observer(timeseries=TimeSeriesCollector(3600.0, path))
        result = Simulation(workload, config, observer=observer).run()
        observer.close()
        return read_windows(path), result

    def test_per_window_requests_match_hourly_series(self, observed_run):
        ts, result = observed_run
        hours = len(result.hourly_requests)
        assert dense_clamped(dict(series(ts, "counters", "requests")), hours) == [
            float(count) for count in result.hourly_requests
        ]

    def test_per_window_hits_match_hourly_series(self, observed_run):
        ts, result = observed_run
        hours = len(result.hourly_hits)
        assert dense_clamped(dict(series(ts, "counters", "hits")), hours) == [
            float(count) for count in result.hourly_hits
        ]

    def test_window_totals_match_run_totals(self, observed_run):
        ts, result = observed_run
        total_requests = sum(v for _, v in series(ts, "counters", "requests"))
        total_hits = sum(v for _, v in series(ts, "counters", "hits"))
        assert total_requests == result.requests
        assert total_hits == pytest.approx(result.hit_ratio * result.requests)

    def test_timeseries_observer_does_not_change_results(self, observed_run):
        _, observed = observed_run
        workload = make_trace("news", scale=0.02, seed=7)
        config = SimulationConfig(strategy="sg2", capacity_fraction=0.05, seed=7)
        baseline = Simulation(workload, config).run()
        assert baseline.hit_ratio == observed.hit_ratio
        assert baseline.hourly_requests == observed.hourly_requests
        assert baseline.hourly_hits == observed.hourly_hits
        assert baseline.push_bytes == observed.push_bytes
        assert baseline.fetch_bytes == observed.fetch_bytes

    def test_cache_occupancy_gauge_tracks_storage(self, observed_run):
        ts, _ = observed_run
        occupancy = series(ts, "gauges", "cache_used_bytes")
        assert occupancy, "cache occupancy gauge never sampled"
        assert all(value >= 0 for _, value in occupancy)
