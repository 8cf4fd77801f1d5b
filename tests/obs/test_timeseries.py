"""The per-window time-series collector: folding, ring, spill, series.

Includes the ISSUE 7 acceptance check: per-window series from a
Figure-6-style observed run must sum/average consistently with the
end-of-run ``SimulationResult`` hourly metrics, and attaching the
collector must not change the simulation outcome at all.
"""

import io
import json

import pytest

from repro.obs import Observer, TimeSeriesCollector, read_series_jsonl
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace


class TestFolding:
    def test_counters_fold_into_windows(self):
        ts = TimeSeriesCollector(window_seconds=10.0)
        ts.inc(0.0, "requests")
        ts.inc(9.99, "requests")
        ts.inc(10.0, "requests")
        assert ts.counter_series("requests") == [(0, 2.0), (1, 1.0)]

    def test_inc_amount_and_missing_name(self):
        ts = TimeSeriesCollector(window_seconds=10.0)
        ts.inc(5.0, "bytes", 128.0)
        ts.inc(5.0, "bytes", 64.0)
        assert ts.counter_series("bytes") == [(0, 192.0)]
        assert ts.counter_series("absent") == []

    def test_gauge_keeps_last_value_per_window(self):
        ts = TimeSeriesCollector(window_seconds=10.0)
        ts.set_gauge(1.0, "depth", 3)
        ts.set_gauge(9.0, "depth", 7)
        ts.set_gauge(12.0, "depth", 2)
        assert ts.gauge_series("depth") == [(0, 7.0), (1, 2.0)]

    def test_observe_tracks_count_sum_min_max(self):
        ts = TimeSeriesCollector(window_seconds=10.0)
        for value in (0.5, 2.0, 1.0):
            ts.observe(3.0, "latency", value)
        window = ts.windows()[0]
        assert window["stats"]["latency"] == {
            "count": 3,
            "sum": 3.5,
            "min": 0.5,
            "max": 2.0,
        }

    def test_window_bounds_in_dict(self):
        ts = TimeSeriesCollector(window_seconds=3600.0)
        ts.inc(7200.5, "requests")
        window = ts.windows()[0]
        assert window["window"] == 2
        assert window["start"] == 7200.0
        assert window["end"] == 10800.0

    def test_sparse_windows_skip_quiet_gaps(self):
        ts = TimeSeriesCollector(window_seconds=1.0)
        ts.inc(0.5, "x")
        ts.inc(100.5, "x")
        assert [w["window"] for w in ts.windows()] == [0, 100]

    def test_rejects_bad_parameters(self):
        for window in (0, -5.0, float("nan")):
            with pytest.raises(ValueError):
                TimeSeriesCollector(window_seconds=window)
        with pytest.raises(ValueError):
            TimeSeriesCollector(max_windows=0)


class TestRingAndSpill:
    def test_ring_bounds_memory(self):
        ts = TimeSeriesCollector(window_seconds=1.0, max_windows=3)
        for hour in range(10):
            ts.inc(hour + 0.5, "x")
        assert len(ts) == 3
        assert ts.spilled == 7
        assert [w["window"] for w in ts.windows()] == [7, 8, 9]

    def test_spilled_windows_stream_to_sink(self):
        sink = io.StringIO()
        ts = TimeSeriesCollector(window_seconds=1.0, max_windows=2, spill=sink)
        for hour in range(5):
            ts.inc(hour + 0.5, "x", hour)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [line["window"] for line in lines] == [0, 1, 2]
        ts.close()
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        # close() flushes the retained remainder: the full series is on disk.
        assert [line["window"] for line in lines] == [0, 1, 2, 3, 4]

    def test_late_sample_clamps_into_oldest_retained(self):
        ts = TimeSeriesCollector(window_seconds=1.0, max_windows=2)
        ts.inc(0.5, "x")
        ts.inc(5.5, "x")
        ts.inc(6.5, "x")  # windows 5 and 6 retained now
        ts.inc(0.7, "x")  # window 0 is gone: folds into window 5
        assert ts.clamped == 1
        assert ts.counter_series("x") == [(5, 2.0), (6, 1.0)]

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "series.jsonl")
        ts = TimeSeriesCollector(window_seconds=60.0)
        ts.inc(30.0, "requests", 5)
        ts.set_gauge(90.0, "depth", 2)
        assert ts.write_jsonl(path) == 2
        windows = read_series_jsonl(path)
        assert windows[0]["counters"] == {"requests": 5.0}
        assert windows[1]["gauges"] == {"depth": 2.0}

    def test_read_series_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"window":0}\nnope\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_series_jsonl(str(path))

    def test_spill_path_owned_file(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        ts = TimeSeriesCollector(window_seconds=1.0, max_windows=1, spill=path)
        ts.inc(0.5, "x")
        ts.inc(1.5, "x")
        ts.close()
        assert [w["window"] for w in read_series_jsonl(path)] == [0, 1]


class TestDerivedSeries:
    def test_dense_counter_zero_fills_and_clamps(self):
        ts = TimeSeriesCollector(window_seconds=1.0)
        ts.inc(0.5, "x", 1)
        ts.inc(2.5, "x", 3)
        ts.inc(9.5, "x", 7)  # beyond the dense horizon: clamps into last
        assert ts.dense_counter("x", 4) == [1.0, 0.0, 3.0, 7.0]
        assert ts.dense_counter("x", 0) == []

    def test_ratio_series(self):
        ts = TimeSeriesCollector(window_seconds=1.0)
        ts.inc(0.5, "hits", 3)
        ts.inc(0.5, "requests", 4)
        ts.inc(1.5, "requests", 2)  # no hits this window
        assert ts.ratio_series("hits", "requests") == [(0, 0.75), (1, 0.0)]


class TestSimulationConsistency:
    """The acceptance check: windows agree with SimulationResult."""

    @pytest.fixture(scope="class")
    def observed_run(self):
        workload = make_trace("news", scale=0.02, seed=7)
        config = SimulationConfig(strategy="sg2", capacity_fraction=0.05, seed=7)
        observer = Observer(timeseries=TimeSeriesCollector(window_seconds=3600.0))
        result = Simulation(workload, config, observer=observer).run()
        return observer.timeseries, result

    def test_per_window_requests_match_hourly_series(self, observed_run):
        ts, result = observed_run
        hours = len(result.hourly_requests)
        assert ts.dense_counter("requests", hours) == [
            float(count) for count in result.hourly_requests
        ]

    def test_per_window_hits_match_hourly_series(self, observed_run):
        ts, result = observed_run
        hours = len(result.hourly_hits)
        assert ts.dense_counter("hits", hours) == [
            float(count) for count in result.hourly_hits
        ]

    def test_window_totals_match_run_totals(self, observed_run):
        ts, result = observed_run
        total_requests = sum(v for _, v in ts.counter_series("requests"))
        total_hits = sum(v for _, v in ts.counter_series("hits"))
        assert total_requests == result.requests
        assert total_hits == pytest.approx(result.hit_ratio * result.requests)

    def test_windowed_hit_ratio_averages_to_global(self, observed_run):
        ts, result = observed_run
        ratios = dict(ts.ratio_series("hits", "requests"))
        requests = dict(ts.counter_series("requests"))
        weighted = sum(
            ratios[window] * requests[window] for window in requests
        )
        assert weighted / result.requests == pytest.approx(result.hit_ratio)

    def test_timeseries_observer_does_not_change_results(self, observed_run):
        _, observed = observed_run
        workload = make_trace("news", scale=0.02, seed=7)
        config = SimulationConfig(strategy="sg2", capacity_fraction=0.05, seed=7)
        baseline = Simulation(workload, config).run()
        assert baseline.hit_ratio == observed.hit_ratio
        assert baseline.hourly_requests == observed.hourly_requests
        assert baseline.hourly_hits == observed.hourly_hits
        assert baseline.traffic_bytes == observed.traffic_bytes

    def test_cache_occupancy_gauge_tracks_storage(self, observed_run):
        ts, _ = observed_run
        occupancy = ts.gauge_series("cache_used_bytes")
        assert occupancy, "cache occupancy gauge never sampled"
        assert all(value >= 0 for _, value in occupancy)
