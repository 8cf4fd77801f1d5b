"""Benchmark-history tracking: extraction, recording, regression gate.

The acceptance check lives in TestRegressionGate: an injected 20%
slowdown between two recorded runs must fail ``bench_history.py check``
(exit 1), while run-to-run noise under the threshold must pass.
"""

import json

import pytest

from repro.obs.benchtrack import (
    Regression,
    append_entry,
    check_regressions,
    extract_metrics,
    git_sha,
    load_history,
    make_entry,
    record_file,
)


def _perf_payload(events_per_sec=50_000.0, speedup=1.89):
    """A BENCH_perf.json-shaped payload."""
    return {
        "benchmark": "replay_perf",
        "replay": {
            "fast": {
                "events_per_sec": events_per_sec,
                "seconds_per_run": 0.5,
                "all_seconds": [0.5, 0.6],
            },
            "dispatch": {"events_per_sec": events_per_sec / 1.89},
        },
        "grid_cache": {"warm_speedup": speedup, "warm_seconds": 0.04},
    }


def _churn_payload(hit_ratio=0.62):
    """A BENCH_churn.json-shaped payload."""
    return {
        "benchmark": "lease_churn",
        "strategies": {
            "sg2": {
                "baseline": {"hit_ratio": hit_ratio, "requests": 1000},
                "churn": {"hit_ratio": hit_ratio - 0.05},
            }
        },
    }


class TestExtraction:
    def test_extracts_dotted_higher_is_better_metrics(self):
        metrics = extract_metrics(_perf_payload())
        assert metrics["replay.fast.events_per_sec"] == 50_000.0
        assert metrics["replay.dispatch.events_per_sec"] == pytest.approx(
            50_000.0 / 1.89
        )
        assert metrics["grid_cache.warm_speedup"] == 1.89
        # Lower-is-better and raw-sample keys are not tracked.
        assert "replay.fast.seconds_per_run" not in metrics
        assert not any("all_seconds" in key for key in metrics)

    def test_extracts_nested_strategy_hit_ratios(self):
        metrics = extract_metrics(_churn_payload())
        assert metrics["strategies.sg2.baseline.hit_ratio"] == 0.62
        assert metrics["strategies.sg2.churn.hit_ratio"] == pytest.approx(0.57)
        assert "strategies.sg2.baseline.requests" not in metrics

    def test_booleans_are_not_metrics(self):
        assert extract_metrics({"hit_ratio_ok": True}) == {}

    def test_lists_are_walked_with_indices(self):
        metrics = extract_metrics({"runs": [{"hit_ratio": 0.5}, {"hit_ratio": 0.6}]})
        assert metrics == {"runs[0].hit_ratio": 0.5, "runs[1].hit_ratio": 0.6}


class TestHistoryFile:
    def test_append_and_load_round_trip(self, tmp_path):
        history = str(tmp_path / "h.jsonl")
        append_entry(history, _perf_payload(), sha="aaa1111", timestamp=1.0)
        append_entry(history, _churn_payload(), sha="bbb2222", timestamp=2.0)
        entries = load_history(history)
        assert [entry["benchmark"] for entry in entries] == [
            "replay_perf",
            "lease_churn",
        ]
        assert entries[0]["sha"] == "aaa1111"
        assert entries[0]["recorded_at"] == 1.0
        assert entries[0]["metrics"]["grid_cache.warm_speedup"] == 1.89

    def test_load_missing_history_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_load_reports_bad_line(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"benchmark":"x","metrics":{}}\n{broken\n')
        with pytest.raises(ValueError, match="h.jsonl:2"):
            load_history(str(path))

    def test_record_file_reads_payload_from_disk(self, tmp_path):
        bench = tmp_path / "BENCH_perf.json"
        bench.write_text(json.dumps(_perf_payload()))
        history = str(tmp_path / "h.jsonl")
        entry = record_file(str(bench), history_path=history, sha="cafe123")
        assert entry["source"] == "BENCH_perf.json"
        assert load_history(history)[0]["sha"] == "cafe123"

    def test_unnamed_payload_falls_back_to_source(self, tmp_path):
        entry = make_entry({"hit_ratio": 0.5}, source="BENCH_x.json", sha="s")
        assert entry["benchmark"] == "BENCH_x.json"

    def test_git_sha_in_repo(self):
        assert git_sha(cwd="/root/repo") != "unknown"
        assert git_sha(cwd="/tmp") == "unknown"


class TestRegressionGate:
    def test_injected_20_percent_slowdown_is_flagged(self):
        entries = [
            make_entry(_perf_payload(events_per_sec=50_000.0), sha="old1", timestamp=1.0),
            make_entry(_perf_payload(events_per_sec=40_000.0), sha="new1", timestamp=2.0),
        ]
        regressions = check_regressions(entries, threshold=0.10)
        metrics = {r.metric for r in regressions}
        assert "replay.fast.events_per_sec" in metrics
        flagged = next(r for r in regressions if r.metric == "replay.fast.events_per_sec")
        assert flagged.drop == pytest.approx(0.20)
        assert flagged.previous_sha == "old1"
        assert flagged.current_sha == "new1"
        assert "dropped 20.0%" in flagged.describe()

    def test_small_noise_is_not_flagged(self):
        entries = [
            make_entry(_perf_payload(events_per_sec=50_000.0), sha="a", timestamp=1.0),
            make_entry(_perf_payload(events_per_sec=47_500.0), sha="b", timestamp=2.0),
        ]
        assert check_regressions(entries, threshold=0.10) == []

    def test_improvements_are_not_flagged(self):
        entries = [
            make_entry(_perf_payload(events_per_sec=50_000.0), timestamp=1.0, sha="a"),
            make_entry(_perf_payload(events_per_sec=80_000.0), timestamp=2.0, sha="b"),
        ]
        assert check_regressions(entries, threshold=0.10) == []

    def test_benchmarks_compared_independently(self):
        entries = [
            make_entry(_perf_payload(events_per_sec=50_000.0), sha="a", timestamp=1.0),
            make_entry(_churn_payload(hit_ratio=0.30), sha="a", timestamp=1.0),
            make_entry(_perf_payload(events_per_sec=50_000.0), sha="b", timestamp=2.0),
            make_entry(_churn_payload(hit_ratio=0.62), sha="b", timestamp=2.0),
        ]
        # perf flat, churn improved: nothing regresses even though the
        # churn hit ratio differs wildly from perf's numbers.
        assert check_regressions(entries, threshold=0.10) == []

    def test_single_run_has_no_baseline(self):
        entries = [make_entry(_perf_payload(), sha="a", timestamp=1.0)]
        assert check_regressions(entries) == []

    def test_new_metric_columns_are_ignored(self):
        old = make_entry(_perf_payload(), sha="a", timestamp=1.0)
        new = make_entry(_perf_payload(), sha="b", timestamp=2.0)
        new["metrics"]["brand.new.hit_ratio"] = 0.01
        assert check_regressions([old, new]) == []

    def test_regression_describe_is_stable(self):
        regression = Regression(
            benchmark="replay_perf",
            metric="speedup",
            previous=2.0,
            current=1.0,
            drop=0.5,
            previous_sha="aaa",
            current_sha="bbb",
        )
        assert regression.describe() == (
            "replay_perf: speedup dropped 50.0% (2 @ aaa -> 1 @ bbb)"
        )


class TestCli:
    def _write_bench(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_record_then_clean_check(self, tmp_path, capsys):
        from benchmarks.bench_history import main

        history = str(tmp_path / "h.jsonl")
        bench = self._write_bench(tmp_path, "BENCH_perf.json", _perf_payload())
        assert main(["record", bench, "--history", history, "--sha", "abc"]) == 0
        assert "recorded replay_perf @ abc" in capsys.readouterr().out
        assert main(["check", "--history", history]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_fails_on_injected_slowdown(self, tmp_path, capsys):
        from benchmarks.bench_history import main

        history = str(tmp_path / "h.jsonl")
        fast = self._write_bench(
            tmp_path, "fast.json", _perf_payload(events_per_sec=50_000.0)
        )
        slow = self._write_bench(
            tmp_path, "slow.json", _perf_payload(events_per_sec=40_000.0)
        )
        assert main(["record", fast, "--history", history, "--sha", "a"]) == 0
        assert main(["record", slow, "--history", history, "--sha", "b"]) == 0
        capsys.readouterr()
        assert main(["check", "--history", history]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_with_no_history_passes(self, tmp_path, capsys):
        from benchmarks.bench_history import main

        assert main(["check", "--history", str(tmp_path / "none.jsonl")]) == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_real_bench_artifacts_record_cleanly(self, tmp_path):
        """The committed BENCH_*.json files all yield tracked metrics."""
        import glob

        history = str(tmp_path / "h.jsonl")
        for path in sorted(glob.glob("/root/repo/BENCH_*.json")):
            entry = record_file(path, history_path=history, sha="test")
            assert entry["metrics"], f"{path} produced no tracked metrics"
