"""Tests for the command-line interface."""

import os
import re

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_run_command(capsys):
    code = main(
        [
            "run",
            "--strategy",
            "sg2",
            "--trace",
            "news",
            "--scale",
            "0.03",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sg2" in out and "news" in out and "H=" in out


def test_run_command_sharded_streaming_matches_default(capsys, monkeypatch):
    """`run --streaming` of a cell sharded across two processes prints
    the same summary line as the plain one-process run (bit-identical
    metrics)."""
    from repro.experiments import runner

    argv = ["run", "--scale", "0.03", "--seed", "3", "--no-artifact-cache"]
    monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "MIN_SHARD_REQUESTS", 1)
    assert main(argv + ["--streaming"]) == 0
    assert capsys.readouterr().out == plain


def test_trace_stats_command(capsys):
    code = main(["trace-stats", "--trace", "news", "--scale", "0.03", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "distinct pages" in out
    assert "requests" in out


def test_figure_command_rejects_unknown(capsys):
    code = main(["figure", "99", "--scale", "0.03"])
    assert code == 2


def test_table_command_rejects_unknown(capsys):
    code = main(["table", "1", "--scale", "0.03"])
    assert code == 2


def test_table2_command(capsys):
    code = main(["table", "2", "--scale", "0.03", "--seed", "3"])
    assert code == 0
    assert "Table 2" in capsys.readouterr().out


def test_figure3_command(capsys):
    code = main(["figure", "3", "--scale", "0.03", "--seed", "3"])
    assert code == 0
    assert "Figure 3" in capsys.readouterr().out


def test_run_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        main(["run", "--strategy", "bogus"])


def test_calibrate_beta_command(capsys):
    code = main(
        ["calibrate-beta", "--trace", "news", "--scale", "0.03", "--seed", "3",
         "--prefix", "0.3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best beta" in out
    assert "gdstar" in out and "sg2" in out


def test_generate_trace_command(tmp_path, capsys):
    target = tmp_path / "trace.json"
    code = main(
        ["generate-trace", "--trace", "news", "--scale", "0.02", "--seed", "3",
         "--output", str(target)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    from repro.workload.trace import Workload

    restored = Workload.from_json(target.read_text())
    assert restored.request_count > 0


def test_trace_stats_validate_flag(capsys):
    code = main(
        ["trace-stats", "--trace", "news", "--scale", "0.2", "--seed", "9",
         "--validate"]
    )
    assert code == 0
    assert "workload validation: PASS" in capsys.readouterr().out


def test_figure_svg_output(tmp_path, capsys):
    code = main(
        ["figure", "3", "--scale", "0.03", "--seed", "3", "--svg", str(tmp_path)]
    )
    assert code == 0
    svg_file = tmp_path / "figure3.svg"
    assert svg_file.exists()
    import xml.dom.minidom

    xml.dom.minidom.parse(str(svg_file))


def test_seed_sweep_command(capsys):
    code = main(
        ["seed-sweep", "--strategy", "sg2", "--seeds", "2", "--scale", "0.03"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sg2 vs gdstar" in out


def test_sweep_beta_command(capsys):
    code = main(["sweep-beta", "--trace", "news", "--scale", "0.03", "--seed", "3"])
    assert code == 0
    assert "β sweep" in capsys.readouterr().out


def test_report_command(tmp_path, capsys):
    code = main(
        ["report", "--scale", "0.03", "--seed", "3", "--output", str(tmp_path)]
    )
    assert code == 0
    report = tmp_path / "REPORT.md"
    assert report.exists()
    text = report.read_text()
    assert "Reproduction report" in text
    assert "figure4a" in text and "table2" in text and "beta_sweep" in text
    svgs = list(tmp_path.glob("*.svg"))
    assert len(svgs) >= 9  # fig3 + 4a/4b + 5a/5b + 6a/6b + 7a/7b


def test_chaos_command(capsys):
    code = main(
        [
            "chaos",
            "--strategies",
            "gdstar,sub",
            "--scale",
            "0.03",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "resilience by strategy" in out
    assert "avail %" in out
    assert "gdstar" in out and "sub" in out
    assert "Hourly availability" in out


def test_chaos_rejects_unknown_strategy(capsys):
    code = main(["chaos", "--strategies", "gdstar,nope", "--scale", "0.03"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown strategy: nope" in err
    assert "valid strategies:" in err and "gdstar" in err


def test_chaos_rejects_empty_strategy_list(capsys):
    code = main(["chaos", "--strategies", ",", "--scale", "0.03"])
    assert code == 2
    assert "no strategies" in capsys.readouterr().err


def test_chaos_warns_when_spec_describes_no_faults(capsys):
    code = main(
        [
            "chaos",
            "--strategies", "gdstar",
            "--scale", "0.03",
            "--proxy-mtbf", "0",
            "--publisher-mtbf", "0",
            "--degraded-mtbf", "0",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "describes no faults" in captured.err
    assert "resilience by strategy" in captured.out


def test_chaos_delivery_faults_silence_the_warning(capsys):
    code = main(
        [
            "chaos",
            "--strategies", "sub",
            "--scale", "0.03",
            "--proxy-mtbf", "0",
            "--publisher-mtbf", "0",
            "--degraded-mtbf", "0",
            "--delivery-loss", "0.2",
            "--delivery-retries", "1",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "describes no faults" not in captured.err
    # The delivery columns join the resilience table.
    assert "lost" in captured.out and "repairs" in captured.out


def test_chaos_delivery_flags_build_the_spec():
    from repro.cli import _spec_from_flags
    from repro.experiments.chaos import DEFAULT_CHAOS

    args = build_parser().parse_args(
        [
            "chaos",
            "--delivery-loss", "0.1",
            "--delivery-dup", "0.05",
            "--delivery-reorder", "7.5",
            "--broker-mtbf", "43200",
            "--broker-mttr", "900",
            "--broker-count", "3",
            "--delivery-retries", "2",
            "--delivery-ack-timeout", "0.5",
            "--no-repair",
        ]
    )
    spec = _spec_from_flags(args, "chaos", DEFAULT_CHAOS)
    assert spec.delivery_loss_probability == 0.1
    assert spec.delivery_duplicate_probability == 0.05
    assert spec.delivery_reorder_delay == 7.5
    assert spec.broker_mtbf == 43200.0
    assert spec.broker_mttr == 900.0
    assert spec.broker_count == 3
    assert spec.delivery_retry_limit == 2
    assert spec.delivery_ack_timeout == 0.5
    assert spec.delivery_repair is False
    assert spec.delivery_faulty
    # Unspecified knobs ride the base spec.
    assert spec.proxy_mtbf == DEFAULT_CHAOS.proxy_mtbf


def test_chaos_flags_default_to_base_spec():
    from repro.cli import _spec_from_flags
    from repro.experiments.chaos import DEFAULT_CHAOS

    args = build_parser().parse_args(["chaos"])
    spec = _spec_from_flags(args, "chaos", DEFAULT_CHAOS)
    assert spec == DEFAULT_CHAOS


def test_chaos_flags_keep_the_base_specs_unflagged_fields():
    """One ChaosSpec field has no flag, ``degraded_latency_multiplier``:
    ``DEFAULT_CHAOS`` sets it.  A base spec's value survives with and
    without flags laid over it."""
    import dataclasses

    from repro.cli import _LAYER_FLAGS, _spec_from_flags
    from repro.experiments.chaos import DEFAULT_CHAOS
    from repro.faults.spec import ChaosSpec

    flagged = {row.field for row in _LAYER_FLAGS["chaos"][1]}
    names = [field.name for field in dataclasses.fields(ChaosSpec)]
    assert [name for name in names if name not in flagged] == [
        "degraded_latency_multiplier"
    ]
    base = dataclasses.replace(DEFAULT_CHAOS, degraded_latency_multiplier=7.0)
    args = build_parser().parse_args(["chaos"])
    assert _spec_from_flags(args, "chaos", base) == base
    args = build_parser().parse_args(
        ["chaos", "--degraded-mtbf", "3600", "--delivery-loss", "0.1", "--no-repair"]
    )
    assert _spec_from_flags(args, "chaos", base) == dataclasses.replace(
        base, degraded_mtbf=3600.0, delivery_loss_probability=0.1, delivery_repair=False
    )


def test_chaos_rejects_invalid_delivery_parameter(capsys):
    code = main(
        ["chaos", "--strategies", "gdstar", "--scale", "0.03",
         "--delivery-loss", "1.5"]
    )
    assert code == 2
    assert "invalid chaos parameter" in capsys.readouterr().err


def test_seed_sweep_rejects_unknown_strategy(capsys):
    code = main(["seed-sweep", "--strategy", "bogus", "--scale", "0.03"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown strategy: bogus" in err
    assert "valid strategies:" in err


def test_seed_sweep_rejects_unknown_baseline(capsys):
    code = main(
        ["seed-sweep", "--strategy", "sg2", "--baseline", "wat", "--scale", "0.03"]
    )
    assert code == 2
    assert "unknown strategy: wat" in capsys.readouterr().err


def test_run_with_observability_flags(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.prom"
    code = main(
        [
            "run",
            "--strategy", "sg2",
            "--scale", "0.03",
            "--seed", "3",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
            "--profile",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "H=" in out
    # The --profile table: self time and calls per repro package.
    assert "package" in out and "\ncore " in out and "\nsystem " in out
    metrics_text = metrics.read_text()
    assert "# TYPE repro_requests_total counter" in metrics_text
    assert "repro_request_latency_seconds_bucket" in metrics_text
    from repro.obs import read_jsonl

    events = read_jsonl(str(trace))
    assert events[0]["type"] == "run_start"
    assert events[-1]["type"] == "run_end"
    assert any(event["type"] == "publish" for event in events)


def test_run_without_observability_flags_writes_nothing(tmp_path, capsys):
    code = main(["run", "--strategy", "sg2", "--scale", "0.03", "--seed", "3"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_chaos_with_observability_flags(tmp_path, capsys):
    trace = tmp_path / "chaos.jsonl"
    metrics = tmp_path / "chaos.prom"
    code = main(
        [
            "chaos",
            "--strategies", "gdstar,sub",
            "--scale", "0.03",
            "--seed", "2",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        ]
    )
    assert code == 0
    from repro.obs import read_jsonl

    events = read_jsonl(str(trace))
    strategies = {event.get("strategy") for event in events} - {None}
    assert strategies == {"gdstar", "sub"}
    assert "repro_proxy_crashes_total" in metrics.read_text()


def test_inspect_command(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    main(
        [
            "run",
            "--strategy", "sub",
            "--scale", "0.03",
            "--seed", "3",
            "--trace-out", str(trace),
        ]
    )
    capsys.readouterr()
    code = main(["inspect", str(trace), "--top", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "events by type:" in out
    assert "strategy : sub" in out

    from repro.obs import read_jsonl

    first_page = next(
        event["page"] for event in read_jsonl(str(trace)) if "page" in event
    )
    code = main(["inspect", str(trace), "--page", str(first_page)])
    assert code == 0
    assert f"page {first_page}:" in capsys.readouterr().out


def test_inspect_missing_file(tmp_path, capsys):
    code = main(["inspect", str(tmp_path / "nope.jsonl")])
    assert code == 2
    assert "no such trace file" in capsys.readouterr().err


def test_inspect_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    code = main(["inspect", str(bad)])
    assert code == 2
    assert "malformed trace file" in capsys.readouterr().err


def test_verbose_flag_logs_progress(capsys):
    code = main(
        ["run", "--strategy", "sg2", "--scale", "0.03", "--seed", "3", "-v"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "repro.experiments.runner" in captured.err
    # Reset so later tests are not noisy.
    from repro.obs import setup_cli_logging

    setup_cli_logging(0)


def test_run_with_churn_flags(capsys):
    code = main(
        [
            "run", "--strategy", "dc-lap", "--trace", "news",
            "--scale", "0.03", "--seed", "3",
            "--churn-rate", "2", "--lease-duration", "7200",
            "--confirm-loss", "0.2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "leases=" in out and "repolls=" in out


def test_run_without_churn_flags_has_no_lease_segment(capsys):
    code = main(
        ["run", "--strategy", "dc-lap", "--scale", "0.03", "--seed", "3"]
    )
    assert code == 0
    assert "leases=" not in capsys.readouterr().out


def test_run_rejects_invalid_churn_parameter(capsys):
    code = main(
        ["run", "--strategy", "sg2", "--scale", "0.03", "--churn-rate", "-1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid churn parameter" in err
    assert "churn_rate" in err


def test_run_rejects_out_of_range_confirm_loss(capsys):
    code = main(
        ["run", "--strategy", "sg2", "--scale", "0.03", "--confirm-loss", "1.5"]
    )
    assert code == 2
    assert "confirmation_loss_probability" in capsys.readouterr().err


def test_run_with_series_and_monitor_outputs(tmp_path, capsys):
    series = tmp_path / "series.jsonl"
    beats = tmp_path / "beats.jsonl"
    code = main(
        [
            "run",
            "--strategy", "sg2",
            "--scale", "0.03",
            "--seed", "3",
            "--series-out", str(series),
            "--monitor-out", str(beats),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {series}" in out
    assert f"wrote {beats}" in out

    from repro.obs import read_series_jsonl

    windows = read_series_jsonl(str(series))
    assert windows, "series file is empty"
    assert sum(w["counters"].get("requests", 0) for w in windows) > 0

    import json as _json

    heartbeats = [_json.loads(line) for line in open(beats)]
    assert heartbeats[-1]["final"] is True
    assert heartbeats[-1]["events"] > 0


def test_run_monitor_flag_emits_stderr_heartbeats(capsys):
    code = main(
        [
            "run",
            "--strategy", "sub",
            "--scale", "0.03",
            "--seed", "3",
            "--monitor", "0.001",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    # The final heartbeat always lands, whatever the wall-clock pace.
    assert "[monitor run]" in err
    assert "events=" in err


def test_run_monitor_does_not_change_printed_result(capsys):
    args = ["run", "--strategy", "sub", "--scale", "0.03", "--seed", "3"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--monitor", "1e9"]) == 0
    monitored = capsys.readouterr().out
    assert plain == monitored


def test_inspect_json_summary(tmp_path, capsys):
    import json as _json

    trace = tmp_path / "trace.jsonl"
    main(
        [
            "run",
            "--strategy", "sub",
            "--scale", "0.03",
            "--seed", "3",
            "--trace-out", str(trace),
        ]
    )
    capsys.readouterr()
    assert main(["inspect", str(trace), "--json", "--top", "2"]) == 0
    payload = _json.loads(capsys.readouterr().out)
    assert payload["event_count"] > 0
    assert payload["counts_by_type"].get("request", 0) > 0
    assert len(payload["top_pages_by_churn"]) <= 2

    first_page = payload["top_pages_by_churn"][0]["page"]
    assert main(["inspect", str(trace), "--json", "--page", str(first_page)]) == 0
    history = _json.loads(capsys.readouterr().out)
    assert isinstance(history, list)
    assert all(event["page"] == first_page for event in history)


def test_run_with_overload_flags(capsys):
    code = main(
        [
            "run", "--strategy", "gdstar", "--trace", "news",
            "--scale", "0.03", "--seed", "3",
            "--service-rate", "0.005", "--queue-capacity", "3",
            "--origin-capacity", "0.002", "--origin-burst", "2",
            "--retry-budget", "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "queue~" in out and "origin_rej=" in out and "breaker=" in out


def test_run_without_overload_flags_has_no_queue_segment(capsys):
    code = main(
        ["run", "--strategy", "gdstar", "--scale", "0.03", "--seed", "3"]
    )
    assert code == 0
    assert "queue~" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag,value,needle",
    [
        ("--service-rate", "0", "service rate must be > 0"),
        ("--service-rate", "-1", "service rate must be > 0"),
        ("--queue-capacity", "0", "queue_capacity must be >= 1"),
        ("--push-shed-fraction", "1.5", "push_shed_fraction"),
        ("--origin-capacity", "-0.5", "origin capacity must be > 0"),
        ("--origin-burst", "0", "origin_burst must be >= 1"),
        ("--breaker-threshold", "0", "breaker_threshold must be >= 1"),
        ("--breaker-cooldown", "-1", "breaker_cooldown"),
        ("--breaker-jitter", "1.0", "breaker_jitter must be in [0, 1)"),
        ("--retry-budget", "-3", "retry budget must be > 0"),
        ("--retry-budget-rate", "-1", "retry_budget_rate"),
        ("--retry-jitter", "2", "retry_jitter must be in [0, 1)"),
    ],
)
def test_run_rejects_invalid_overload_parameter(capsys, flag, value, needle):
    code = main(["run", "--strategy", "sg2", "--scale", "0.03", flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid overload parameter" in err
    assert needle in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["run", "--scale", "0.03", "--capacity", "-1"], "capacity must be in"),
        (["run", "--scale", "0.03", "--capacity", "0"], "capacity must be in"),
        (["run", "--scale", "0.03", "--sq", "2"], "sq must be in"),
        (["run", "--scale", "-0.5"], "scale must be > 0"),
        (["run", "--scale", "0.03", "--sq", "0"], "sq must be in"),
        (["run", "--scale", "0"], "scale must be > 0"),
        (
            ["chaos", "--scale", "0.03", "--capacity", "1.5"],
            "capacity must be in",
        ),
    ],
)
def test_bad_numeric_flags_fail_with_one_line(capsys, argv, needle):
    """Out-of-range numeric flags produce a clean one-line error (exit
    code 2), never a traceback from deep inside the pipeline."""
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (
            ["run", "--scale", "0.03", "--lease-duration", "nan"],
            "invalid churn parameter: lease_duration must be positive seconds, got nan",
        ),
        (
            ["chaos", "--scale", "0.03", "--delivery-loss", "0.1",
             "--delivery-ack-timeout", "nan"],
            "invalid chaos parameter: delivery_ack_timeout must be >= 0, got nan",
        ),
        (
            ["run", "--scale", "0.03", "--service-rate", "nan"],
            "invalid overload parameter: service rate must be > 0, got nan",
        ),
        (["run", "--scale", "nan"], "invalid run parameter: scale must be > 0, got nan"),
        *(
            (["run", "--scale", "0.03", "--beta", beta],
             f"invalid run parameter: beta must be finite and > 0, got {float(beta)}")
            for beta in ("nan", "inf", "0", "-1")
        ),
        *(
            ([*command.split(), "--scale", scale],
             f"invalid {command.split()[0]} parameter: scale must be > 0, got {float(scale)}")
            for command in ("figure 4", "table 2", "sweep-beta", "trace-stats",
                            "calibrate-beta", "report", "seed-sweep", "generate-trace")
            for scale in ("0", "nan")
        ),
        *(
            (["seed-sweep", "--scale", "0.03", "--seeds", seeds],
             f"invalid seed-sweep parameter: seeds must be >= 1, got {seeds}")
            for seeds in ("0", "-3")
        ),
        (
            ["generate-trace", "--scale", "0.03", "--output", "/nonexistent/dir/x.json"],
            "cannot write --output /nonexistent/dir/x.json: no such directory: /nonexistent/dir",
        ),
        *(
            ([command, "--scale", "0.01", flag, value],
             f"invalid {command} parameter: {flag[2:]} must be > 0 seconds, got {float(value)}")
            for command in ("run", "chaos")
            for flag, values in (("--monitor", ("0", "-1", "nan")),
                                 ("--series-window", ("0", "-5", "nan")))
            for value in values
        ),
    ],
)
def test_nan_flags_fail_with_one_line(capsys, argv, needle):
    """A NaN fails every range check, rather than passing every ``x < 0``
    and running with the value (or the layer) silently wrong; so does
    every other bad shared flag, on every command that takes it, before
    anything is generated or written."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == needle + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "chaos"])
@pytest.mark.parametrize(
    "flag", ["--trace-out", "--metrics-out", "--series-out", "--monitor-out"]
)
def test_unwritable_output_path_fails_before_the_run(
    tmp_path, capsys, monkeypatch, command, flag
):
    """A bad output path costs one line and exit code 2 — not a
    traceback from a sink constructor, and not a whole simulation
    followed by a FileNotFoundError."""

    def generated_too_early(*args, **kwargs):
        raise AssertionError("a trace was generated before the paths were checked")

    monkeypatch.setattr("repro.workload.presets.generate_workload", generated_too_early)
    path = tmp_path / "missing" / "out.file"
    code = main([command, "--scale", "0.03", "--seed", "987", flag, str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        f"cannot write {flag} {path}: no such directory: {path.parent}\n"
    )
    assert not path.parent.exists()


def _spool_fails_to_appear(monkeypatch):
    def no_temp_directory(*args, **kwargs):
        raise PermissionError(13, "Permission denied", "/read-only/tmp")

    monkeypatch.setattr("tempfile.mkdtemp", no_temp_directory)
    return r"cannot spill trace: \[Errno 13\] Permission denied: '/read-only/tmp'\n"


def _spool_file_is_cut_short(monkeypatch):
    """Halve each spool file between the last write and the size check."""
    from repro.workload import streaming

    map_rows = streaming._map_rows

    def cut_then_map(path, dtype, count):
        os.truncate(path, os.path.getsize(path) // 2)
        return map_rows(path, dtype, count)

    monkeypatch.setattr(streaming, "_map_rows", cut_then_map)
    return (
        r"cannot spill trace: truncated spool \S+PublishRecord\.bin: "
        r"wanted \d+ rows \(\d+ bytes\), got \d+ bytes\n"
    )


@pytest.mark.parametrize("failure", [_spool_fails_to_appear, _spool_file_is_cut_short])
def test_run_streaming_with_an_unusable_spool_exits_2(capsys, monkeypatch, failure):
    """A spool that cannot be created, or comes back short, costs one
    line and exit code 2 — before any row is read, not a traceback."""
    expected = failure(monkeypatch)
    code = main(["run", "--scale", "0.03", "--seed", "986", "--streaming"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(expected, captured.err), captured.err


def test_version_flag_prints_the_package_version(capsys):
    import repro

    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == f"repro-pubsub {repro.__version__}\n"


def test_package_version_matches_pyproject():
    import os
    import re

    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as handle:
        declared = re.search(r'^version\s*=\s*"([^"]+)"', handle.read(), re.M)
    assert declared is not None
    assert repro.__version__ == declared.group(1)


def parser_surface():
    """``{subcommand: [one row per argparse action]}`` for the whole CLI.

    A row is ``(option_strings, dest, type name, default, metavar, help,
    nargs, const, choices)`` — the structure argparse was given, not
    ``--help`` bytes, whose wrapping differs between Python versions.
    """
    import argparse

    def rows(parser):
        return [
            [
                list(action.option_strings),
                action.dest,
                getattr(action.type, "__name__", None),
                action.default,
                action.metavar,
                action.help,
                action.nargs,
                action.const,
                sorted(action.choices) if action.choices is not None else None,
            ]
            for action in parser._actions
            if not isinstance(action, argparse._SubParsersAction)
        ]

    parser = build_parser()
    surface = {"": rows(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            surface.update({name: rows(sub) for name, sub in action.choices.items()})
    return surface


#: ``subcommand: (actions, SHA-256 of the JSON of its rows)``, recorded at
#: commit 66e0c28 (the parent of PR 19), from unmodified source, before
#: the layer flag families were generated from a table; ``run`` re-pinned
#: when ``--profile`` became cProfile per package (its help string, the
#: only row that moved), and again when ``--workers`` left (its row gone,
#: and ``--profile``'s help now naming the shard it covers), and again
#: when the profile came to sum every shard process (that help string).
#: Regenerate with
#: ``PYTHONPATH=src python -m tests.test_cli`` after an intended change.
PARSER_SURFACE = {
    "": (2, "248e6226eeeacee0f143aece2383acd593b1e49ac28d03e6228b5193c09dde00"),
    "run": (36, "7be03bce5c0f32b6115ff627d41a461b6d5cec6e4d730209bc5ef162a2a74f54"),
    "figure": (8, "d50d2caa6c833481d9bfb758943ab9b06e7a99e512694516bbd5cc6f9fc02bdf"),
    "table": (7, "bb9f5ada394a86acc26dac41708c314ca2db22be1c2376be082a9787ba8dff99"),
    "sweep-beta": (7, "d9176865c10fd283fd2ade1b0afab3ee64e263ad6547b674837c69c8e42d210b"),
    "trace-stats": (8, "a50598a474a5b951f8fc49ab1ac00c701964f8f0a38b5566146bfb46a7d81e74"),
    "calibrate-beta": (9, "804a7247b85cce942170daa9a9bcdf5051fcf02270a5a10c6ea3926a04460ecf"),
    "report": (7, "3a727c3da1e07b7fe1021ce9b581725003253e76ee5d2e8bd6b2a274ab50e703"),
    "seed-sweep": (11, "faeebceabc58572ca3dd28e541fd67ed1705c0f53908c14928679bb103f36693"),
    "chaos": (32, "f3d62e9680302d8b237ae301e38cbf5029313c543c6e8b46c34aa8a3f414ae74"),
    "inspect": (6, "182e0cf5cddc1e0caade14ba88270f383be10147224e49bd9d46eb77072e7d12"),
    "explain": (7, "f3ee7e6cfbfdc8ca6ffc81d9e678abace81d9e3d39b8fea154e0acd873d06db7"),
    "generate-trace": (8, "68283cba37973faa2c7b3252795614f7b72e3d2b94f9fc54b258e13233d917a8"),
}


def _surface_digests():
    import hashlib
    import json

    return {
        name: (len(rows), hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest())
        for name, rows in parser_surface().items()
    }


def test_parser_surface_is_pinned():
    """Every flag name, dest, type, default, metavar, help string, nargs,
    const and choice list of every subcommand is what it was."""
    surface = _surface_digests()
    assert sorted(surface) == sorted(PARSER_SURFACE)
    changed = [name for name in surface if surface[name] != PARSER_SURFACE[name]]
    assert not changed, {name: parser_surface()[name] for name in changed}
    assert sum(count for count, _ in surface.values()) == 148


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("PARSER_SURFACE = {")
    for command, (count, digest) in _surface_digests().items():
        print(f'    "{command}": ({count}, "{digest}"),')
    print("}")
