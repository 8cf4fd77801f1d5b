"""Schema test for the benchmark harness: ``python -m pytest bench -q``.

Not part of tier-1 (whose ``testpaths`` is ``tests``).  Drives
``run.py --smoke`` once — scale / 10, two repeats, ~40 s — and
checks what the harness emits, not how fast the program is.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke() -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "7", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    printed = {}
    for line in done.stdout.splitlines():
        workload, metric, value, unit = line.split()
        printed[workload, metric] = (float(value), unit)
    results = json.loads((run.OUT / "results.json").read_text())
    return {"printed": printed, "results": results}


def test_names_units_and_counts(spec):
    assert len(spec["workloads"]) == 4
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in spec[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for section in ("end_to_end", "per_layer"):
        assert all(UNIT.fullmatch(m["unit"]) for m in spec[section])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_every_metric_is_printed_and_finite(spec, smoke):
    expected = {
        (workload["name"], metric["name"]): metric["unit"]
        for workload in spec["workloads"]
        for section in ("end_to_end", "per_layer")
        for metric in spec[section]
    }
    printed = smoke["printed"]
    assert set(printed) == set(expected)
    for key, (value, unit) in printed.items():
        assert math.isfinite(value), key
        assert unit == expected[key], key
    for metric in spec["end_to_end"]:
        for workload in spec["workloads"]:
            assert printed[workload["name"], metric["name"]][0] > 0


def test_results_json_reports_every_run(smoke):
    results = smoke["results"]
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc", "seed",
                "repeats", "calib_ref_s", "started", "ended"):
        assert key in results["manifest"]
    assert set(results["workloads"]) == set(run.WORKLOADS)
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0, name
        assert re.fullmatch(r"[0-9a-f]{64}", entry["result_digest"]), name
        timed = [r for r in entry["repeats"] if r["mode"] in run.TIMED_MODES]
        assert len(timed) == entry["attempted"]
        for record in timed:
            assert record["problems"] == []
            if record["mode"] != "profile":
                assert record["wall_cal_s"] == pytest.approx(
                    record["raw_wall_s"] * run.CALIB_REF_S / record["calib_s"]
                )
        assert set(entry["end_to_end"]) == set(run.END_TO_END)
        assert set(entry["per_layer"]) == set(run.PER_LAYER)


def test_spans_are_well_nested_with_one_root_per_repeat():
    for name in run.WORKLOADS:
        document = json.loads((run.OUT / f"trace-{name}.json").read_text())
        by_repeat = {}
        for span in document["spans"]:
            assert span["workload"] == name
            by_repeat.setdefault(span["repeat"], {})[span["id"]] = span
        assert by_repeat, name
        for spans in by_repeat.values():
            assert sum(span["parent"] is None for span in spans.values()) == 1
            for span in spans.values():
                assert span["start"] <= span["end"]
                if span["parent"] is not None:
                    parent = spans[span["parent"]]
                    assert parent["start"] <= span["start"]
                    assert span["end"] <= parent["end"]
        if name != "cli-small":
            assert document["profile"]["total_self_s"] > 0


def test_compare_verdicts():
    steady = {"value": 1.0, "q1": 0.99, "q3": 1.01, "values": [0.99, 1.0, 1.01]}
    slower = {"value": 1.2, "q1": 1.19, "q3": 1.21, "values": [1.19, 1.2, 1.21]}
    noisy = {"value": 1.05, "q1": 0.9, "q3": 1.2, "values": [0.9, 1.05, 1.2]}
    assert compare.verdict(steady, steady, 0.10) == "ok"
    assert compare.verdict(steady, slower, 0.10) == "worse"
    assert compare.verdict(slower, steady, 0.10) == "ok"
    assert compare.verdict(steady, noisy, 0.10) == "unresolved"
    # "5 % or 2 MiB": below the floor a 20 % difference is not a regression.
    assert compare.verdict(steady, slower, 0.05, floor=2.0) == "ok"
    # The driver's 25 % ceiling in BENCHMARK.json is not the regression
    # bound: 20 % slower on one seed is worse.
    assert compare.verdict(steady, slower, *compare.BOUNDS["wall_cal_s"]) == "worse"


def test_compare_accepts_a_run_against_itself(smoke):
    path = str(run.OUT / "results.json")
    assert compare.main(["compare.py", path, path]) == 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
