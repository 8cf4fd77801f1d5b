"""Pinned reports of two traces: validation, β-calibration prefix, stats.

Everything here reads the whole request stream — the servers-per-page
spread and lease coverage of ``validate_workload``, the time cut of
``trace_prefix``, the pair count and capacities of ``trace-stats`` — so
a change to how the trace is stored or scanned must leave it alone.
The values were recorded from the record-list form of the trace (the
commit before the columnar one), unmodified.
"""

import pytest

from repro.cli import main
from repro.experiments.calibrate import trace_prefix
from repro.sim.rng import RandomStreams
from repro.workload.churn import ChurnSpec
from repro.workload.presets import make_trace
from repro.workload.validate import validate_workload

PINNED = {
    "news@0.05/seed13": {
        "trace": ("news", 0.05, 13),
        "checks": {
            "publish volume (pages)": 1373.0,
            "modification events with interval <1h": 0.09319664492078285,
            "modification events with interval >1d": 0.04100652376514446,
            "median page size / e^mu": 0.9533146480445992,
            "top-1% request share (alpha=1.5)": 0.616,
            "server spread ratio (head/tail pages)": 4.833333333333333,
            "median request age from version (h)": 0.3544379411680145,
        },
        "prefix": (138, 526),
        "stats": (
            "trace          : news\n"
            "distinct pages : 300\n"
            "publish events : 1373\n"
            "requests       : 9750\n"
            "(page,server)  : 277 pairs\n"
            "servers        : 5\n"
            "unique bytes/server (mean): 1.62 MB\n"
            "capacity @  1% (mean):     16.2 KB\n"
            "capacity @  5% (mean):     80.8 KB\n"
            "capacity @ 10% (mean):    161.5 KB\n"
        ),
    },
    "alternative@0.1/seed11": {
        "trace": ("alternative", 0.1, 11),
        "checks": {
            "publish volume (pages)": 2584.0,
            "modification events with interval <1h": 0.027721774193548387,
            "modification events with interval >1d": 0.03881048387096774,
            "median page size / e^mu": 1.0217971660171843,
            "top-1% request share (alpha=1)": 0.3555384615384615,
            "server spread ratio (head/tail pages)": 8.25,
            "median request age from version (h)": 0.5947102928466727,
        },
        "prefix": (353, 3354),
        "stats": (
            "trace          : alternative\n"
            "distinct pages : 600\n"
            "publish events : 2584\n"
            "requests       : 19500\n"
            "(page,server)  : 936 pairs\n"
            "servers        : 10\n"
            "unique bytes/server (mean): 2.31 MB\n"
            "capacity @  1% (mean):     23.1 KB\n"
            "capacity @  5% (mean):    115.6 KB\n"
            "capacity @ 10% (mean):    231.2 KB\n"
        ),
    },
}


@pytest.fixture(scope="module", params=sorted(PINNED))
def pinned(request):
    case = PINNED[request.param]
    name, scale, seed = case["trace"]
    return case, make_trace(name, scale=scale, seed=seed)


def test_validation_measurements_are_pinned(pinned):
    case, workload = pinned
    measured = {c.name: c.measured for c in validate_workload(workload).checks}
    assert measured == case["checks"]


def test_lifecycle_coverage_is_pinned(pinned):
    case, workload = pinned
    seed = case["trace"][2]
    churned = workload.with_churn(
        ChurnSpec(churn_rate=0.5), RandomStreams(seed).stream("workload.churn")
    )
    checks = validate_workload(churned).checks
    assert checks[-1].name == "lifecycle initial-lease coverage"
    assert checks[-1].measured == 1.0
    assert {c.name: c.measured for c in checks[:-1]} == case["checks"]


def test_prefix_counts_are_pinned(pinned):
    case, workload = pinned
    prefix = trace_prefix(workload, 0.3)
    assert (prefix.publish_count, prefix.request_count) == case["prefix"]


def test_trace_stats_stdout_is_pinned(pinned, capsys):
    case, _workload = pinned
    name, scale, seed = case["trace"]
    argv = ["trace-stats", "--trace", name, "--scale", str(scale), "--seed", str(seed)]
    assert main(argv) == 0
    assert capsys.readouterr().out == case["stats"]
