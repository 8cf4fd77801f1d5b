"""The public surface did not change when the packages went lazy.

``repro`` and its ten packages bind their public names on first access
(PEP 562); everything a caller could do with the eager packages must
still work, and resolve to the same objects.
"""

import os
import pickle
import subprocess
import sys
from importlib import import_module

import pytest

#: ``__all__`` of every package, in order, recorded on the parent
#: commit (7254820) before the ``__init__`` files were edited.
#: ``repro.core``, ``repro.pubsub`` and ``repro.sim`` were re-pinned once,
#: when the modules no command reaches left ``src/repro``; ``repro.obs``
#: when the benchmark-history module left with the last of them.
PINNED_ALL = {
    "repro": (
        "make_policy strategy_names SimulationConfig PushingScheme run_simulation "
        "WorkloadConfig generate_workload news_config alternative_config make_trace "
        "__version__"
    ),
    "repro.cache": (
        "CacheEntry AddressableHeap CacheStorage CacheStats ACCESS_MODULE PUSH_MODULE"
    ),
    "repro.core": (
        "Policy PushOutcome RequestOutcome "
        "GDStarPolicy LRUPolicy GDSPolicy LFUDAPolicy SubPolicy "
        "SingleCacheCombinedPolicy DualMethodsPolicy DualCacheFixedPolicy "
        "DualCacheAdaptivePolicy STRATEGIES make_policy strategy_names"
    ),
    "repro.experiments": (
        "ExperimentGrid GridResult CellKey FORMAT_VERSION ArtifactCache trace_for "
        "run_cell run_grid paper_beta set_default_artifact_dir render_table "
        "render_series figure3 figure4 figure5 figure6 figure7 beta_sweep table2 "
        "CHAOS_STRATEGIES DEFAULT_CHAOS ChaosResult run_chaos CalibrationResult "
        "calibrate_all calibrate_beta trace_prefix RobustComparison SeedSweep "
        "compare_across_seeds seed_sweep"
    ),
    "repro.faults": (
        "ChaosSpec DegradedWindow EMPTY_SCHEDULE FaultInjector FaultSchedule "
        "LIFECYCLE_STREAM OVERLOAD_STREAM OverloadSpec RecoveryReport RecoveryTracker "
        "Window generate_fault_schedule"
    ),
    "repro.network": (
        "Graph waxman_graph barabasi_albert_graph Topology build_topology"
    ),
    "repro.obs": (
        "Observer NullObserver NULL_OBSERVER build_observer MetricsRegistry Counter "
        "Gauge Histogram DEFAULT_LATENCY_BUCKETS escape_label_value escape_help "
        "EventTracer EVENT_TYPES read_jsonl TimeSeriesCollector read_series_jsonl "
        "RunMonitor rss_bytes PageExplanation explain_page explain_page_from_file "
        "Profiler NullSpan NULL_SPAN get_logger setup_cli_logging"
    ),
    "repro.pubsub": "TraceMatchCounts",
    "repro.sim": "Environment RandomStreams SimulationError",
    "repro.system": (
        "SimulationConfig PushingScheme Publisher ProxyServer SimulationResult "
        "HourlySeries Simulation run_simulation CooperativeSimulation "
        "run_cooperative_simulation"
    ),
    "repro.workload": (
        "WorkloadConfig Workload PageSpec PublishRecord RequestRecord "
        "generate_workload ChurnSpec LifecycleRecord generate_churn churn_statistics "
        "build_match_counts news_config alternative_config ValidationReport "
        "validate_workload validate_churn_spec"
    ),
}

#: Exported constants carry no ``__module__``; their defining submodule
#: is written down.  Everything else names its own.
CONSTANT_HOMES = {
    "ACCESS_MODULE": "repro.cache.entry",
    "PUSH_MODULE": "repro.cache.entry",
    "STRATEGIES": "repro.core.registry",
    "FORMAT_VERSION": "repro.experiments.artifacts",
    "CHAOS_STRATEGIES": "repro.experiments.chaos",
    "DEFAULT_CHAOS": "repro.experiments.chaos",
    "DEFAULT_LATENCY_BUCKETS": "repro.obs.registry",
    "EVENT_TYPES": "repro.obs.tracer",
    # Plain constants of the package itself, eager on purpose.
    "LIFECYCLE_STREAM": "repro.faults",
    "OVERLOAD_STREAM": "repro.faults",
    "__version__": "repro",
}

PACKAGES = sorted(PINNED_ALL)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_unchanged_and_every_name_is_the_defining_modules_object(package):
    module = import_module(package)
    assert list(module.__all__) == PINNED_ALL[package].split()
    for name in module.__all__:
        value = getattr(module, name)
        home = CONSTANT_HOMES.get(name) or value.__module__
        assert getattr(import_module(home), name) is value, name
        # Resolved once, then an ordinary module attribute.
        assert vars(module)[name] is value


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(import_module(package).__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_is_an_attribute_error_naming_the_package(package):
    module = import_module(package)
    with pytest.raises(AttributeError, match=repr(package)):
        module.no_such_name
    assert getattr(module, "no_such_name", None) is None


def test_lazily_resolved_classes_pickle():
    """Grid and shard workers send ``SimulationResult`` across processes."""
    from repro.experiments import CellKey, run_cell
    from repro.system import SimulationResult

    assert pickle.loads(pickle.dumps(SimulationResult)) is SimulationResult
    key = CellKey("news", "sg2", 0.05)
    assert pickle.loads(pickle.dumps(key)) == key
    result = run_cell(key, scale=0.03, seed=3)
    assert type(result) is SimulationResult
    assert pickle.loads(pickle.dumps(result)) == result


def test_importing_the_packages_imports_no_submodule():
    """The ``__init__`` files hold a table, not imports; ``dir()`` lists
    the public names before any of them has been resolved."""
    probe = f"""
import sys
from importlib import import_module
for package in {PACKAGES!r}:
    module = import_module(package)
    assert set(module.__all__) <= set(dir(module)), package
loaded = sorted(name for name in sys.modules if name.count(".") > 1 and name.startswith("repro."))
assert loaded == [], loaded
assert "numpy" not in sys.modules
"""
    source_root = os.path.dirname(os.path.dirname(import_module("repro").__file__))
    finished = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=source_root),
    )
    assert finished.returncode == 0, finished.stderr
