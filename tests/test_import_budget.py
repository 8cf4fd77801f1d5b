"""The import graph follows use: what a command loads, pinned.

Every probe runs the CLI in a fresh interpreter, so the test runner's
own imports do not leak in, and reports ``sys.modules`` after the
command has finished.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as stop:
    code = stop.code
print("\\n@@modules " + json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

CLI_SMALL = (
    "run --strategy sg2 --trace news --capacity 0.05 --scale 0.05 --seed 7 "
    "--no-artifact-cache"
).split()

#: Opt-in layers and report code a vanilla ``run`` must not import.
UNUSED_BY_A_VANILLA_RUN = [
    f"repro.{package}.{module}"
    for package, modules in {
        "system": "lifecycle overload delivery sharding cooperation",
        "faults": "generator injector recovery schedule",
        "workload": "churn streaming validate",
        "obs": "registry tracer timeseries monitor explain inspect",
        "experiments": "figures tables chaos sensitivity calibrate report reportgen svg",
        "pubsub": "routing",
        "network": "barabasi",
    }.items()
    for module in modules.split()
] + ["multiprocessing", "subprocess", "socket"]


def run_cli(*argv):
    """(exit code, stdout, modules loaded at exit) of one CLI invocation."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    finished = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=source_root),
    )
    out, _, modules = finished.stdout.rpartition("\n@@modules ")
    assert modules, finished.stderr
    return finished.returncode, out, set(json.loads(modules))


def ours(modules):
    return {name for name in modules if name == "repro" or name.startswith("repro.")}


def test_vanilla_run_loads_no_opt_in_layer():
    code, out, modules = run_cli(*CLI_SMALL)
    assert code == 0
    assert out == (
        "    sg2 | news        cap=5% SQ=1.00 when-necessary | H=91.07% rt=  13.9ms "
        "traffic=2173 pages (1302 pushed, 871 fetched)\n"
    )
    assert [name for name in UNUSED_BY_A_VANILLA_RUN if name in modules] == []
    # 86 before imports followed use; a new always-loaded module must
    # argue its way past this number.
    assert len(ours(modules)) <= 52, sorted(ours(modules))


def test_the_linter_bans_the_same_modules():
    """``ruff.toml``'s TID253 list is this file's list, so the lint job
    and this test cannot drift apart."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "ruff.toml"), encoding="utf-8") as handle:
        banned = handle.read().split("banned-module-level-imports = [")[1].split("]")[0]
    assert sorted(re.findall(r'"([\w.]+)"', banned)) == sorted(UNUSED_BY_A_VANILLA_RUN)


def test_armed_layers_are_imported_by_the_run_that_arms_them():
    code, out, modules = run_cli(*CLI_SMALL, "--churn-rate", "1", "--service-rate", "0.05")
    assert code == 0
    # Recorded on the parent commit (7254820), where every layer was
    # imported eagerly: arming through lazy imports changes no digit.
    assert out == (
        "    sg2 | news        cap=5% SQ=1.00 when-necessary | H=89.97% rt=  14.3ms "
        "traffic=2191 pages (1213 pushed, 978 fetched) | avail=100.00% failed=0 "
        "degraded=48 crashes=0 warm=- | leases=3454+5839r/1444x repolls=67 "
        "suppressed=120 | queue~0.86 rej=0.4% origin_rej=0 breaker=0x/0s "
        "retry_denied=0\n"
    )
    assert {"repro.system.lifecycle", "repro.system.overload"} <= modules
    assert "repro.workload.churn" in modules


def test_trace_readers_start_without_numpy(tmp_path):
    trace = tmp_path / "trace.jsonl"
    events = [
        {"t": 1.0, "type": "publish", "page": 3, "version": 0, "size": 100},
        {"t": 2.0, "type": "request", "page": 3, "proxy": 1, "outcome": "miss"},
    ]
    trace.write_text("".join(json.dumps(event) + "\n" for event in events))
    for argv in (["inspect", str(trace)], ["explain", "page", "3", str(trace)]):
        code, out, modules = run_cli(*argv)
        assert code == 0 and out.strip(), argv
        assert "numpy" not in modules, argv


def test_help_and_version_start_without_numpy():
    for argv in (["--help"], ["run", "--help"], ["--version"]):
        code, out, modules = run_cli(*argv)
        assert code == 0, argv
        assert "numpy" not in modules, argv
    assert out.strip() == f"repro-pubsub {repro.__version__}"


# -- every module is reachable from a command ------------------------------

SOURCE = Path(repro.__file__).parent.parent


def _module_files():
    """Dotted name -> path of every module under ``src/repro``."""
    found = {}
    for path in (SOURCE / "repro").rglob("*.py"):
        dotted = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        found[dotted.removesuffix(".__init__")] = path
    return found


def _is_type_checking(node):
    test = node.test if isinstance(node, ast.If) else None
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _imports(module, path):
    """``(module, name or None)`` for every import statement in module and
    function bodies alike, ``if TYPE_CHECKING:`` blocks skipped; and the
    package's ``lazy_exports`` table as ``{name: submodule}``."""
    is_package = path.name == "__init__.py"
    found, lazy = [], {}
    pending = [ast.parse(path.read_text(encoding="utf-8"))]
    while pending:
        node = pending.pop()
        if _is_type_checking(node):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = module.split(".")
            base = base[: len(base) - node.level + is_package] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            found += [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            for submodule, names in ast.literal_eval(node.args[2]).items():
                lazy.update(dict.fromkeys(names, f"{module}.{submodule}"))
        pending.extend(ast.iter_child_nodes(node))
    return found, lazy


def test_every_module_is_reachable_from_a_command():
    """ROADMAP 6 (i): a module under ``src/repro`` is in the static import
    closure of ``repro.cli`` (``bench/*.py`` adds nothing to it), or it
    is deleted."""
    files = _module_files()
    parsed = {module: _imports(module, path) for module, path in files.items()}
    reached, frontier = set(), ["repro.cli"]
    while frontier:
        module = frontier.pop()
        while module and module not in reached:  # a module loads its parents
            if module in files:
                reached.add(module)
                for source, name in parsed[module][0]:
                    frontier.append(source)
                    if name and source in parsed:
                        # a submodule, or a name the package resolves lazily
                        frontier.append(parsed[source][1].get(name, f"{source}.{name}"))
            module = module.rpartition(".")[0]
    assert sorted(set(files) - reached) == []
