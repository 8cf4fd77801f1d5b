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
from typing import NamedTuple, Tuple

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
        "faults": "generator injector recovery schedule gates",
        "workload": "churn streaming validate",
        "obs": "registry tracer timeseries monitor explain inspect",
        "experiments": "figures tables chaos sensitivity calibrate report reportgen svg",
        "pubsub": "routing",
    }.items()
    for module in modules.split()
] + ["multiprocessing", "subprocess", "socket", "cProfile", "pstats"]


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


# -- every spec field is set by a command ----------------------------------

#: The run specs, by the module that defines each.
SPECS = {
    "SimulationConfig": "repro.system.config",
    "ChaosSpec": "repro.faults.spec",
    "OverloadSpec": "repro.faults.spec",
    "ChurnSpec": "repro.workload.churn",
}

#: Spec fields no command sets, each with the reason it stays a field.
UNSET_ON_PURPOSE = {
    "invariant_check_interval": (
        "a safety check, not a model parameter: tests switch it on to assert "
        "the simulator's invariants, and it changes no result"
    ),
}


def _spec_fields():
    """``{spec: [field, ...]}``: the annotated names of each spec class body."""
    files = _module_files()
    fields = {}
    for name, module in SPECS.items():
        tree = ast.parse(files[module].read_text(encoding="utf-8"))
        (body,) = [node.body for node in tree.body if getattr(node, "name", "") == name]
        fields[name] = [
            node.target.id for node in body if isinstance(node, ast.AnnAssign)
        ]
    return fields


def _flag_fields():
    """The spec field of every ``cli._LAYER_FLAGS`` row."""
    tree = ast.parse((SOURCE / "repro" / "cli.py").read_text(encoding="utf-8"))
    return {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_Flag"
    }


def _keyword_fields(paths):
    """``(spec, field)`` for every keyword of a call to a spec class in
    ``paths``, calls inside that spec's own class body excluded."""
    found = set()
    for path in paths:
        pending = [ast.parse(path.read_text(encoding="utf-8"))]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.ClassDef) and node.name in SPECS:
                continue
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if called in SPECS:
                    found |= {(called, keyword.arg) for keyword in node.keywords}
            pending.extend(ast.iter_child_nodes(node))
    return found


def test_every_spec_field_is_set_by_a_command():
    """ROADMAP 8 (i): a field of a run spec is set by a ``_LAYER_FLAGS``
    row, by a keyword in ``src/repro`` (a command's own spec, such as
    ``run_cell``'s config or ``DEFAULT_CHAOS``), or by a keyword in
    ``results/`` or ``tests/paper/`` (a documented experiment); or it is
    a module constant beside the code that reads it."""
    root = SOURCE.parent
    paths = [
        *(SOURCE / "repro").rglob("*.py"),
        *(root / "results").rglob("*.py"),
        *(root / "tests" / "paper").rglob("*.py"),
    ]
    flagged, keyworded = _flag_fields(), _keyword_fields(paths)
    fields = _spec_fields()
    unset = [
        f"{spec}.{name}"
        for spec, names in fields.items()
        for name in names
        if name not in flagged
        and (spec, name) not in keyworded
        and name not in UNSET_ON_PURPOSE
    ]
    assert unset == []
    # 65 before the fields no command set became constants; a new field
    # must argue its way past this number.
    assert sum(map(len, fields.values())) <= 45


# -- every function is called by the program --------------------------------

#: Definitions only tests call, each with the reason it stays, keyed
#: ``module:qualified name``.
CALLED_BY_TESTS_ON_PURPOSE = {
    "repro.system.metrics:check_result": (
        "the conservation-law oracle: tests hold every layer combination's "
        "result to it"
    ),
    "repro.cache.heap:AddressableHeap.peek": (
        "read-only view of the next pop, which the heap tests pin; the "
        "policies pop through pop_cheaper"
    ),
}


def _definitions():
    """``(module:qualified name, name, path, first line, last line)`` of
    every ``def`` and ``class`` under ``src/repro``, dunders excepted."""
    found = []
    for module, path in _module_files().items():
        pending = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while pending:
            node, prefix = pending.pop()
            for child in ast.iter_child_nodes(node):
                scope = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scope = f"{prefix}{child.name}."
                    if not re.fullmatch(r"__\w+__", child.name):
                        found.append((
                            f"{module}:{scope[:-1]}", child.name, path,
                            child.lineno, child.end_lineno,
                        ))
                pending.append((child, scope))
    return found


def _appearances(paths):
    """``{name: [(path, line), ...]}`` of every ``Name``, ``Attribute``
    and identifier string in ``paths``, outside the export tables
    (``__all__``, the ``lazy_exports`` map, ``if TYPE_CHECKING:``)."""
    found = {}
    for path in paths:
        pending = [ast.parse(path.read_text(encoding="utf-8"))]
        while pending:
            node = pending.pop()
            if _is_type_checking(node):
                pending.extend(node.orelse)
                continue
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", "") == "__all__" for target in node.targets
            ):
                continue
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
                pending.extend([node.func, *node.args[:2]])
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value if node.value.isidentifier() else None
            if name:
                found.setdefault(name, []).append((path, node.lineno))
            pending.extend(ast.iter_child_nodes(node))
    return found


def test_every_function_is_reachable_from_the_program():
    """A ``def`` or ``class`` under ``src/repro`` is named somewhere in
    ``src/repro``, ``bench/`` or ``examples/`` outside its own body, or
    it is deleted: a behaviour only tests call is a second copy of one
    the program runs, and its tests pin the copy that does not run."""
    root = SOURCE.parent
    seen = _appearances([
        *(SOURCE / "repro").rglob("*.py"),
        *(root / "bench").rglob("*.py"),
        *(root / "examples").rglob("*.py"),
    ])
    uncalled = [
        qualified
        for qualified, name, path, first, last in _definitions()
        if not any(
            where != path or not first <= line <= last
            for where, line in seen.get(name, ())
        )
    ]
    assert sorted(set(uncalled) - set(CALLED_BY_TESTS_ON_PURPOSE)) == []
    assert sorted(set(CALLED_BY_TESTS_ON_PURPOSE) - set(uncalled)) == []
    assert len(CALLED_BY_TESTS_ON_PURPOSE) <= 8


# -- every parameter is passed by the program -------------------------------

#: Defaulted parameters only tests pass, each with the reason it stays,
#: keyed ``module:qualified name(parameter)``.  Only a test seam
#: qualifies: a parameter that substitutes a fake, or shrinks a size so
#: that a path runs at test scale.
SET_BY_TESTS_ON_PURPOSE = {
    "repro.obs.monitor:RunMonitor.__init__(clock)": (
        "substitutes a fake clock, so heartbeat cadence and ETA are "
        "tested without waiting on the wall clock"
    ),
    "repro.obs.monitor:RunMonitor.__init__(check_every)": (
        "shrinks the clock-read cadence (1024 records) so a heartbeat "
        "fires within a test-sized replay"
    ),
    "repro.workload.streaming:generate_streaming_workload(chunk_events)": (
        "shrinks the spill chunk so a test-scale trace spans many chunks "
        "and the chunk-boundary merge runs"
    ),
    "repro.workload.streaming:generate_streaming_workload(read_chunk)": (
        "shrinks the replay read-back chunk for the same reason"
    ),
    "repro.workload.streaming:make_streaming_trace(chunk_events)": (
        "forwards the spill-chunk seam to generate_streaming_workload"
    ),
    "repro.experiments.artifacts:code_fingerprint(package_dir)": (
        "substitutes an edited copy of the package, so a test can show "
        "that one changed source byte moves the fingerprint"
    ),
    "repro.system.simulator:Simulation.__init__(fault_schedule)": (
        "substitutes a hand-built fault schedule for the one config.chaos "
        "generates, so a test places a crash or an outage at an exact time"
    ),
}


def _parameters(function, is_method):
    """``(positional names, defaulted names)`` of a ``def``, the bound
    ``self`` / ``cls`` of a method dropped from the positional list."""
    arguments = function.args
    positional = [arg.arg for arg in arguments.posonlyargs + arguments.args]
    defaulted = positional[len(positional) - len(arguments.defaults):]
    defaulted += [
        arg.arg
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    if is_method and not any(
        getattr(decorator, "id", "") == "staticmethod"
        for decorator in function.decorator_list
    ):
        positional = positional[1:]
    return positional, defaulted


class _Function(NamedTuple):
    called_as: str  # a method's name; an ``__init__``'s class
    positional: Tuple[str, ...]  # after ``self`` / ``cls``
    defaulted: Tuple[str, ...]
    path: Path
    first: int
    last: int


def _functions():
    """``{module:qualified name: _Function}`` of every ``def`` under
    ``src/repro`` with a defaulted parameter, dunders other than
    ``__init__`` excepted."""
    found = {}
    for module, path in _module_files().items():
        pending = [(ast.parse(path.read_text(encoding="utf-8")), "", None)]
        while pending:
            node, prefix, owner = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    pending.append((child, f"{prefix}{child.name}.", child.name))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    called_as = child.name
                    if child.name == "__init__" and owner:
                        called_as = owner
                    elif re.fullmatch(r"__\w+__", child.name):
                        continue
                    positional, defaulted = _parameters(child, owner is not None)
                    if defaulted:
                        found[f"{module}:{prefix}{child.name}"] = _Function(
                            called_as, tuple(positional), tuple(defaulted), path,
                            child.lineno, child.end_lineno,
                        )
                    pending.append((child, f"{prefix}{child.name}.", None))
                else:
                    pending.append((child, prefix, owner))
    return found


def _calls_and_values(paths):
    """``(calls, values)`` in ``paths``.  ``calls`` is ``[(called as,
    positional count, keywords, forwarded, spread)]``: ``forwarded`` maps
    an argument (``#index`` or keyword) to ``(path, line, parameter)``
    when it passes on the enclosing ``def``'s defaulted parameter
    unchanged; ``spread`` says ``*`` / ``**``.  ``values`` is ``{name:
    [(path, line)]}`` of every name loaded other than as a callee, an
    attribute's owner, a base class, an ``except`` or ``isinstance``
    type, or inside an annotation."""
    calls, values = [], {}

    def children_of(node):
        if isinstance(node, ast.arg):
            return []
        if isinstance(node, ast.AnnAssign):
            return [node.target, node.value] if node.value else []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return [node.args, *node.body, *node.decorator_list]
        if isinstance(node, ast.ClassDef):
            return [*node.body, *node.decorator_list]
        if isinstance(node, ast.ExceptHandler):
            return node.body
        if isinstance(node, ast.Attribute):
            return [] if isinstance(node.value, ast.Name) else [node.value]
        if isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", "")
            if called in ("isinstance", "issubclass"):
                return node.args[:1]
            owner = [func.value] if isinstance(func, ast.Attribute) else []
            return [*owner, *node.args, *node.keywords]
        return list(ast.iter_child_nodes(node))

    for path in paths:
        pending = [(ast.parse(path.read_text(encoding="utf-8")), {}, None)]
        while pending:
            node, defaulted, owner = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaulted = {
                    name: (path, node.lineno, name)
                    for name in _parameters(node, False)[1]
                }
            elif isinstance(node, ast.ClassDef):
                owner = node
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
                targets = [called]
                if called == "cls" and owner is not None:
                    targets = [owner.name]
                elif called == "__init__" and owner is not None:
                    targets = [getattr(base, "id", "") for base in owner.bases]
                passed = [(f"#{index}", arg) for index, arg in enumerate(node.args)]
                passed += [(keyword.arg, keyword.value) for keyword in node.keywords]
                forwarded = {
                    where: defaulted[value.id]
                    for where, value in passed
                    if getattr(value, "id", None) in defaulted
                }
                spread = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                    keyword.arg is None for keyword in node.keywords
                )
                keywords = [keyword.arg for keyword in node.keywords]
                calls += [
                    (target, len(node.args), keywords, forwarded, spread)
                    for target in targets
                ]
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load
            ):
                name = getattr(node, "id", None) or node.attr
                values.setdefault(name, []).append((path, node.lineno))
            pending.extend((child, defaulted, owner) for child in children_of(node))
    return calls, values


def test_every_parameter_is_passed_by_the_program():
    """A defaulted parameter of a ``def`` under ``src/repro`` is passed,
    by keyword or at its position, by some call in ``src/repro``,
    ``bench/`` or ``examples/``; or it is a module constant beside the
    code that reads it.  A call that forwards a parameter which is itself
    never passed does not count.  A function the program uses as a value
    (a registry entry, a callback) or calls with ``*`` / ``**`` is exempt:
    what reaches it cannot be read from the source."""
    root = SOURCE.parent
    calls, values = _calls_and_values([
        *(SOURCE / "repro").rglob("*.py"),
        *(root / "bench").rglob("*.py"),
        *(root / "examples").rglob("*.py"),
    ])
    functions = _functions()
    spread = {called for called, _, _, _, is_spread in calls if is_spread}
    checked = {
        qualified: function
        for qualified, function in functions.items()
        if function.called_as not in spread
        and not any(
            where != function.path or not function.first <= line <= function.last
            for where, line in values.get(function.called_as, ())
        )
    }
    by_name = {}
    for function in checked.values():
        by_name.setdefault(function.called_as, []).append(function)
    # (path, first line, parameter) of every passed parameter; one of an
    # exempt function counts as passed when forwarded.
    passed = {
        (function.path, function.first, name)
        for function in set(functions.values()) - set(checked.values())
        for name in function.defaulted
    }
    while True:
        before = len(passed)
        for called, count, keywords, forwarded, _ in calls:
            for function in by_name.get(called, ()):
                arguments = [(f"#{index}", name) for index, name in enumerate(function.positional)]
                arguments = arguments[:count] + [(name, name) for name in keywords]
                passed |= {
                    (function.path, function.first, name)
                    for where, name in arguments
                    if name in function.defaulted
                    and (where not in forwarded or forwarded[where] in passed)
                }
        if len(passed) == before:
            break
    unset = [
        f"{qualified}({name})"
        for qualified, function in checked.items()
        for name in function.defaulted
        if (function.path, function.first, name) not in passed
    ]
    assert sorted(set(unset) - set(SET_BY_TESTS_ON_PURPOSE)) == []
    assert sorted(set(SET_BY_TESTS_ON_PURPOSE) - set(unset)) == []
    assert len(SET_BY_TESTS_ON_PURPOSE) <= 8


# -- the paper reference shares nothing with the program --------------------


def test_the_paper_reference_is_independent():
    """``tests/oracle/paper_sim.py`` is an oracle only while it is no copy
    of the program: it imports standard-library modules alone, not
    ``heapq`` (the program's caches are heaps), and nothing at run time."""
    tree = ast.parse((Path(__file__).parent / "oracle" / "paper_sim.py").read_text())
    imported = [
        "." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    roots = {name.split(".")[0] for name in imported}
    assert imported and roots <= sys.stdlib_module_names - {"heapq"}, sorted(imported)
    called = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert not called & {"__import__", "import_module", "exec", "eval"}
