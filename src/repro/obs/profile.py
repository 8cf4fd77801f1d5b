"""Where one call's time goes, per ``repro`` package (``run --profile``).

:func:`profile_call` runs a call under :mod:`cProfile` and folds the
samples by the package of the function that spent them — ``core``,
``cache``, ``system``, ``sim``, ``workload`` ... the names of the
benchmark's per-layer ledger (``bench/child.py``).  Library and builtin
time has no package of ours, so it goes to the package that called it
(heapq under ``cache``); time no ``repro`` function called is
``other``.  Nothing is wrapped or timed by hand, so a profiled run takes
the code path of an unprofiled one.

A process forked during the call (a shard of a large cell) profiles
its own task (:func:`forked_share`); the caller of the fork sends the
folds home and the profile sums them.  :mod:`cProfile` and
:mod:`pstats` are imported by the call, so a run without ``--profile``
never loads them.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``{package: {"calls": n, "seconds": self seconds}}``.
Profile = Dict[str, Dict[str, float]]

#: The :func:`profile_call` running in this process: ``(pid, its
#: profiler, the folds forked processes sent home)``; a process forked
#: during the call inherits it, with its parent's pid.
_running: Optional[Tuple[int, Any, List[Profile]]] = None


def package_of(filename: str) -> Optional[str]:
    """The ``repro`` package (or top-level module) a code file belongs to."""
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return None
    return filename.rsplit(marker, 1)[1].split(os.sep, 1)[0].removesuffix(".py")


def profile_call(fn: Callable[..., Any], *args, **kwargs) -> Tuple[Any, Profile, int]:
    """``(fn(*args, **kwargs), its profile, the processes it covers)``.

    The profile is this process's, plus every fold that processes forked
    during the call sent home, folded per package and sorted by package
    name."""
    import cProfile
    import pstats

    global _running
    profiler = cProfile.Profile()
    folds: List[Profile] = []
    outer = _running
    _running = (os.getpid(), profiler, folds)
    try:
        result = profiler.runcall(fn, *args, **kwargs)
    finally:
        _running = outer
    folded: Profile = {}

    def add(package: str, seconds: float, calls: int) -> None:
        entry = folded.setdefault(package, {"calls": 0, "seconds": 0.0})
        entry["calls"] += calls
        entry["seconds"] += seconds

    for (filename, _, _), (_, calls, seconds, _, callers) in pstats.Stats(
        profiler
    ).stats.items():
        package = package_of(filename)
        if package is not None:
            add(package, seconds, calls)
            continue
        for (caller_file, _, _), (_, _, caller_seconds, _) in callers.items():
            add(package_of(caller_file) or "other", caller_seconds, 0)
        if not callers:
            add("other", seconds, 0)
    for fold in folds:
        for package, entry in fold.items():
            add(package, entry["seconds"], entry["calls"])
    return result, {package: folded[package] for package in sorted(folded)}, 1 + len(folds)


def forked_share(fn: Callable[..., Any], *args) -> Tuple[Any, Optional[Profile]]:
    """``(fn(*args), fold)``: in a process forked while a
    :func:`profile_call` ran, the inherited profiler is stopped and
    ``fold`` is this process's own profile of the task, for the caller
    to :func:`send_home`; elsewhere ``None`` (nothing profiles, or the
    running profile sees the task)."""
    running = _running
    if running is None or running[0] == os.getpid():
        return fn(*args), None
    running[1].disable()
    result, fold, _ = profile_call(fn, *args)
    return result, fold


def send_home(folds: List[Profile]) -> None:
    """Add forked processes' folds to this process's running profile."""
    if _running is not None:
        _running[2].extend(folds)


def render(profile: Profile, processes: int = 1) -> str:
    """Human-readable table, slowest package first, and how many
    processes it covers."""
    if not profile:
        return "(no profile samples)"
    rows = sorted(profile.items(), key=lambda row: -row[1]["seconds"])
    total = sum(entry["seconds"] for _, entry in rows) or 1.0
    width = max(len("package"), *(len(name) for name, _ in rows))
    lines = [f"{'package':<{width}}  {'calls':>10}  {'seconds':>10}  {'share':>6}"]
    for name, entry in rows:
        lines.append(
            f"{name:<{width}}  {entry['calls']:>10d}  {entry['seconds']:>10.4f}"
            f"  {entry['seconds'] / total:>6.1%}"
        )
    lines.append(f"({processes} process{'' if processes == 1 else 'es'})")
    return "\n".join(lines)
