"""Where one call's time goes, per ``repro`` package (``run --profile``).

:func:`profile_call` runs a call under :mod:`cProfile` and folds the
samples by the package of the function that spent them — ``core``,
``cache``, ``system``, ``sim``, ``workload`` ... the names of the
benchmark's per-layer ledger (``bench/child.py``).  Library and builtin
time has no package of ours, so it goes to the package that called it
(heapq under ``cache``); time no ``repro`` function called is
``other``.  Nothing is wrapped or timed by hand, so a profiled run takes
the code path of an unprofiled one.

The profile covers the calling process only: the shard workers of
``run --workers N`` are not in it.  :mod:`cProfile` and :mod:`pstats`
are imported by the call, so a run without ``--profile`` never loads
them.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Tuple

#: ``{package: {"calls": n, "seconds": self seconds}}``.
Profile = Dict[str, Dict[str, float]]


def package_of(filename: str) -> Optional[str]:
    """The ``repro`` package (or top-level module) a code file belongs to."""
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return None
    return filename.rsplit(marker, 1)[1].split(os.sep, 1)[0].removesuffix(".py")


def profile_call(fn: Callable[..., Any], *args, **kwargs) -> Tuple[Any, Profile]:
    """``(fn(*args, **kwargs), its profile)``, folded per package and
    sorted by package name."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
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
    return result, {package: folded[package] for package in sorted(folded)}


def render(profile: Profile) -> str:
    """Human-readable table, slowest package first."""
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
    return "\n".join(lines)
