"""Benchmark-history tracking and regression flagging.

Every ``BENCH_*.json`` artifact the benchmarks emit is a point sample:
it says what the numbers were *now*, and nothing guards the 1.89x
replay speedup or the strategy hit ratios from silently eroding one
PR at a time.  This module turns those artifacts into a trajectory:

* :func:`append_entry` folds one benchmark payload into
  ``BENCH_history.jsonl`` — one JSON line per run with the git SHA,
  a timestamp, and the extracted headline metrics;
* :func:`check_regressions` compares the newest entry of each
  benchmark against its predecessor and flags any higher-is-better
  metric (events/sec, runs/sec, hit ratio, speedup, delivery ratio)
  that dropped by more than the threshold (default 10%).

The CI gate is ``python benchmarks/bench_history.py check`` — it exits
nonzero when a regression is flagged, so an injected 20% slowdown
fails the build.  Metric extraction is schema-agnostic: it walks the
payload recursively and keeps numeric leaves whose key names a
higher-is-better quantity, so new benchmarks join the history without
code changes here.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Default history file name (repo root, next to the BENCH_*.json files).
HISTORY_FILE = "BENCH_history.jsonl"

#: Key fragments that mark a numeric leaf as a tracked, higher-is-better
#: metric.  Lower-is-better quantities (seconds_per_run, overhead
#: fractions) are deliberately absent: their regressions surface through
#: the paired rate metrics without double-flagging noise.
_HIGHER_IS_BETTER = (
    "events_per_sec",
    "runs_per_sec",
    "hit_ratio",
    "delivery_ratio",
    "speedup",
    "availability",
)

#: Payload keys never descended into (bulky raw sample arrays).
_SKIP_KEYS = frozenset({"all_seconds", "phases", "hourly"})


def extract_metrics(payload: Dict[str, object]) -> Dict[str, float]:
    """Pull the tracked metrics out of one BENCH_*.json payload.

    Returns dotted-path names, e.g. ``replay.fast.events_per_sec`` or
    ``strategies.dc-ap.baseline.hit_ratio``.
    """
    metrics: Dict[str, float] = {}

    def walk(node: object, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key in _SKIP_KEYS:
                    continue
                child = f"{path}.{key}" if path else str(key)
                if isinstance(value, (dict, list)):
                    walk(value, child)
                elif isinstance(value, (int, float)) and not isinstance(value, bool):
                    if any(marker in str(key) for marker in _HIGHER_IS_BETTER):
                        metrics[child] = float(value)
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, f"{path}[{index}]")

    walk(payload, "")
    return metrics


def git_sha(cwd: Optional[str] = None) -> str:
    """The current short commit SHA, or ``"unknown"`` outside a repo."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def make_entry(
    payload: Dict[str, object],
    source: Optional[str] = None,
    sha: Optional[str] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, object]:
    """Build one history entry (a JSON-serialisable dict) from a payload."""
    return {
        "benchmark": payload.get("benchmark")
        or (os.path.basename(source) if source else "unknown"),
        "sha": sha if sha is not None else git_sha(),
        "recorded_at": timestamp if timestamp is not None else time.time(),
        "source": source,
        "metrics": extract_metrics(payload),
    }


def append_entry(
    history_path: str,
    payload: Dict[str, object],
    source: Optional[str] = None,
    sha: Optional[str] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, object]:
    """Append one entry for ``payload`` to the history file; returns it."""
    entry = make_entry(payload, source=source, sha=sha, timestamp=timestamp)
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n")
    return entry


def load_history(history_path: str) -> List[Dict[str, object]]:
    """All history entries, oldest first; [] when the file is absent."""
    if not os.path.exists(history_path):
        return []
    entries = []
    with open(history_path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{history_path}:{line_number}: bad history line: {error}"
                )
    return entries


@dataclass
class Regression:
    """One flagged metric drop between consecutive runs of a benchmark."""

    benchmark: str
    metric: str
    previous: float
    current: float
    drop: float
    previous_sha: str = "unknown"
    current_sha: str = "unknown"

    def describe(self) -> str:
        return (
            f"{self.benchmark}: {self.metric} dropped {self.drop * 100:.1f}% "
            f"({self.previous:g} @ {self.previous_sha} -> "
            f"{self.current:g} @ {self.current_sha})"
        )


def check_regressions(
    entries: List[Dict[str, object]], threshold: float = 0.10
) -> List[Regression]:
    """Flag >``threshold`` drops between each benchmark's last two runs.

    Only metrics present in both runs are compared (a benchmark may
    grow or shed columns over time), and only strictly positive
    previous values can regress (a 0 -> 0 metric is just quiet).
    """
    by_benchmark: Dict[str, List[Dict[str, object]]] = {}
    for entry in entries:
        by_benchmark.setdefault(str(entry.get("benchmark")), []).append(entry)
    regressions: List[Regression] = []
    for benchmark, runs in sorted(by_benchmark.items()):
        if len(runs) < 2:
            continue
        previous, current = runs[-2], runs[-1]
        prev_metrics = previous.get("metrics") or {}
        curr_metrics = current.get("metrics") or {}
        for metric in sorted(prev_metrics):
            if metric not in curr_metrics:
                continue
            old = float(prev_metrics[metric])
            new = float(curr_metrics[metric])
            if old <= 0:
                continue
            drop = 1.0 - new / old
            if drop > threshold:
                regressions.append(
                    Regression(
                        benchmark=benchmark,
                        metric=metric,
                        previous=old,
                        current=new,
                        drop=drop,
                        previous_sha=str(previous.get("sha", "unknown")),
                        current_sha=str(current.get("sha", "unknown")),
                    )
                )
    return regressions


def record_file(
    bench_path: str,
    history_path: str = HISTORY_FILE,
    sha: Optional[str] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, object]:
    """Read one BENCH_*.json file and append it to the history."""
    with open(bench_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return append_entry(
        history_path,
        payload,
        source=os.path.basename(bench_path),
        sha=sha,
        timestamp=timestamp,
    )
