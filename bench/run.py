#!/usr/bin/env python3
"""The repo's benchmark: four cold-run workloads, calibrated wall time,
and a per-layer ledger.  See bench/README.md.

    python3 bench/run.py --seed 7                 # all four, untraced then traced
    python3 bench/run.py --workload paper-cell --seed 7 --seconds 20 --trace 0

Closed loop, one client, one measured process at a time.  Every repeat
is a fresh interpreter (``PYTHONHASHSEED=0``, ``PYTHONPATH=src``), so no
heap, memo or import state carries over.  This file imports nothing
from the program: it drives ``python -m repro.cli`` and ``child.py``
(whose repro imports are all inside functions this file never calls).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from calib import CALIB_ITERATIONS, CALIB_REF_S, calibrate, calibrated
from child import BODIES, GRID_TRACES, NINE_STRATEGIES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: BENCHMARK.json is the one place that names the workloads (and why
#: each is in the set), the metrics, their units and the driver's bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {entry["name"]: entry["why"] for entry in SPEC["workloads"]}
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}

GRID_CELLS = [
    f"{trace}.{strategy}" for trace in GRID_TRACES for strategy in NINE_STRATEGIES
]
#: Packages whose share of profiled replay self time the ledger asks for.
PROFILED_LAYERS = [
    name.removesuffix(".self_share") for name in PER_LAYER if name.endswith(".self_share")
]

COUNT_UNITS = ("count", "pages", "bytes")
#: Record modes that are operations; twins and warm-ups are not.
TIMED_MODES = ("plain", "span", "profile")

DEFAULT_SECONDS = SPEC["run_seconds"]
#: A timing median over fewer repeats than this is not reported.
MIN_REPEATS = 5
#: Traced runs alternate plain and span repeats; this many pairs at least.
MIN_TRACED_PAIRS = 2
#: Share of ``--seconds`` a traced run spends on its pairs; the profile
#: pass (cProfile costs ~4x on the replay) takes the rest.
TRACED_PAIR_BUDGET = 0.6
SMOKE_SCALE_DIV = 10.0
CHILD_TIMEOUT_S = 120.0
PROBE_REPEATS = 3

CLI_ARGS = "run --strategy sg2 --trace news --capacity 0.05 --seed {seed} --no-artifact-cache"
CLI_SCALE = BODIES["cli-small"][1]


class ChildTimeout(RuntimeError):
    """A child outlived CHILD_TIMEOUT_S; the run is abandoned."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ARTIFACT_CACHE"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: List[str]) -> dict:
    """Run one child to completion; wall, peak RSS, exit code and stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read().decode()
        # wait4, not Popen.wait: it hands back the child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -9 and wall >= CHILD_TIMEOUT_S:
        raise ChildTimeout(" ".join(argv))
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "stdout": stdout,
    }


def run_child(workload: str, mode: str, seed: int, scale_div: float) -> dict:
    """One ``child.py`` repeat, as a repeat record."""
    began = time.perf_counter()
    tmp = tempfile.mkdtemp(dir=OUT / "tmp")
    try:
        done = spawn(
            [
                str(BENCH / "child.py"), workload,
                "--seed", str(seed),
                "--scale-div", repr(scale_div),
                "--mode", mode,
                "--tmp", tmp,
            ]
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = {"mode": mode, "peak_rss_mb": done["peak_rss_mb"], "problems": []}
    if done["exit"] != 0:
        record["problems"].append(f"child exited {done['exit']}")
        return record
    payload = json.loads(done["stdout"].splitlines()[-1])
    record.update(
        raw_wall_s=payload["wall_s"],
        calib_s=payload["calib_s"],
        digest=payload["digest"],
        payload=payload,
    )
    record["problems"].extend(payload["problems"])
    if mode == "profile":  # nothing is timed under cProfile
        return record
    # The sampler's ticks grow with the timed region: left in set-up they
    # would make setup_s follow wall_cal_s.  They are in neither.
    return finish(record, time.perf_counter() - began - payload["ticks_s"])


def run_cli(mode: str, seed: int, scale_div: float, hit_ratio_text: str) -> dict:
    """One ``python -m repro.cli run`` repeat, spawn to exit."""
    began = time.perf_counter()
    before = calibrate()
    started = time.perf_counter()
    done = spawn(
        ["-m", "repro.cli", *CLI_ARGS.format(seed=seed).split(),
         "--scale", repr(CLI_SCALE / scale_div)]
    )
    after = calibrate()
    record = {
        "mode": mode,
        "peak_rss_mb": done["peak_rss_mb"],
        "problems": [],
        "raw_wall_s": done["wall_s"],
        "calib_s": (before + after) / 2.0,
        "digest": hashlib.sha256(done["stdout"].encode()).hexdigest(),
        "span": {"start": started, "end": started + done["wall_s"]},
    }
    if done["exit"] != 0:
        record["problems"].append(f"repro.cli exited {done['exit']}")
    printed = re.search(r"H=\s*([0-9.]+%)", done["stdout"])
    if printed is None or printed.group(1) != hit_ratio_text.strip():
        record["problems"].append(
            f"CLI printed H={printed and printed.group(1)}, "
            f"run_cell gives {hit_ratio_text.strip()}"
        )
    return finish(record, time.perf_counter() - began)


def finish(record: dict, elapsed_s: float) -> dict:
    """Add the calibrated timed region and the untimed rest of the repeat."""
    record["wall_cal_s"] = calibrated(record["raw_wall_s"], record["calib_s"])
    record["setup_s"] = calibrated(elapsed_s - record["raw_wall_s"], record["calib_s"])
    return record


# -- statistics ------------------------------------------------------------


def summary(values: List[float]) -> dict:
    """Median with quartiles, min and N beside it; every value kept."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": values,
    }


def median_of(records: List[dict], field: str) -> float:
    return statistics.median(record[field] for record in records)


# -- the span ledger -------------------------------------------------------


def span_ledger(spans: List[dict]) -> dict:
    """Total and self time per span name for one repeat's spans.

    A span's self time is its duration minus its children's;
    ``artifact_self`` splits the artifact store's by grid pass.
    """
    children: Dict[Optional[int], List[dict]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    count: Dict[str, int] = {}
    artifact_self = {"experiments.grid_cold": 0.0, "experiments.grid_warm": 0.0}
    for span in spans:
        duration = span["end"] - span["start"]
        own = duration - sum(
            child["end"] - child["start"] for child in children.get(span["id"], [])
        )
        name = span["name"]
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + own
        count[name] = count.get(name, 0) + span.get("count", 0)
        if name == "experiments.artifact":
            parent = by_id[span["parent"]]["name"]
            if parent in artifact_self:
                artifact_self[parent] += own
    # The root span is the repeat; its children are the timed blocks.
    (root,) = children[None]
    return {
        "timed_s": sum(block["end"] - block["start"] for block in children[root["id"]]),
        "total": total,
        "self": self_time,
        "count": count,
        "artifact_self": artifact_self,
    }


def ledger_metrics(span_records: List[dict], wall_cal_s: float) -> Dict[str, float]:
    """Per-layer metrics from the span repeats (median over repeats).

    Times are calibrated with each repeat's own factor; shares are of
    ``wall_cal_s``, the calibrated wall of the workload's timed region.
    """
    per_repeat = []
    for record in span_records:
        ledger = span_ledger(record["payload"]["spans"])
        # The spans hold the sampler's ticks, raw_wall_s does not.
        factor = record["wall_cal_s"] / ledger["timed_s"]
        seconds = {name: value * factor for name, value in ledger["total"].items()}
        artifact = {k: v * factor for k, v in ledger["artifact_self"].items()}
        covered = sum(
            value * factor
            for name, value in ledger["self"].items()
            if name.split(".")[0] not in ("bench", "experiments")
        ) + sum(artifact.values())
        replay_s = seconds.get("system.replay", 0.0)
        row = {
            "workload.generate_s": seconds.get("workload.generate", 0.0),
            "workload.events": ledger["count"].get("workload.generate", 0),
            "workload.with_churn_s": seconds.get("workload.with_churn", 0.0),
            "workload.lifecycle_events": ledger["count"].get("workload.with_churn", 0),
            "pubsub.match_table_s": seconds.get("pubsub.match_table", 0.0),
            "pubsub.match_pairs": ledger["count"].get("pubsub.match_table", 0),
            "network.topology_s": seconds.get("network.topology", 0.0),
            "system.construct_s": seconds.get("system.construct", 0.0),
            "system.replay_s": replay_s,
            "system.replay_events_per_s":
                ledger["count"].get("system.replay", 0) / replay_s,
            "experiments.grid_cold_s": seconds.get("experiments.grid_cold", 0.0),
            "experiments.grid_warm_s": seconds.get("experiments.grid_warm", 0.0),
            "experiments.artifact_store_s": artifact["experiments.grid_cold"],
            "experiments.artifact_load_s": artifact["experiments.grid_warm"],
            "bench.span_coverage_share": covered,
        }
        cells = record["payload"]["extra"].get("cell_replay_s", {})
        for cell in GRID_CELLS:
            row[f"experiments.replay_s.{cell}"] = cells.get(cell, 0.0) * factor
        per_repeat.append(row)
    metrics = {
        name: statistics.median(row[name] for row in per_repeat)
        for name in per_repeat[0]
    }
    metrics["workload.generate_share"] = metrics["workload.generate_s"] / wall_cal_s
    metrics["system.replay_share"] = metrics["system.replay_s"] / wall_cal_s
    metrics["bench.span_coverage_share"] /= wall_cal_s
    return metrics


def profile_metrics(profile: dict) -> Dict[str, float]:
    metrics = {}
    for layer in PROFILED_LAYERS:
        entry = profile["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_share"] = entry["self_s"] / profile["total_self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    return metrics


def cli_probes() -> Dict[str, float]:
    """Interpreter start, numpy import and ``import repro.cli``, calibrated."""

    def probe(code: str) -> float:
        return statistics.median(
            spawn(["-c", code])["wall_s"] for _ in range(PROBE_REPEATS)
        )

    before = calibrate()
    interp = probe("pass")
    numpy_import = probe("import numpy") - interp
    cli_import = probe("import repro.cli") - interp
    modules = spawn(["-c", "import sys, repro.cli; print(len(sys.modules))"])
    calib_s = (before + calibrate()) / 2.0
    return {
        "cli.interp_start_s": calibrated(interp, calib_s),
        "cli.numpy_import_s": calibrated(numpy_import, calib_s),
        "cli.import_s": calibrated(cli_import, calib_s),
        "cli.modules_imported": int(modules["stdout"]),
    }


# -- one workload ----------------------------------------------------------


def collect(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    repeats: Optional[int],
    scale_div: float,
) -> List[dict]:
    """Every run of one workload, in order: twins, warm-up, timed repeats.

    A record's ``mode`` says what it was; only ``TIMED_MODES`` are
    operations.
    """
    is_cli = name == "cli-small"
    records: List[dict] = []

    def untimed(record: dict, role: str) -> dict:
        if record["problems"]:
            raise SystemExit(f"{name}: {role} failed: {record['problems']}")
        record["mode"] = f"{role}-{record['mode']}"
        records.append(record)
        return record

    hit_ratio_text = ""
    if is_cli:
        # The same cell in process: the reference for the CLI's printed
        # hit ratio and, when traced, the source of its inner ledger.
        for mode in ("span", "profile") if trace else ("plain",):
            twin = untimed(run_child(name, mode, seed, scale_div), "twin")
        hit_ratio_text = twin["payload"]["hit_ratio_text"]

    def repeat(mode: str, div: float = scale_div) -> dict:
        if is_cli:
            return run_cli(mode, seed, div, hit_ratio_text)
        return run_child(name, mode, seed, div)

    # Discarded: fills .pyc files and the page cache.  The in-process
    # workloads warm up at smoke scale — every repeat is a fresh
    # interpreter, so there is no program state a full-size one would warm.
    untimed(
        repeat("plain", scale_div if is_cli else max(scale_div, SMOKE_SCALE_DIV)),
        "warmup",
    )

    modes = ("plain", "span") if trace else ("plain",)
    minimum = repeats or (MIN_TRACED_PAIRS if trace else MIN_REPEATS)
    deadline = time.perf_counter() + seconds * (TRACED_PAIR_BUDGET if trace else 1.0)
    rounds = 0
    while rounds < minimum or (repeats is None and time.perf_counter() < deadline):
        records.extend(repeat(mode) for mode in modes)
        rounds += 1
    if trace and not is_cli:
        records.append(repeat("profile"))
    for number, record in enumerate(records):
        record["id"] = number
    return records


def end_to_end_metrics(plain: List[dict]) -> Dict[str, dict]:
    return {
        metric: {**summary([record[metric] for record in plain]), "unit": unit}
        for metric, unit in END_TO_END.items()
    }


def per_layer_metrics(
    records: List[dict], good: List[dict], failed_share: float
) -> Dict[str, dict]:
    """The ledger of a traced run; empty if a pass it needs did not succeed."""
    by_mode: Dict[str, List[dict]] = {}
    for record in good:
        by_mode.setdefault(record["mode"], []).append(record)
    twins = {r["mode"]: r for r in records if r["mode"].startswith("twin-")}
    # cli-small's inner ledger comes from its in-process twin.
    inner = [twins["twin-span"]] if twins else by_mode.get("span", [])
    profiled = [twins["twin-profile"]] if twins else by_mode.get("profile", [])
    if not (by_mode.get("plain") and by_mode.get("span") and inner and profiled):
        return {}

    wall_cal = summary([record["wall_cal_s"] for record in by_mode["plain"]])
    span_wall_cal = median_of(by_mode["span"], "wall_cal_s")
    calibs = [record["calib_s"] for record in by_mode["plain"] + by_mode["span"]]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(ledger_metrics(inner, span_wall_cal))
    metrics.update(profile_metrics(profiled[0]["payload"]["profile"]))
    payload = inner[0]["payload"]
    metrics.update({f"model.{k}": v for k, v in payload["model"].items()})
    metrics["experiments.artifact_bytes"] = payload["extra"].get("artifact_bytes", 0)
    if twins:
        metrics.update(cli_probes())
        start_s = metrics["cli.interp_start_s"] + metrics["cli.import_s"]
        metrics["cli.import_share"] = metrics["cli.import_s"] / span_wall_cal
        metrics["cli.body_s"] = span_wall_cal - start_s
        metrics["bench.span_coverage_share"] += start_s / span_wall_cal
    metrics.update(
        {
            "bench.wall_s": median_of(by_mode["plain"], "raw_wall_s"),
            "bench.wall_iqr_share":
                (wall_cal["q3"] - wall_cal["q1"]) / wall_cal["value"],
            "bench.calib_s": statistics.median(calibs),
            "bench.calib_spread":
                (max(calibs) - min(calibs)) / statistics.median(calibs),
            "bench.trace_overhead_share": span_wall_cal / wall_cal["value"] - 1.0,
            "bench.ops_failed_share": failed_share,
        }
    )
    # A median of counts is a count.
    return {
        metric: {
            "value": round(metrics[metric]) if unit in COUNT_UNITS else metrics[metric],
            "unit": unit,
        }
        for metric, unit in PER_LAYER.items()
    }


def run_workload(name: str, trace: bool, **how) -> dict:
    """Collect one workload's runs, check them, and summarise."""
    records = collect(name, trace=trace, **how)
    timed = [record for record in records if record["mode"] in TIMED_MODES]
    reference = timed[0].get("digest")
    for record in timed:
        if "digest" in record and record["digest"] != reference:
            record["problems"].append("result_digest differs from the first repeat")
        for problem in record["problems"]:
            print(f"{name} repeat {record['id']} FAILED: {problem}", file=sys.stderr)
    good = [record for record in timed if not record["problems"]]
    failed = len(timed) - len(good)
    plain = [record for record in good if record["mode"] == "plain"]
    if trace:
        metrics = per_layer_metrics(records, good, failed / len(timed))
    else:
        metrics = end_to_end_metrics(plain) if plain else {}
    return {
        "attempted": len(timed),
        "failed": failed,
        "result_digest": reference if not failed else None,
        "metrics": metrics,
        "records": records,
        "numpy": next(
            (r["payload"]["numpy"] for r in records if "payload" in r), None
        ),
    }


# -- output ----------------------------------------------------------------


def trace_document(name: str, outcome: dict) -> dict:
    """Every span of a traced run, one repeat id each, plus the profile."""
    spans = []
    profile = None
    for record in outcome["records"]:
        payload = record.get("payload", {})
        if "span" in record and record["mode"] == "span":
            payload = {"spans": [{
                "id": 0, "name": "cli.run", "layer": "cli", "parent": None,
                **record["span"],
            }]}
        for span in payload.get("spans", []):
            spans.append({**span, "workload": name, "repeat": record["id"]})
        profile = payload.get("profile") or profile
    return {"workload": name, "spans": spans, "profile": profile}


def public_records(outcome: dict, trace: bool) -> List[dict]:
    """Repeat records for results.json: every run made, without payloads."""
    return [
        {"traced_run": trace,
         **{k: v for k, v in record.items() if k not in ("payload", "span")}}
        for record in outcome["records"]
    ]


def git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(args, started: float, numpy_version: Optional[str]) -> dict:
    status = git("status", "--porcelain")

    def stamp(when: float) -> str:
        return datetime.datetime.fromtimestamp(when, datetime.timezone.utc).isoformat()

    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "calib_ref_s": CALIB_REF_S,
        "calib_iterations": CALIB_ITERATIONS,
        "started": stamp(started),
        "ended": stamp(time.time()),
    }


def print_metrics(name: str, outcome: dict) -> None:
    for metric, entry in outcome["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")


def contract_line(outcome: dict, expected: Dict[str, object]) -> str:
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in outcome["metrics"].items()
    }
    complete = set(metrics) == set(expected) and all(
        math.isfinite(entry["value"]) for entry in metrics.values()
    )
    return json.dumps(
        {
            "correct": complete and outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metrics,
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer (default: both)")
    parser.add_argument("--repeats", type=int,
                        help="exactly this many repeats instead of --seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="scale / 10 and 2 repeats: checks the harness, not the program")
    args = parser.parse_args()
    if args.smoke:
        args.repeats = args.repeats or 2
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to measure under {SRC}", file=sys.stderr)
        return 2

    started = time.time()
    shutil.rmtree(OUT / "tmp", ignore_errors=True)
    (OUT / "tmp").mkdir(parents=True)
    scale_div = SMOKE_SCALE_DIV if args.smoke else 1.0
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results: Dict[str, dict] = {}
    numpy_version = None
    last = None
    try:
        for name in names:
            entry = results[name] = {"why": WORKLOADS[name], "repeats": []}
            for trace in traces:
                outcome = last = run_workload(
                    name, trace, seed=args.seed, seconds=args.seconds,
                    repeats=args.repeats, scale_div=scale_div,
                )
                print_metrics(name, outcome)
                entry["per_layer" if trace else "end_to_end"] = outcome["metrics"]
                entry["result_digest"] = outcome["result_digest"]
                entry["attempted"] = entry.get("attempted", 0) + outcome["attempted"]
                entry["failed"] = entry.get("failed", 0) + outcome["failed"]
                entry["repeats"].extend(public_records(outcome, trace))
                numpy_version = outcome["numpy"] or numpy_version
                if trace:
                    (OUT / f"trace-{name}.json").write_text(
                        json.dumps(trace_document(name, outcome))
                    )
    except ChildTimeout as stuck:
        print(f"child did not finish in {CHILD_TIMEOUT_S:.0f} s: {stuck}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)

    (OUT / "results.json").write_text(
        json.dumps(
            {"manifest": manifest(args, started, numpy_version), "workloads": results},
            indent=1,
        )
    )
    if args.workload and args.trace is not None:
        # The contract's result line says whether the run was correct.
        print(contract_line(last, PER_LAYER if args.trace else END_TO_END))
        return 0
    return 1 if any(entry["failed"] for entry in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
