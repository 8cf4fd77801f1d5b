"""Command-line interface.

``repro-pubsub`` drives the reproduction from a terminal::

    repro-pubsub run --strategy sg2 --trace news --capacity 0.05
    repro-pubsub figure 4 --scale 0.2
    repro-pubsub table 2 --scale 0.2
    repro-pubsub sweep-beta --scale 0.1
    repro-pubsub calibrate-beta --trace news --prefix 0.25
    repro-pubsub seed-sweep --strategy sg2 --baseline gdstar --seeds 5
    repro-pubsub chaos --strategies gdstar,sub --proxy-mtbf 86400
    repro-pubsub chaos --trace-out trace.jsonl --metrics-out metrics.prom
    repro-pubsub inspect trace.jsonl
    repro-pubsub trace-stats --trace alternative --scale 0.2 --validate
    repro-pubsub generate-trace --trace news --output trace.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

# Module top is what build_parser needs, all of it numpy-free; each
# _cmd_* imports the experiment/observability modules it runs.
from repro import __version__
from repro.core.registry import strategy_names
from repro.experiments.spec import DEFAULT_CACHE_DIR, CellKey
from repro.obs.log import setup_cli_logging
from repro.system.config import PushingScheme


def _reject_unknown_strategies(*names: str) -> Optional[int]:
    """Print a helpful error and return an exit code on a bad name.

    Subcommands whose strategy arguments are free-form (seed-sweep,
    chaos) funnel through here so a typo produces one clear line, not a
    KeyError traceback from deep inside the registry.
    """
    valid = sorted(strategy_names())
    unknown = [name for name in names if name not in valid]
    if not unknown:
        return None
    listed = ", ".join(unknown)
    print(
        f"unknown strategy: {listed}\nvalid strategies: {', '.join(valid)}",
        file=sys.stderr,
    )
    return 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale (1.0 = the paper's full size)",
    )
    parser.add_argument("--seed", type=int, default=7, help="root random seed")
    parser.add_argument(
        "--artifact-cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None,
        metavar="DIR",
        help=(
            "cache generated traces/match tables/topologies on disk "
            f"under DIR (default {DEFAULT_CACHE_DIR}) so repeated runs "
            "load instead of regenerate"
        ),
    )
    parser.add_argument(
        "--no-artifact-cache", action="store_true",
        help="force the on-disk artifact cache off "
             "(overrides --artifact-cache and REPRO_ARTIFACT_CACHE)",
    )
    _add_verbose(parser)


def _configure_artifact_cache(args: argparse.Namespace) -> None:
    """Resolve the artifact-cache flags/env into the runner default.

    Precedence: ``--no-artifact-cache`` > ``--artifact-cache [DIR]`` >
    the ``REPRO_ARTIFACT_CACHE`` environment variable > off.
    """
    if not hasattr(args, "artifact_cache"):
        return  # inspect/explain: nothing to cache, and the runner needs numpy
    from repro.experiments.runner import set_default_artifact_dir

    directory = None
    if not getattr(args, "no_artifact_cache", False):
        directory = (
            getattr(args, "artifact_cache", None)
            or os.environ.get("REPRO_ARTIFACT_CACHE")
            or None
        )
    set_default_artifact_dir(directory)


def _add_verbose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )


def _add_obs(parser: argparse.ArgumentParser, profile: bool = False) -> None:
    """Observability flags shared by the simulating subcommands."""
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="stream simulation lifecycle events to FILE as JSONL",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write aggregate metrics to FILE in Prometheus text format",
    )
    parser.add_argument(
        "--monitor", metavar="SECONDS", nargs="?", const=5.0, type=float,
        default=None,
        help="emit live progress heartbeats (events/sec, ETA, RSS, cache "
             "occupancy) every SECONDS wall-clock seconds (default 5)",
    )
    parser.add_argument(
        "--monitor-out", metavar="FILE", default=None,
        help="write heartbeats to FILE as JSONL instead of stderr text",
    )
    parser.add_argument(
        "--series-out", metavar="FILE", default=None,
        help="write per-window time series (hits, traffic, churn, queue "
             "depths) to FILE as JSONL",
    )
    parser.add_argument(
        "--series-window", metavar="SECONDS", type=float, default=3600.0,
        help="simulated-time window width for --series-out (default 3600)",
    )
    if profile:
        parser.add_argument(
            "--profile", action="store_true",
            help="time the simulator's hot paths and print a summary",
        )


def _reject_unwritable_outputs(args: argparse.Namespace) -> Optional[int]:
    """Exit code 2 and one line when an output flag's file cannot be created.

    Checked before any trace is generated: the sinks open their files
    at construction and the metrics file is written after the run, so
    a bad path would otherwise cost a traceback or a whole simulation.
    """
    for flag in ("trace_out", "metrics_out", "series_out", "monitor_out"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            reason = f"no such directory: {parent}"
        elif not os.access(parent, os.W_OK):
            reason = f"directory is not writable: {parent}"
        else:
            continue
        option = "--" + flag.replace("_", "-")
        print(f"cannot write {option} {path}: {reason}", file=sys.stderr)
        return 2
    return None


def _make_observer(args: argparse.Namespace):
    """Build an :class:`Observer` from the parsed obs flags (or None)."""
    from repro.obs.recorder import build_observer

    return build_observer(
        trace_out=args.trace_out,
        metrics=bool(args.metrics_out),
        profile=bool(getattr(args, "profile", False)),
        series_out=getattr(args, "series_out", None),
        series_window=getattr(args, "series_window", 3600.0),
        monitor=getattr(args, "monitor", None),
        monitor_out=getattr(args, "monitor_out", None),
    )


def _finish_observer(observer, args: argparse.Namespace) -> None:
    """Flush observer outputs: the metrics file and the trace sink."""
    if observer is None:
        return
    if args.metrics_out and observer.registry is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(observer.registry.render_prometheus())
        print(f"wrote {args.metrics_out}")
    observer.close()
    if args.trace_out:
        print(f"wrote {args.trace_out}")
    if getattr(args, "series_out", None):
        print(f"wrote {args.series_out}")
    if getattr(args, "monitor_out", None):
        print(f"wrote {args.monitor_out}")
    if getattr(args, "profile", False) and observer.profiler is not None:
        print()
        print(observer.profiler.render())


def _build_churn_spec(args: argparse.Namespace):
    """A ChurnSpec from the run flags, or None when no flag was given."""
    flags = (
        args.churn_rate,
        args.lease_duration,
        args.renew_probability,
        args.confirm_loss,
    )
    if all(value is None for value in flags):
        return None
    from repro.workload.churn import ChurnSpec

    defaults = ChurnSpec()
    return ChurnSpec(
        churn_rate=(
            args.churn_rate if args.churn_rate is not None else defaults.churn_rate
        ),
        lease_duration=(
            args.lease_duration
            if args.lease_duration is not None
            else defaults.lease_duration
        ),
        renew_probability=(
            args.renew_probability
            if args.renew_probability is not None
            else defaults.renew_probability
        ),
        confirmation_loss_probability=(
            args.confirm_loss
            if args.confirm_loss is not None
            else defaults.confirmation_loss_probability
        ),
    )


def _validate_cell_args(args: argparse.Namespace) -> None:
    """Range-check the shared numeric cell flags.

    Runs before any workload generation so a bad value produces one
    clear line instead of a traceback from deep inside the pipeline.
    """
    capacity = getattr(args, "capacity", None)
    if capacity is not None and not 0.0 < capacity <= 1.0:
        raise ValueError(f"capacity must be in (0, 1], got {capacity}")
    sq = getattr(args, "sq", None)
    if sq is not None and not 0.0 < sq <= 1.0:
        raise ValueError(f"sq must be in (0, 1], got {sq}")
    scale = getattr(args, "scale", None)
    if scale is not None and scale <= 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _build_overload_spec(args: argparse.Namespace):
    """An OverloadSpec from the run flags, or None when no flag was given.

    Flags that *arm* a sub-mechanism (service rate, origin capacity,
    retry budget) must be strictly positive when given explicitly —
    their spec-level zero default means "disabled", which makes no
    sense to request by hand.
    """
    flags = (
        args.service_rate,
        args.queue_capacity,
        args.push_shed_fraction,
        args.origin_capacity,
        args.origin_burst,
        args.breaker_threshold,
        args.breaker_cooldown,
        args.breaker_probes,
        args.breaker_jitter,
        args.retry_budget,
        args.retry_budget_rate,
        args.retry_jitter,
    )
    if all(value is None for value in flags):
        return None
    if args.service_rate is not None and args.service_rate <= 0.0:
        raise ValueError(f"service rate must be > 0, got {args.service_rate}")
    if args.origin_capacity is not None and args.origin_capacity <= 0.0:
        raise ValueError(
            f"origin capacity must be > 0, got {args.origin_capacity}"
        )
    if args.retry_budget is not None and args.retry_budget <= 0:
        raise ValueError(f"retry budget must be > 0, got {args.retry_budget}")
    from repro.faults.spec import OverloadSpec

    defaults = OverloadSpec()

    def pick(value, default):
        return value if value is not None else default

    return OverloadSpec(
        service_rate=pick(args.service_rate, defaults.service_rate),
        queue_capacity=pick(args.queue_capacity, defaults.queue_capacity),
        push_shed_fraction=pick(
            args.push_shed_fraction, defaults.push_shed_fraction
        ),
        origin_capacity=pick(args.origin_capacity, defaults.origin_capacity),
        origin_burst=pick(args.origin_burst, defaults.origin_burst),
        breaker_threshold=pick(args.breaker_threshold, defaults.breaker_threshold),
        breaker_cooldown=pick(args.breaker_cooldown, defaults.breaker_cooldown),
        breaker_probe_successes=pick(
            args.breaker_probes, defaults.breaker_probe_successes
        ),
        breaker_jitter=pick(args.breaker_jitter, defaults.breaker_jitter),
        retry_budget=pick(args.retry_budget, defaults.retry_budget),
        retry_budget_rate=pick(
            args.retry_budget_rate, defaults.retry_budget_rate
        ),
        retry_jitter=pick(args.retry_jitter, defaults.retry_jitter),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_cell

    error = _reject_unwritable_outputs(args)
    if error is not None:
        return error
    try:
        _validate_cell_args(args)
    except ValueError as error:
        print(f"invalid run parameter: {error}", file=sys.stderr)
        return 2
    try:
        churn = _build_churn_spec(args)
    except ValueError as error:
        print(f"invalid churn parameter: {error}", file=sys.stderr)
        return 2
    try:
        overload = _build_overload_spec(args)
    except ValueError as error:
        print(f"invalid overload parameter: {error}", file=sys.stderr)
        return 2
    if args.streaming:
        # Spill here, where a full disk or an unusable temp directory is
        # one line; run_cell then finds the trace in the memo.
        from repro.experiments.runner import streaming_trace_for

        try:
            streaming_trace_for(args.trace, args.scale, args.seed)
        except OSError as error:
            print(f"cannot spill trace: {error}", file=sys.stderr)
            return 2
    observer = _make_observer(args)
    result = run_cell(
        CellKey(
            trace=args.trace,
            strategy=args.strategy,
            capacity=args.capacity,
            sq=args.sq,
            pushing=args.pushing,
        ),
        scale=args.scale,
        seed=args.seed,
        beta=args.beta,
        observer=observer,
        churn=churn,
        overload=overload,
        workers=args.workers,
        streaming=args.streaming,
    )
    print(result.summary())
    _finish_observer(observer, args)
    return 0


def _write_svg(panels, number: str, directory: str) -> None:
    from repro.experiments.figures import CAPACITIES, SQS
    from repro.experiments.svg import figure_to_svg

    os.makedirs(directory, exist_ok=True)
    for panel in panels:
        if number in ("3", "4"):
            columns = [f"{int(c * 100)}%" for c in CAPACITIES]
            svg = figure_to_svg(panel, kind="bars", column_names=columns)
        elif number == "5":
            svg = figure_to_svg(
                panel, kind="bars", column_names=[f"SQ={q:g}" for q in SQS]
            )
        else:
            svg = figure_to_svg(panel, kind="lines")
        path = os.path.join(directory, f"{panel.name}.svg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"wrote {path}")


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure3, figure4, figure5, figure6, figure7

    number = args.number
    if number == "3":
        panels = [figure3(scale=args.scale, seed=args.seed)]
    elif number == "4":
        panels = list(figure4(scale=args.scale, seed=args.seed).values())
    elif number == "5":
        panels = list(figure5(scale=args.scale, seed=args.seed).values())
    elif number == "6":
        panels = list(figure6(scale=args.scale, seed=args.seed).values())
    elif number == "7":
        panels = list(figure7(scale=args.scale, seed=args.seed).values())
    else:
        print(f"unknown figure {number!r}; the paper has figures 3-7", file=sys.stderr)
        return 2
    for panel in panels:
        print(panel.text)
        print()
    if args.svg:
        _write_svg(panels, number, args.svg)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number != "2":
        print("only Table 2 is an experiment (Table 1 is a taxonomy)", file=sys.stderr)
        return 2
    from repro.experiments.tables import table2

    print(table2(scale=args.scale, seed=args.seed).text)
    return 0


def _cmd_sweep_beta(args: argparse.Namespace) -> int:
    from repro.experiments.figures import beta_sweep

    print(beta_sweep(scale=args.scale, seed=args.seed, trace=args.trace).text)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.experiments.calibrate import calibrate_all
    from repro.workload.presets import make_trace

    workload = make_trace(args.trace, scale=args.scale, seed=args.seed)
    results = calibrate_all(
        workload, prefix_fraction=args.prefix, capacity_fraction=args.capacity
    )
    print(
        f"beta calibrated on the first {args.prefix:.0%} of the "
        f"{args.trace} trace (capacity {args.capacity:.0%}):"
    )
    for strategy, outcome in results.items():
        grid = "  ".join(
            f"beta={beta:g}:{100 * score:.1f}%"
            for beta, score in sorted(outcome.prefix_scores.items())
        )
        print(f"  {strategy:>6s}: best beta = {outcome.best_beta:g}   [{grid}]")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reportgen import generate_report

    written = generate_report(args.output, scale=args.scale, seed=args.seed)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_seed_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import compare_across_seeds

    error = _reject_unknown_strategies(args.strategy, args.baseline)
    if error is not None:
        return error
    comparison = compare_across_seeds(
        args.strategy,
        baseline=args.baseline,
        trace=args.trace,
        capacity=args.capacity,
        seeds=tuple(range(1, args.seeds + 1)),
        scale=args.scale,
    )
    print(comparison.better.render())
    print(comparison.baseline.render())
    print(comparison.render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import DEFAULT_CHAOS, run_chaos
    from repro.faults.spec import ChaosSpec

    strategies = tuple(
        name.strip() for name in args.strategies.split(",") if name.strip()
    )
    if not strategies:
        print("no strategies given", file=sys.stderr)
        return 2
    error = _reject_unknown_strategies(*strategies) or _reject_unwritable_outputs(args)
    if error is not None:
        return error
    try:
        _validate_cell_args(args)
    except ValueError as error:
        print(f"invalid chaos parameter: {error}", file=sys.stderr)
        return 2
    base = DEFAULT_CHAOS
    try:
        spec = _build_chaos_spec(args, base)
    except ValueError as error:
        print(f"invalid chaos parameter: {error}", file=sys.stderr)
        return 2
    if not spec.injects_faults:
        print(
            "warning: the assembled ChaosSpec describes no faults "
            "(every MTBF and delivery knob is zero/off); this run is "
            "equivalent to a healthy one",
            file=sys.stderr,
        )
    observer = _make_observer(args)
    outcome = run_chaos(
        strategies=strategies,
        trace=args.trace,
        capacity=args.capacity,
        scale=args.scale,
        seed=args.seed,
        spec=spec,
        observer=observer,
    )
    print(outcome.text)
    _finish_observer(observer, args)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.obs.inspect import (
        page_history,
        render_page_history,
        summarize_trace,
    )

    try:
        if args.page is not None:
            if args.json:
                print(json.dumps(page_history(args.path, args.page), indent=2))
            else:
                print(render_page_history(args.path, args.page))
        else:
            summary = summarize_trace(args.path)
            if args.json:
                print(json.dumps(summary.as_dict(top=args.top), indent=2))
            else:
                print(summary.render(top=args.top))
    except FileNotFoundError:
        print(f"no such trace file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace file: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.obs.explain import explain_page_from_file

    try:
        explanation = explain_page_from_file(args.path, args.id, proxy=args.proxy)
    except FileNotFoundError:
        print(f"no such trace file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace file: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(explanation.as_dict(), indent=2))
    else:
        print(explanation.render())
    return 0


def _build_chaos_spec(args: argparse.Namespace, base) -> "ChaosSpec":
    from repro.faults.spec import ChaosSpec

    return ChaosSpec(
        proxy_mtbf=args.proxy_mtbf if args.proxy_mtbf is not None else base.proxy_mtbf,
        proxy_mttr=args.proxy_mttr if args.proxy_mttr is not None else base.proxy_mttr,
        crash_fraction=(
            args.crash_fraction
            if args.crash_fraction is not None
            else base.crash_fraction
        ),
        publisher_mtbf=(
            args.publisher_mtbf
            if args.publisher_mtbf is not None
            else base.publisher_mtbf
        ),
        publisher_mttr=(
            args.publisher_mttr
            if args.publisher_mttr is not None
            else base.publisher_mttr
        ),
        degraded_mtbf=(
            args.degraded_mtbf if args.degraded_mtbf is not None else base.degraded_mtbf
        ),
        degraded_mttr=(
            args.degraded_mttr if args.degraded_mttr is not None else base.degraded_mttr
        ),
        degraded_latency_multiplier=base.degraded_latency_multiplier,
        degraded_loss_probability=(
            args.loss if args.loss is not None else base.degraded_loss_probability
        ),
        delivery_loss_probability=(
            args.delivery_loss
            if args.delivery_loss is not None
            else base.delivery_loss_probability
        ),
        delivery_duplicate_probability=(
            args.delivery_dup
            if args.delivery_dup is not None
            else base.delivery_duplicate_probability
        ),
        delivery_reorder_delay=(
            args.delivery_reorder
            if args.delivery_reorder is not None
            else base.delivery_reorder_delay
        ),
        broker_mtbf=(
            args.broker_mtbf if args.broker_mtbf is not None else base.broker_mtbf
        ),
        broker_mttr=(
            args.broker_mttr if args.broker_mttr is not None else base.broker_mttr
        ),
        broker_count=(
            args.broker_count if args.broker_count is not None else base.broker_count
        ),
        delivery_retry_limit=(
            args.delivery_retries
            if args.delivery_retries is not None
            else base.delivery_retry_limit
        ),
        delivery_ack_timeout=(
            args.delivery_ack_timeout
            if args.delivery_ack_timeout is not None
            else base.delivery_ack_timeout
        ),
        delivery_repair=(not args.no_repair) if args.no_repair else base.delivery_repair,
    )


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    from repro.workload.presets import make_trace

    workload = make_trace(args.trace, scale=args.scale, seed=args.seed)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(workload.to_json())
    print(
        f"wrote {args.output}: {len(workload.pages)} pages, "
        f"{workload.publish_count} publish events, "
        f"{workload.request_count} requests"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.workload.presets import make_trace

    workload = make_trace(args.trace, scale=args.scale, seed=args.seed)
    if args.validate:
        from repro.workload.validate import validate_workload

        report = validate_workload(workload)
        print(report.render())
        return 0 if report.ok else 1
    pairs = len(workload.pair_counts())
    unique = workload.unique_bytes_per_server()
    mean_unique = sum(unique.values()) / max(1, len(unique))
    print(f"trace          : {workload.label}")
    print(f"distinct pages : {len(workload.pages)}")
    print(f"publish events : {workload.publish_count}")
    print(f"requests       : {workload.request_count}")
    print(f"(page,server)  : {pairs} pairs")
    print(f"servers        : {workload.config.server_count}")
    print(f"unique bytes/server (mean): {mean_unique / 1e6:.2f} MB")
    for fraction in (0.01, 0.05, 0.10):
        caps = workload.capacities(fraction)
        mean_cap = sum(caps.values()) / len(caps)
        print(f"capacity @{fraction:>4.0%} (mean): {mean_cap / 1e3:8.1f} KB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pubsub",
        description=(
            "Reproduction of 'Content Distribution for Publish/Subscribe "
            "Services' (Middleware 2003)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation cell")
    run_parser.add_argument("--strategy", choices=sorted(strategy_names()), default="sg2")
    run_parser.add_argument("--trace", choices=["news", "alternative"], default="news")
    run_parser.add_argument("--capacity", type=float, default=0.05)
    run_parser.add_argument("--sq", type=float, default=1.0)
    run_parser.add_argument(
        "--pushing",
        choices=[scheme.value for scheme in PushingScheme],
        default=PushingScheme.WHEN_NECESSARY.value,
    )
    run_parser.add_argument("--beta", type=float, default=None)
    run_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the proxies across N processes (bit-identical "
             "results; configs whose state crosses shards decline to "
             "one process)",
    )
    run_parser.add_argument(
        "--streaming", action="store_true",
        help="generate and replay the trace in streaming form (events "
             "spill to disk; peak memory stays flat as the trace grows)",
    )
    run_parser.add_argument(
        "--churn-rate", type=float, default=None, metavar="CYCLES",
        help="subscription churn: mean unsubscribe/resubscribe cycles "
             "per subscriber per day (any churn flag enables the "
             "lifecycle layer)",
    )
    run_parser.add_argument(
        "--lease-duration", type=float, default=None, metavar="SECONDS",
        help="mean subscription lease duration (exponential)",
    )
    run_parser.add_argument(
        "--renew-probability", type=float, default=None, metavar="P",
        help="probability an expiring lease is renewed in time",
    )
    run_parser.add_argument(
        "--confirm-loss", type=float, default=None, metavar="P",
        help="per-attempt confirmation-handshake loss probability",
    )
    run_parser.add_argument(
        "--service-rate", type=float, default=None, metavar="REQ_PER_S",
        help="overload: per-proxy service rate (requests/second); any "
             "overload flag arms the backpressure layer",
    )
    run_parser.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="overload: per-proxy service-queue capacity (slots)",
    )
    run_parser.add_argument(
        "--push-shed-fraction", type=float, default=None, metavar="F",
        help="overload: fraction of the queue pushes may fill before "
             "being shed (pulls keep the full capacity)",
    )
    run_parser.add_argument(
        "--origin-capacity", type=float, default=None, metavar="REQ_PER_S",
        help="overload: origin admission token-bucket refill rate",
    )
    run_parser.add_argument(
        "--origin-burst", type=int, default=None, metavar="N",
        help="overload: origin token-bucket burst size",
    )
    run_parser.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="overload: consecutive origin rejections that open the "
             "circuit breaker",
    )
    run_parser.add_argument(
        "--breaker-cooldown", type=float, default=None, metavar="SECONDS",
        help="overload: seconds the breaker stays open before half-open "
             "probing",
    )
    run_parser.add_argument(
        "--breaker-probes", type=int, default=None, metavar="N",
        help="overload: half-open successes required to close the breaker",
    )
    run_parser.add_argument(
        "--breaker-jitter", type=float, default=None, metavar="F",
        help="overload: relative jitter in [0, 1) on the breaker cooldown",
    )
    run_parser.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="overload: global retry budget shared by origin, delivery "
             "and handshake retries",
    )
    run_parser.add_argument(
        "--retry-budget-rate", type=float, default=None, metavar="PER_S",
        help="overload: retry-budget refill rate (tokens/second; 0 = "
             "fixed budget)",
    )
    run_parser.add_argument(
        "--retry-jitter", type=float, default=None, metavar="F",
        help="overload: relative jitter in [0, 1) on every retry backoff",
    )
    _add_common(run_parser)
    _add_obs(run_parser, profile=True)
    run_parser.set_defaults(func=_cmd_run)

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("number", help="figure number (3-7)")
    figure_parser.add_argument(
        "--svg", metavar="DIR", default=None,
        help="also write the figure as SVG files into DIR",
    )
    _add_common(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    table_parser = sub.add_parser("table", help="regenerate a paper table")
    table_parser.add_argument("number", help="table number (2)")
    _add_common(table_parser)
    table_parser.set_defaults(func=_cmd_table)

    beta_parser = sub.add_parser("sweep-beta", help="§5.1 β calibration sweep")
    beta_parser.add_argument("--trace", choices=["news", "alternative"], default="news")
    _add_common(beta_parser)
    beta_parser.set_defaults(func=_cmd_sweep_beta)

    stats_parser = sub.add_parser("trace-stats", help="describe a generated trace")
    stats_parser.add_argument("--trace", choices=["news", "alternative"], default="news")
    stats_parser.add_argument(
        "--validate",
        action="store_true",
        help="audit the trace against the paper's §4 target statistics",
    )
    _add_common(stats_parser)
    stats_parser.set_defaults(func=_cmd_trace_stats)

    calibrate_parser = sub.add_parser(
        "calibrate-beta", help="learn beta from a trace prefix (§5.1)"
    )
    calibrate_parser.add_argument(
        "--trace", choices=["news", "alternative"], default="news"
    )
    calibrate_parser.add_argument("--prefix", type=float, default=0.25)
    calibrate_parser.add_argument("--capacity", type=float, default=0.05)
    _add_common(calibrate_parser)
    calibrate_parser.set_defaults(func=_cmd_calibrate)

    report_parser = sub.add_parser(
        "report", help="run every experiment and write a REPORT.md + SVGs"
    )
    report_parser.add_argument("--output", default="report")
    _add_common(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    sweep_parser = sub.add_parser(
        "seed-sweep", help="seed-sensitivity analysis of a relative claim"
    )
    sweep_parser.add_argument("--strategy", default="sg2")
    sweep_parser.add_argument("--baseline", default="gdstar")
    sweep_parser.add_argument(
        "--trace", choices=["news", "alternative"], default="news"
    )
    sweep_parser.add_argument("--capacity", type=float, default=0.05)
    sweep_parser.add_argument("--seeds", type=int, default=5)
    _add_common(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_seed_sweep)

    chaos_parser = sub.add_parser(
        "chaos", help="compare strategy resilience under fault injection"
    )
    chaos_parser.add_argument(
        "--strategies",
        default="gdstar,sub,sg2,dc-lap",
        help="comma-separated strategy names to compare",
    )
    chaos_parser.add_argument(
        "--trace", choices=["news", "alternative"], default="news"
    )
    chaos_parser.add_argument("--capacity", type=float, default=0.05)
    chaos_parser.add_argument(
        "--proxy-mtbf", type=float, default=None,
        help="mean seconds between proxy crashes (0 disables)",
    )
    chaos_parser.add_argument(
        "--proxy-mttr", type=float, default=None,
        help="mean proxy downtime in seconds",
    )
    chaos_parser.add_argument(
        "--crash-fraction", type=float, default=None,
        help="fraction of proxies eligible to crash",
    )
    chaos_parser.add_argument(
        "--publisher-mtbf", type=float, default=None,
        help="mean seconds between publisher outages (0 disables)",
    )
    chaos_parser.add_argument(
        "--publisher-mttr", type=float, default=None,
        help="mean publisher outage length in seconds",
    )
    chaos_parser.add_argument(
        "--degraded-mtbf", type=float, default=None,
        help="mean seconds between degraded-link episodes (0 disables)",
    )
    chaos_parser.add_argument(
        "--degraded-mttr", type=float, default=None,
        help="mean degraded-link episode length in seconds",
    )
    chaos_parser.add_argument(
        "--loss", type=float, default=None,
        help="per-transfer loss probability on degraded links",
    )
    chaos_parser.add_argument(
        "--delivery-loss", type=float, default=None,
        help="per-notification loss probability on the push path",
    )
    chaos_parser.add_argument(
        "--delivery-dup", type=float, default=None,
        help="probability a delivered notification arrives twice",
    )
    chaos_parser.add_argument(
        "--delivery-reorder", type=float, default=None,
        help="max extra notification delay in seconds (reordering)",
    )
    chaos_parser.add_argument(
        "--broker-mtbf", type=float, default=None,
        help="mean seconds between broker-node crashes (0 disables)",
    )
    chaos_parser.add_argument(
        "--broker-mttr", type=float, default=None,
        help="mean broker-node downtime in seconds",
    )
    chaos_parser.add_argument(
        "--broker-count", type=int, default=None,
        help="broker shards on the push path (proxy s -> broker s %% count)",
    )
    chaos_parser.add_argument(
        "--delivery-retries", type=int, default=None,
        help="max retransmissions per lost notification (0 = fire and forget)",
    )
    chaos_parser.add_argument(
        "--delivery-ack-timeout", type=float, default=None,
        help="seconds before the first retransmission (doubles per attempt)",
    )
    chaos_parser.add_argument(
        "--no-repair", action="store_true",
        help="disable access-time staleness repair (silent-staleness baseline)",
    )
    _add_common(chaos_parser)
    _add_obs(chaos_parser)
    chaos_parser.set_defaults(func=_cmd_chaos)

    inspect_parser = sub.add_parser(
        "inspect", help="summarize a JSONL event trace written by --trace-out"
    )
    inspect_parser.add_argument("path", help="trace file (JSONL)")
    inspect_parser.add_argument(
        "--top", type=int, default=10,
        help="how many hottest pages to list",
    )
    inspect_parser.add_argument(
        "--page", type=int, default=None,
        help="show the full event history of one page instead",
    )
    inspect_parser.add_argument(
        "--json", action="store_true",
        help="emit the summary (or page history) as JSON",
    )
    _add_verbose(inspect_parser)
    inspect_parser.set_defaults(func=_cmd_inspect)

    explain_parser = sub.add_parser(
        "explain",
        help="reconstruct one page's causal lifecycle chain from a trace "
             "(why was this request a miss?)",
    )
    explain_parser.add_argument(
        "kind", choices=["page"], help="what to explain (only 'page' for now)"
    )
    explain_parser.add_argument("id", type=int, help="page id to explain")
    explain_parser.add_argument(
        "path", help="trace file (JSONL) written by --trace-out"
    )
    explain_parser.add_argument(
        "--proxy", type=int, default=None,
        help="restrict the chain to one proxy",
    )
    explain_parser.add_argument(
        "--json", action="store_true", help="emit the chain as JSON"
    )
    _add_verbose(explain_parser)
    explain_parser.set_defaults(func=_cmd_explain)

    generate_parser = sub.add_parser(
        "generate-trace", help="generate a workload and write it as JSON"
    )
    generate_parser.add_argument(
        "--trace", choices=["news", "alternative"], default="news"
    )
    generate_parser.add_argument("--output", default="trace.json")
    _add_common(generate_parser)
    generate_parser.set_defaults(func=_cmd_generate_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-pubsub`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_cli_logging(args.verbose)
    _configure_artifact_cache(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
