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
import dataclasses
import importlib
import os
import sys
from typing import List, NamedTuple, Optional

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
            "cache generated traces, match tables, topologies and cell "
            f"results on disk under DIR (default {DEFAULT_CACHE_DIR}) so "
            "repeated runs load instead of regenerate and replay"
        ),
    )
    parser.add_argument(
        "--no-artifact-cache", action="store_true",
        help="force the on-disk artifact cache off "
             "(overrides --artifact-cache and REPRO_ARTIFACT_CACHE)",
    )
    _add_verbose(parser)


def _configure_artifact_cache(args: argparse.Namespace) -> Optional[int]:
    """Resolve the artifact-cache flags/env into the runner default.

    Precedence: ``--no-artifact-cache`` > ``--artifact-cache [DIR]`` >
    the ``REPRO_ARTIFACT_CACHE`` environment variable > off.  Exit code 2
    and one line when the directory cannot be used (it is created here).
    """
    if not hasattr(args, "artifact_cache"):
        return None  # inspect/explain: nothing to cache, and the runner needs numpy
    from repro.experiments.runner import set_default_artifact_dir

    directory = None
    if not args.no_artifact_cache:
        directory = args.artifact_cache or os.environ.get("REPRO_ARTIFACT_CACHE") or None
    if directory is not None:
        reason = None
        if os.path.exists(directory) and not os.path.isdir(directory):
            reason = "not a directory"
        else:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as error:
                reason = f"cannot create it ({error.strerror or error})"
            else:
                if not os.access(directory, os.W_OK):
                    reason = "directory is not writable"
        if reason is not None:
            print(f"cannot use --artifact-cache {directory}: {reason}", file=sys.stderr)
            return 2
    set_default_artifact_dir(directory)
    return None


def _trace_for(args: argparse.Namespace):
    """The command's preset trace, through the artifact cache if one is on."""
    from repro.experiments.runner import preset_trace

    return preset_trace(args.trace, args.scale, args.seed)


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
        profile=bool(getattr(args, "profile", False)),  # chaos has no --profile
        series_out=args.series_out,
        series_window=args.series_window,
        monitor=args.monitor,
        monitor_out=args.monitor_out,
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
    if args.series_out:
        print(f"wrote {args.series_out}")
    if args.monitor_out:
        print(f"wrote {args.monitor_out}")
    if getattr(args, "profile", False) and observer.profiler is not None:
        print()
        print(observer.profiler.render())


class _Flag(NamedTuple):
    """One layer flag: the argparse option and the spec field it sets."""

    flag: str
    field: str
    #: The option's literal type, or ``False`` for a switch whose presence
    #: sets the field to ``False`` (``--no-repair``).
    kind: object
    metavar: Optional[str]
    help: str
    #: Set on the flags that *arm* a sub-mechanism: the spec's zero
    #: default means "disabled", which makes no sense to request by hand,
    #: so a value given explicitly must be > 0.  Names the quantity in
    #: the error line.
    positive: str = ""


#: The three opt-in layers' flag families, declared once: family ->
#: (spec class as ``module:name``, rows).  ``_add_layer_flags`` adds a
#: family to a parser and ``_spec_from_flags`` builds its frozen spec, so
#: a new layer flag is one row.  The class is named, not imported:
#: ``build_parser`` (``--help``, ``inspect``, ``explain``) must load
#: neither numpy nor an opt-in layer.
_LAYER_FLAGS = {
    "churn": ("repro.workload.churn:ChurnSpec", (
        _Flag("--churn-rate", "churn_rate", float, "CYCLES",
              "subscription churn: mean unsubscribe/resubscribe cycles per subscriber per day "
              "(any churn flag enables the lifecycle layer)"),
        _Flag("--lease-duration", "lease_duration", float, "SECONDS",
              "mean subscription lease duration (exponential)"),
        _Flag("--renew-probability", "renew_probability", float, "P",
              "probability an expiring lease is renewed in time"),
        _Flag("--confirm-loss", "confirmation_loss_probability", float, "P",
              "per-attempt confirmation-handshake loss probability"),
    )),
    "overload": ("repro.faults.spec:OverloadSpec", (
        _Flag("--service-rate", "service_rate", float, "REQ_PER_S",
              "overload: per-proxy service rate (requests/second); any "
              "overload flag arms the backpressure layer", positive="service rate"),
        _Flag("--queue-capacity", "queue_capacity", int, "N",
              "overload: per-proxy service-queue capacity (slots)"),
        _Flag("--push-shed-fraction", "push_shed_fraction", float, "F",
              "overload: fraction of the queue pushes may fill before being shed (pulls keep the "
              "full capacity)"),
        _Flag("--origin-capacity", "origin_capacity", float, "REQ_PER_S",
              "overload: origin admission token-bucket refill rate", positive="origin capacity"),
        _Flag("--origin-burst", "origin_burst", int, "N",
              "overload: origin token-bucket burst size"),
        _Flag("--breaker-threshold", "breaker_threshold", int, "N",
              "overload: consecutive origin rejections that open the circuit breaker"),
        _Flag("--breaker-cooldown", "breaker_cooldown", float, "SECONDS",
              "overload: seconds the breaker stays open before half-open probing"),
        _Flag("--breaker-probes", "breaker_probe_successes", int, "N",
              "overload: half-open successes required to close the breaker"),
        _Flag("--breaker-jitter", "breaker_jitter", float, "F",
              "overload: relative jitter in [0, 1) on the breaker cooldown"),
        _Flag("--retry-budget", "retry_budget", int, "N",
              "overload: global retry budget shared by origin, delivery "
              "and handshake retries", positive="retry budget"),
        _Flag("--retry-budget-rate", "retry_budget_rate", float, "PER_S",
              "overload: retry-budget refill rate (tokens/second; 0 = fixed budget)"),
        _Flag("--retry-jitter", "retry_jitter", float, "F",
              "overload: relative jitter in [0, 1) on every retry backoff"),
    )),
    "chaos": ("repro.faults.spec:ChaosSpec", (
        _Flag("--proxy-mtbf", "proxy_mtbf", float, None,
              "mean seconds between proxy crashes (0 disables)"),
        _Flag("--proxy-mttr", "proxy_mttr", float, None, "mean proxy downtime in seconds"),
        _Flag("--crash-fraction", "crash_fraction", float, None,
              "fraction of proxies eligible to crash"),
        _Flag("--publisher-mtbf", "publisher_mtbf", float, None,
              "mean seconds between publisher outages (0 disables)"),
        _Flag("--publisher-mttr", "publisher_mttr", float, None,
              "mean publisher outage length in seconds"),
        _Flag("--degraded-mtbf", "degraded_mtbf", float, None,
              "mean seconds between degraded-link episodes (0 disables)"),
        _Flag("--degraded-mttr", "degraded_mttr", float, None,
              "mean degraded-link episode length in seconds"),
        _Flag("--loss", "degraded_loss_probability", float, None,
              "per-transfer loss probability on degraded links"),
        _Flag("--delivery-loss", "delivery_loss_probability", float, None,
              "per-notification loss probability on the push path"),
        _Flag("--delivery-dup", "delivery_duplicate_probability", float, None,
              "probability a delivered notification arrives twice"),
        _Flag("--delivery-reorder", "delivery_reorder_delay", float, None,
              "max extra notification delay in seconds (reordering)"),
        _Flag("--broker-mtbf", "broker_mtbf", float, None,
              "mean seconds between broker-node crashes (0 disables)"),
        _Flag("--broker-mttr", "broker_mttr", float, None, "mean broker-node downtime in seconds"),
        _Flag("--broker-count", "broker_count", int, None,
              "broker shards on the push path (proxy s -> broker s %% count)"),
        _Flag("--delivery-retries", "delivery_retry_limit", int, None,
              "max retransmissions per lost notification (0 = fire and forget)"),
        _Flag("--delivery-ack-timeout", "delivery_ack_timeout", float, None,
              "seconds before the first retransmission (doubles per attempt)"),
        _Flag("--no-repair", "delivery_repair", False, None,
              "disable access-time staleness repair (silent-staleness baseline)"),
    )),
}


def _add_layer_flags(parser: argparse.ArgumentParser, family: str) -> None:
    """Add ``family``'s flags; every one defaults to "not given"."""
    for row in _LAYER_FLAGS[family][1]:
        if row.kind is False:
            options = dict(action="store_true")
        else:
            options = dict(type=row.kind, default=None, metavar=row.metavar)
        parser.add_argument(row.flag, help=row.help, **options)


def _spec_from_flags(args: argparse.Namespace, family: str, base=None):
    """``family``'s spec: ``base`` (or the class defaults) under the given flags.

    ``None`` when no flag of the family was given and there is no
    ``base``, so the layer stays off.  Raises ``ValueError`` — from the
    ``positive`` column or the spec's own ``__post_init__`` — on a bad
    value.
    """
    path, rows = _LAYER_FLAGS[family]
    given = {}
    for row in rows:
        value = getattr(args, row.flag[2:].replace("-", "_"))  # argparse's dest
        if row.kind is False:
            if value:
                given[row.field] = False
        elif value is not None:
            if row.positive and value <= 0:
                raise ValueError(f"{row.positive} must be > 0, got {value}")
            given[row.field] = value
    if not given:
        return base
    if base is None:
        module, _, name = path.partition(":")
        base = getattr(importlib.import_module(module), name)()
    return dataclasses.replace(base, **given)


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
    layers = {}
    for family in ("churn", "overload"):
        try:
            layers[family] = _spec_from_flags(args, family)
        except ValueError as error:
            print(f"invalid {family} parameter: {error}", file=sys.stderr)
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
        workers=args.workers,
        streaming=args.streaming,
        **layers,
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

    workload = _trace_for(args)
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
        spec = _spec_from_flags(args, "chaos", DEFAULT_CHAOS)
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


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    workload = _trace_for(args)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(workload.to_json())
    print(
        f"wrote {args.output}: {len(workload.pages)} pages, "
        f"{workload.publish_count} publish events, "
        f"{workload.request_count} requests"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    workload = _trace_for(args)
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
    _add_layer_flags(run_parser, "churn")
    _add_layer_flags(run_parser, "overload")
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
    _add_layer_flags(chaos_parser, "chaos")
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
    return _configure_artifact_cache(args) or args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
