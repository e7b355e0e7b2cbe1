"""Command-line interface: list, run, trace, and summarise experiments.

Usage::

    python -m repro list [--heavy]
    python -m repro run table-6.24 figure-6.17a
    python -m repro run --all [--heavy]
    python -m repro --jobs 8 run figure-6.18
    python -m repro --trace out.json run figure-6.7
    python -m repro stats out.jsonl
    python -m repro --seed 7 chaos --loss 0.01 0.05
    python -m repro traffic --arch II --process mmpp --load 1.2
    python -m repro --duration 500000 --deadline 8000 run traffic-knee-quick
    python -m repro solve --arch II --mode local -n 4 -x 2850
    python -m repro validate --quick
    python -m repro validate --rebaseline
    python -m repro serve figure-6.7 table-5.1 --repeat 3 --stats

The global knob flags (``--jobs``, ``--seed``, ``--sync`` and the
traffic knobs) are generated from
:data:`repro.config.KNOBS`, which also holds their environment
variables, parsers and help text; a bad value is a parser error.
``--jobs N`` fans the grid points of sweep experiments out over N
processes of the persistent local pool (:mod:`repro.perf.backends`);
it changes no computed value.  ``--seed N`` sets the default seed of
every stochastic component; runs are deterministic either way, the
seed just selects which deterministic run.  ``repro serve`` drives the
async experiment service (:mod:`repro.service`): submissions queue,
twins coalesce, and repeats answer from the content-addressed result
store.  ``--trace PATH`` records the run with :mod:`repro.obs` and writes a
Chrome-trace JSON at PATH plus the versioned JSONL stream next to it;
``repro stats`` summarises such a JSONL file afterwards.
``--profile`` wraps each experiment in :mod:`cProfile` and writes a
pstats dump plus a top-20-by-cumulative-time summary next to the
experiment output (the ``--save`` directory when given, else the
working directory).

Every experiment execution goes through
:func:`repro.api.run_experiment` — the CLI is a thin argument parser
over the front-door API.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import api, config
from repro.errors import ReproError
from repro.experiments import REGISTRY, all_experiment_ids
from repro.models import Architecture, Mode, solve


def _cmd_list(args: argparse.Namespace) -> int:
    for experiment in REGISTRY.values():
        if experiment.heavy and not args.heavy:
            continue
        flag = " (heavy)" if experiment.heavy else ""
        print(f"{experiment.experiment_id:<16} {experiment.kind:<7} "
              f"{experiment.title}{flag}")
    return 0


def maybe_profile(args: argparse.Namespace, label: str, fn):
    """Call ``fn()``, under :mod:`cProfile` when ``--profile`` is set.

    The profile lands next to the experiment's other output — the
    ``--save`` directory when one was given, else the working
    directory — as ``<label>.prof`` (a pstats dump for ``pstats`` /
    any profile viewer) and ``<label>.profile.txt`` (the top 20
    functions by cumulative time).
    """
    if not getattr(args, "profile", False):
        return fn()
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    out_dir = Path(getattr(args, "save", None) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    prof_path = out_dir / f"{label}.prof"
    profiler.dump_stats(prof_path)
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream) \
        .sort_stats("cumulative").print_stats(20)
    text_path = out_dir / f"{label}.profile.txt"
    text_path.write_text(stream.getvalue())
    print(f"profile: {prof_path}, {text_path}")
    return result


def _trace_path_for(trace: str | None, experiment_id: str,
                    many: bool) -> str | None:
    """Per-experiment trace target: ``--trace`` verbatim for a single
    run, ``<stem>-<id><suffix>`` when several experiments share one
    invocation (so traces don't overwrite each other)."""
    if trace is None:
        return None
    if not many:
        return trace
    path = Path(trace)
    safe = experiment_id.replace("/", "_")
    return str(path.with_name(f"{path.stem}-{safe}{path.suffix}"))


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(args.ids)
    if args.all:
        ids = all_experiment_ids(include_heavy=args.heavy)
    if not ids:
        print("nothing to run; name experiments or pass --all",
              file=sys.stderr)
        return 2
    for experiment_id in ids:
        trace = _trace_path_for(args.trace, experiment_id,
                                many=len(ids) > 1)
        result = maybe_profile(
            args, experiment_id,
            lambda: api.run_experiment(experiment_id, trace=trace))
        print(result.render())
        print(f"[{experiment_id} in {result.elapsed_s:.1f}s]")
        if result.trace_paths:
            print("trace: " + ", ".join(result.trace_paths))
        if args.save:
            from repro.experiments.io import save_artifact
            paths = save_artifact(result.artifact, args.save)
            print("saved: " + ", ".join(str(p) for p in paths))
        print()
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    architecture = Architecture[args.arch]
    mode = Mode.LOCAL if args.mode == "local" else Mode.NONLOCAL
    result = solve(architecture, mode, args.conversations,
                   args.compute)
    print(f"architecture {architecture.name} "
          f"({architecture.value}), {mode.value}")
    print(f"  conversations    : {result.conversations}")
    print(f"  server compute X : {result.compute_time:.1f} us")
    print(f"  throughput       : {result.throughput_per_ms:.4f} "
          "msgs/ms")
    print(f"  round-trip time  : {result.round_trip_time:.1f} us")
    if architecture is Architecture.II:
        print(f"  synchronization  : {result.sync}")
    return 0


def _cmd_sync_comparison(args: argparse.Namespace) -> int:
    from repro.experiments.sync import sync_comparison
    mode = Mode.LOCAL if args.mode == "local" else Mode.NONLOCAL
    conversations = tuple(args.conversations)
    experiment_id = "sync-comparison" if mode is Mode.LOCAL \
        else "sync-comparison-nonlocal"
    figure, _summary, trace_paths = maybe_profile(
        args, experiment_id,
        lambda: api.run_traced(
            f"experiment:{experiment_id}",
            lambda: sync_comparison(conversations, mode,
                                    experiment_id=experiment_id),
            trace=args.trace))
    print(figure.render())
    if trace_paths:
        print("trace: " + ", ".join(trace_paths))
    if args.save:
        from repro.experiments.io import save_artifact
        paths = save_artifact(figure, args.save)
        print("saved: " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import (DEFAULT_ARCHITECTURES,
                                    DEFAULT_LOSS_RATES, sweep_table)
    architectures = tuple(Architecture[a] for a in args.arch) \
        if args.arch else DEFAULT_ARCHITECTURES
    loss_rates = tuple(args.loss) if args.loss is not None \
        else DEFAULT_LOSS_RATES
    for rate in loss_rates:
        if not 0.0 <= rate <= 1.0:
            raise ReproError(f"loss rate {rate} outside [0, 1]")
    table, summary, trace_paths = maybe_profile(
        args, "chaos-sweep",
        lambda: api.run_traced(
            "experiment:chaos-sweep",
            lambda: sweep_table(architectures, loss_rates,
                                conversations=args.conversations,
                                mean_compute=args.compute,
                                measure_us=args.measure),
            trace=args.trace))
    print(table.render())
    if trace_paths:
        print("trace: " + ", ".join(trace_paths))
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import Table
    from repro.traffic import make_process, run_open_experiment
    from repro.traffic.experiments import (DEFAULT_POOL,
                                           DEFAULT_QUEUE_LIMIT,
                                           closed_loop_capacity)
    architecture = Architecture[args.arch]
    mode = Mode.LOCAL if args.mode == "local" else Mode.NONLOCAL
    capacity = closed_loop_capacity(architecture, mode, args.servers,
                                    args.compute)
    rate_per_ms = config.get("arrival_rate")
    rate_per_us = rate_per_ms / 1e3 if rate_per_ms is not None \
        else args.load * capacity
    process = make_process(args.process, rate_per_us,
                           alpha=args.alpha,
                           burst_ratio=args.burst_ratio)
    measure_us = config.get("duration") or 1_000_000.0
    queue_bound = config.get("queue_limit") or DEFAULT_QUEUE_LIMIT

    result, _summary, trace_paths = maybe_profile(
        args, "traffic-point",
        lambda: api.run_traced(
            "experiment:traffic-point",
            lambda: run_open_experiment(
                architecture, mode, process, servers=args.servers,
                mean_compute=args.compute, warmup_us=args.warmup,
                measure_us=measure_us, pool_size=args.pool,
                queue_limit=queue_bound, policy=args.policy,
                deadline_us=config.get("deadline"),
                population=args.population),
            trace=args.trace))
    counts = result.counts
    table = Table(
        experiment_id="traffic-point",
        title=f"Open-arrival operating point — arch "
              f"{architecture.name}, {mode.value}",
        headers=["metric", "value"],
        rows=[
            ["arrival process", result.process],
            ["offered rate (msgs/ms)", result.offered_rate_per_ms],
            ["closed-loop capacity (msgs/ms)", capacity * 1e3],
            ["offered", counts.offered],
            ["completed", counts.completed],
            ["throughput (msgs/ms)", result.throughput_per_ms],
            ["goodput (msgs/ms)", result.goodput_per_ms],
            ["drop rate", result.drop_rate],
            ["deadline-miss rate", result.deadline_miss_rate],
            ["p50 latency (us)", result.latency_p50],
            ["p99 latency (us)", result.latency_p99],
            ["p999 latency (us)", result.latency_p999],
            ["mean latency (us)", result.latency_mean],
            ["queue-wait p99 (us)", result.queue_wait_p99],
            ["DES events", result.events_processed],
        ],
        notes=[f"{args.policy} policy, queue limit {queue_bound}, "
               f"worker pool {args.pool}, population "
               f"{args.population}",
               f"measured {measure_us:g} us after {args.warmup:g} us "
               "warmup; latency includes ingress-queue wait"])
    print(table.render())
    if trace_paths:
        print("trace: " + ", ".join(trace_paths))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.baseline import (default_path, rebaseline,
                                         set_default_path)
    from repro.validate.report import write_report
    if args.baseline is not None:
        set_default_path(args.baseline)
    try:
        if args.rebaseline:
            path = default_path()
            entries = maybe_profile(args, "rebaseline",
                                    lambda: rebaseline(path))
            print(f"baseline written: {path} "
                  f"({len(entries)} configurations pinned)")
            return 0
        experiment_id = "validate-quick" if args.quick \
            else "validate-full"
        result = maybe_profile(
            args, experiment_id,
            lambda: api.run_experiment(experiment_id,
                                       trace=args.trace))
    finally:
        if args.baseline is not None:
            set_default_path(None)
    print(result.render())
    report = result.extras["validation_report"]
    target = write_report(report, args.report)
    print(f"parity report: {target}")
    if result.trace_paths:
        print("trace: " + ", ".join(result.trace_paths))
    print(f"[{experiment_id} in {result.elapsed_s:.1f}s]")
    if not report.ok:
        print("validation FAILED: " + "; ".join(report.failures),
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Drive the experiment service: submit ids (with repeats) through
    the async queue, report per-job outcomes, optionally dump stats."""
    from repro.service import ExperimentService
    service = ExperimentService()
    try:
        handles = []
        rejected = 0
        for round_index in range(args.repeat):
            for experiment_id in args.ids:
                try:
                    handles.append(api.submit_experiment(
                        experiment_id, service=service))
                except ReproError as error:
                    rejected += 1
                    print(f"rejected   {experiment_id:<22} {error}",
                          file=sys.stderr)
        failures = 0
        for handle in handles:
            try:
                result = handle.result(timeout=args.timeout)
            except ReproError as error:
                failures += 1
                print(f"{handle.job_id:<10} "
                      f"{handle.experiment_id:<22} FAILED  {error}",
                      file=sys.stderr)
                continue
            how = "store-hit" if handle.store_hit else \
                "coalesced" if handle.coalesced else "executed"
            print(f"{handle.job_id:<10} {handle.experiment_id:<22} "
                  f"{handle.poll().value:<8} {how:<10} "
                  f"{result.elapsed_s:.2f}s")
        service.drain(timeout=args.timeout)
        if args.stats:
            print("\nservice stats:")
            for key, value in service.stats().items():
                print(f"  {key:<16} {value}")
        return 1 if failures or rejected else 0
    finally:
        service.shutdown(wait=True)


def _cmd_scoreboard(_args: argparse.Namespace) -> int:
    from repro.experiments.scoreboard import run_scoreboard
    table = run_scoreboard()
    print(table.render())
    failing = [row for row in table.rows if row[3] == "FAIL"]
    return 1 if failing else 0


# ----------------------------------------------------------------------
# stats: summarise a recorded JSONL trace
# ----------------------------------------------------------------------

def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.export import read_jsonl, validate_jsonl
    header = validate_jsonl(args.trace)
    _header, records = read_jsonl(args.trace)
    print(f"{args.trace}: schema {header['schema']}")
    run_config = header.get("config") or {}
    if run_config:
        print("config: " + ", ".join(
            f"{key}={value}" for key, value in sorted(
                run_config.items()) if not key.endswith("_source")))

    span_totals: dict[str, tuple[int, float]] = {}
    counters: dict[str, float] = {}
    work_busy: dict[tuple[str, str], float] = {}
    ledger_busy: dict[tuple[str, str], float] = {}
    for record in records:
        kind = record["type"]
        if kind == "span":
            count, total = span_totals.get(record["name"], (0, 0.0))
            span_totals[record["name"]] = (
                count + 1,
                total + record["end_s"] - record["start_s"])
        elif kind == "counter":
            counters[record["name"]] = counters.get(
                record["name"], 0.0) + record["value"]
        elif kind == "event":
            attrs = record.get("attrs", {})
            if record["name"] == "kernel.work":
                key = (attrs["processor"], attrs["label"])
                work_busy[key] = work_busy.get(key, 0.0) \
                    + attrs["duration_us"]
            elif record["name"] == "kernel.busy_by_label":
                key = (attrs["processor"], attrs["label"])
                ledger_busy[key] = attrs["busy_us"]

    top = sorted(span_totals.items(), key=lambda item: item[1][1],
                 reverse=True)[:args.top]
    if top:
        print("\ntop spans (by total wall time):")
        for name, (count, total) in top:
            print(f"  {name:<28} {count:>6} x  {total * 1e3:10.2f} ms")
    if counters:
        print("\ncounters:")
        for name, value in sorted(counters.items()):
            print(f"  {name:<32} {value:>12g}")

    if work_busy or ledger_busy:
        by_processor: dict[str, float] = {}
        for (processor, _label), busy in work_busy.items():
            by_processor[processor] = by_processor.get(processor, 0.0) \
                + busy
        print("\nper-processor busy (sim-time us, from kernel.work):")
        for processor, busy in sorted(by_processor.items()):
            print(f"  {processor:<24} {busy:12.1f}")
        if ledger_busy:
            mismatches = _reconcile(work_busy, ledger_busy)
            if mismatches:
                print("\nbusy_by_label reconciliation FAILED:")
                for line in mismatches:
                    print(f"  {line}")
                return 1
            print("busy_by_label reconciliation: OK "
                  f"({len(ledger_busy)} (processor, label) entries "
                  "match)")
    return 0


def _reconcile(work_busy: dict, ledger_busy: dict,
               tolerance: float = 1e-6) -> list[str]:
    """Compare per-(processor, label) sums of the two trace
    accountings; returns human-readable mismatch lines (empty = OK)."""
    problems = []
    for key, expected in sorted(ledger_busy.items()):
        actual = work_busy.get(key, 0.0)
        if abs(actual - expected) > tolerance * max(1.0, abs(expected)):
            problems.append(
                f"{key[0]}/{key[1]}: trace {actual:.3f} us vs ledger "
                f"{expected:.3f} us")
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hardware Support for Interprocess Communication "
                    "— reproduction toolkit")
    for knob in config.KNOBS:
        if knob.flag is not None:
            parser.add_argument(knob.flag, dest=knob.name, default=None,
                                help=f"{knob.help}; env {knob.env}")
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the run with repro.obs: Chrome-trace JSON at "
             "PATH, versioned JSONL next to it")
    parser.add_argument(
        "--profile", action="store_true",
        help="profile each experiment with cProfile; writes a pstats "
             "dump and a top-20 summary next to the output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.add_argument("--heavy", action="store_true",
                        help="include multi-minute experiments")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run experiments by id")
    p_run.add_argument("ids", nargs="*",
                       help="experiment ids (e.g. table-6.24)")
    p_run.add_argument("--all", action="store_true",
                       help="run every registered experiment")
    p_run.add_argument("--heavy", action="store_true",
                       help="with --all, include heavy experiments")
    p_run.add_argument("--save", metavar="DIR", default=None,
                       help="also write each artifact as JSON+CSV "
                            "under DIR")
    p_run.set_defaults(fn=_cmd_run)

    p_solve = sub.add_parser(
        "solve", help="solve one architecture model operating point")
    p_solve.add_argument("--arch", choices=[a.name for a in
                                            Architecture],
                         default="II")
    p_solve.add_argument("--mode", choices=["local", "nonlocal"],
                         default="local")
    p_solve.add_argument("-n", "--conversations", type=int, default=1)
    p_solve.add_argument("-x", "--compute", type=float, default=0.0,
                         help="server compute time per request (us)")
    p_solve.set_defaults(fn=_cmd_solve)

    p_score = sub.add_parser(
        "scoreboard",
        help="evaluate every paper claim against the library")
    p_score.set_defaults(fn=_cmd_scoreboard)

    p_sync = sub.add_parser(
        "sync-comparison",
        help="chapter-6 comparison grid per synchronization "
             "primitive: arch II under tas/cas/llsc/htm vs the "
             "arch III/IV smart bus (repro.models.syncmodel)")
    p_sync.add_argument(
        "-n", "--conversations", nargs="*", type=int,
        default=[1, 2, 3, 4],
        help="conversation counts to sweep (default 1 2 3 4)")
    p_sync.add_argument("--mode", choices=["local", "nonlocal"],
                        default="local")
    p_sync.add_argument("--save", metavar="DIR", default=None,
                        help="also write the artifact as JSON+CSV "
                             "under DIR")
    p_sync.set_defaults(fn=_cmd_sync_comparison)

    p_validate = sub.add_parser(
        "validate",
        help="three-way cross-validation: exact GTPN vs Monte Carlo "
             "vs kernel DES (repro.validate)")
    p_validate.add_argument(
        "--quick", action="store_true",
        help="4-configuration smoke grid (the CI gate); default is "
             "the full chapter-6 grid (heavy)")
    p_validate.add_argument(
        "--report", metavar="PATH", default="validation-report.json",
        help="machine-readable parity report destination (default: "
             "validation-report.json)")
    p_validate.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="exact-value baseline file (default: "
             "validation-baseline.json)")
    p_validate.add_argument(
        "--rebaseline", action="store_true",
        help="recompute and write the exact-value baseline (exact "
             "solves only), then exit")
    p_validate.set_defaults(fn=_cmd_validate)

    p_chaos = sub.add_parser(
        "chaos",
        help="sweep packet-fault intensity over the benchmark "
             "(repro.faults)")
    p_chaos.add_argument(
        "--arch", nargs="*", metavar="A",
        choices=[a.name for a in Architecture], default=None,
        help="architectures to sweep (default: II III)")
    p_chaos.add_argument(
        "--loss", nargs="*", type=float, metavar="RATE", default=None,
        help="packet loss rates to sweep (default: 0 0.01 0.02 0.05)")
    p_chaos.add_argument("-n", "--conversations", type=int, default=2)
    p_chaos.add_argument(
        "-x", "--compute", type=float, default=0.0,
        help="server compute time per request (us)")
    p_chaos.add_argument(
        "--measure", type=float, default=600_000.0, metavar="US",
        help="measurement window after warmup (us)")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_traffic = sub.add_parser(
        "traffic",
        help="run one open-arrival operating point (repro.traffic); "
             "--duration/--arrival-rate/--deadline/--queue-limit "
             "apply")
    p_traffic.add_argument(
        "--arch", choices=[a.name for a in Architecture], default="II")
    p_traffic.add_argument("--mode", choices=["local", "nonlocal"],
                           default="local")
    p_traffic.add_argument(
        "--process", choices=["poisson", "mmpp", "pareto"],
        default="poisson", help="arrival process shape")
    p_traffic.add_argument(
        "--load", type=float, default=0.8, metavar="F",
        help="offered load as a fraction of closed-loop capacity "
             "(default 0.8); --arrival-rate overrides with an "
             "absolute rate")
    p_traffic.add_argument(
        "--policy", choices=["drop", "reject", "backpressure"],
        default="drop", help="admission policy at a full ingress "
                             "queue")
    p_traffic.add_argument("--servers", type=int, default=4,
                           help="server tasks behind the service")
    p_traffic.add_argument(
        "--pool", type=int, default=32,
        help="bounded worker-task pool multiplexing the population")
    p_traffic.add_argument(
        "--population", type=int, default=1_000_000,
        help="logical client population multiplexed over the pool")
    p_traffic.add_argument(
        "--alpha", type=float, default=1.5,
        help="Pareto tail index (with --process pareto)")
    p_traffic.add_argument(
        "--burst-ratio", type=float, default=4.0,
        help="MMPP peak-to-mean rate ratio (with --process mmpp)")
    p_traffic.add_argument(
        "-x", "--compute", type=float, default=0.0,
        help="server compute time per request (us)")
    p_traffic.add_argument("--warmup", type=float, default=100_000.0,
                           metavar="US",
                           help="warmup before the measured window")
    p_traffic.add_argument(
        "--save", metavar="DIR",
        help="directory for --profile output (default: working "
             "directory)")
    p_traffic.set_defaults(fn=_cmd_traffic)

    p_serve = sub.add_parser(
        "serve",
        help="run experiments through the async experiment service "
             "(job queue, coalescing, result store; repro.service)")
    p_serve.add_argument("ids", nargs="+",
                         help="experiment ids to submit")
    p_serve.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="submit the id list N times (duplicates exercise "
             "coalescing and the result store; default 1)")
    p_serve.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="per-job result timeout in seconds (default 600)")
    p_serve.add_argument(
        "--stats", action="store_true",
        help="print the service stats snapshot after the queue drains")
    p_serve.set_defaults(fn=_cmd_serve)

    p_stats = sub.add_parser(
        "stats",
        help="summarise a recorded JSONL trace (top spans, counters, "
             "busy reconciliation)")
    p_stats.add_argument("trace", help="JSONL trace file (--trace "
                                       "writes one next to the Chrome "
                                       "trace)")
    p_stats.add_argument("--top", type=int, default=10, metavar="N",
                         help="span names to show (default 10)")
    p_stats.set_defaults(fn=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for knob in config.KNOBS:
        value = getattr(args, knob.name, None)
        if value is not None:
            try:
                config.set_cli(knob.name, value)
            except ReproError as error:
                parser.error(str(error))
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
