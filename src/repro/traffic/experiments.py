"""Registered open-arrival experiments: the knee and chaos-under-load.

The knee sweep is the open-loop counterpart of figures 6.18-6.23: each
architecture is offered Poisson traffic at fractions of its *exact*
closed-loop capacity (from :func:`repro.models.solve.solve`), so the
x-axis is directly comparable across architectures and the knee —
where p99/p999 latency departs from the flat region and drops begin —
appears at the same relative position the analytical model predicts
saturation.  Points fan out over :func:`repro.perf.backends.map_sweep`
like every other sweep (``--jobs``), with identical results at any
job count.

Chaos-under-load composes :mod:`repro.faults` with a bursty MMPP
spike: packet loss all along, plus a server-node outage timed inside
the spike, reported as a before/during/after phase table.

All runners honour the global traffic knobs (``--duration`` /
``--deadline`` / ``--queue-limit`` and their environment variables);
the knobs are resolved in the parent so pool workers see explicit
values.
"""

from __future__ import annotations

from repro import config
from repro.experiments.reporting import Figure, Series, Table
from repro.faults.chaos import CHAOS_POLICY
from repro.faults.plan import FaultPlan
from repro.faults.schedule import NodeOutage, PacketFaultSpec
from repro.models.params import Architecture, Mode
from repro.models.solve import solve
from repro.perf.backends import last_map_info, map_sweep
from repro.seeding import resolve_seed
from repro.traffic.arrivals import MMPPArrivals, PoissonArrivals
from repro.traffic.engine import run_open_experiment
from repro.traffic.metrics import TrafficResult

#: Offered load as fractions of the exact closed-loop capacity; spans
#: the flat region, the knee, and past saturation.
DEFAULT_LOAD_FRACTIONS = (0.2, 0.5, 0.8, 1.0, 1.2, 1.5)

QUICK_ARCHITECTURES = (Architecture.II,)
FULL_ARCHITECTURES = (Architecture.I, Architecture.II,
                      Architecture.III, Architecture.IV)

#: Defaults a set ``--queue-limit`` / ``--deadline`` knob overrides.
DEFAULT_QUEUE_LIMIT = 64
DEFAULT_SERVERS = 4
DEFAULT_POOL = 32


def closed_loop_capacity(architecture: Architecture, mode: Mode,
                         servers: int,
                         mean_compute: float = 0.0) -> float:
    """Exact saturated throughput (round trips per us) with *servers*
    conversations — the load axis is normalised to this."""
    return solve(architecture, mode, servers,
                 compute_time=mean_compute).throughput


def _knee_point(architecture: Architecture, mode: Mode,
                fraction: float, rate_per_us: float, servers: int,
                mean_compute: float, queue_bound: int,
                deadline_us: float | None, seed: int,
                warmup_us: float,
                measure_us: float) -> TrafficResult:
    """One picklable grid point for :func:`map_sweep`."""
    return run_open_experiment(
        architecture, mode, PoissonArrivals(rate_per_us),
        servers=servers, mean_compute=mean_compute,
        warmup_us=warmup_us, measure_us=measure_us,
        pool_size=DEFAULT_POOL, queue_limit=queue_bound,
        policy="drop", deadline_us=deadline_us, seed=seed)


def _pool_note() -> str:
    info = last_map_info()
    if info is None or info.mode == "serial":
        reason = info.reason if info is not None else "no sweep ran"
        return f"sweep ran serially ({reason})"
    return (f"sweep ran on {info.jobs_used} workers, chunk size "
            f"{info.chunk_size}")


def knee_figure(experiment_id: str,
                architectures=QUICK_ARCHITECTURES, *,
                mode: Mode = Mode.LOCAL,
                fractions=DEFAULT_LOAD_FRACTIONS,
                servers: int = DEFAULT_SERVERS,
                mean_compute: float = 0.0,
                seed: int | None = None,
                warmup_us: float = 100_000.0,
                measure_us: float = 1_000_000.0,
                jobs: int | None = None) -> Figure:
    """Offered load vs tail latency / goodput across architectures."""
    architectures = tuple(architectures)
    fractions = tuple(sorted(fractions))
    seed = resolve_seed(seed, fallback=0)
    measure_us = config.get("duration") or measure_us
    deadline_us = config.get("deadline")
    queue_bound = config.get("queue_limit") or DEFAULT_QUEUE_LIMIT

    points = []
    for arch in architectures:
        capacity = closed_loop_capacity(arch, mode, servers,
                                        mean_compute)
        for fraction in fractions:
            points.append((arch, mode, fraction, fraction * capacity,
                           servers, mean_compute, queue_bound,
                           deadline_us, seed, warmup_us, measure_us))
    results = map_sweep(_knee_point, points, jobs=jobs, star=True)

    series = []
    it = iter(results)
    for arch in architectures:
        arch_results = [next(it) for _f in fractions]
        xs = list(fractions)
        for label, values in (
                ("p50 (us)", [r.latency_p50 for r in arch_results]),
                ("p99 (us)", [r.latency_p99 for r in arch_results]),
                ("p999 (us)", [r.latency_p999 for r in arch_results]),
                ("goodput (msgs/ms)",
                 [r.goodput_per_ms for r in arch_results]),
                ("drop rate",
                 [r.drop_rate for r in arch_results]),
                ("deadline-miss rate",
                 [r.deadline_miss_rate for r in arch_results])):
            series.append(Series(f"arch {arch.name} {label}", xs,
                                 values))
    notes = [
        "x = offered load as a fraction of the exact closed-loop "
        f"capacity with {servers} conversations "
        "(repro.models.solve); knee at x ~ 1 by construction",
        f"Poisson arrivals, {mode.name.lower()} mode, drop policy, "
        f"queue limit {queue_bound}, worker pool {DEFAULT_POOL}, "
        f"seed={seed}",
        f"measured {measure_us:g} us after {warmup_us:g} us warmup; "
        "latencies include ingress-queue wait",
        ("deadline " + format(deadline_us, "g") + " us")
        if deadline_us else "no deadline set (--deadline)",
        _pool_note()]
    return Figure(
        experiment_id=experiment_id,
        title="Open-arrival load/latency knee "
              f"({'/'.join(a.name for a in architectures)})",
        x_label="offered load (fraction of closed-loop capacity)",
        y_label="latency (us) / goodput / rates",
        series=series, notes=notes)


def knee_quick_figure(**kwargs) -> Figure:
    return knee_figure("traffic-knee-quick", QUICK_ARCHITECTURES,
                       **kwargs)


def knee_full_figure(**kwargs) -> Figure:
    return knee_figure("traffic-knee", FULL_ARCHITECTURES, **kwargs)


def chaos_under_load_table(architecture: Architecture =
                           Architecture.II, *,
                           servers: int = DEFAULT_SERVERS,
                           loss_rate: float = 0.01,
                           seed: int | None = None,
                           spike_start_us: float = 300_000.0,
                           spike_end_us: float = 600_000.0,
                           horizon_us: float = 900_000.0) -> Table:
    """Traffic spike + packet loss + outage, composed.

    A bursty MMPP source (on-state at several times the sustainable
    rate, dwell times sized so bursts and lulls both occur within the
    horizon) runs over a lossy network while the server node rides
    through a crash/recovery; rejections, deadline misses, and
    failures tell apart admission control (load shedding) from the
    retransmission protocol (fault masking).
    """
    seed = resolve_seed(seed, fallback=0)
    measure_us = config.get("duration")
    if measure_us:
        horizon_us = measure_us
        spike_start_us = horizon_us / 3.0
        spike_end_us = 2.0 * horizon_us / 3.0
    deadline_us = config.get("deadline") or 5_000.0
    queue_bound = config.get("queue_limit") or 16

    capacity = closed_loop_capacity(architecture, Mode.NONLOCAL,
                                    servers)
    base_rate = config.get("arrival_rate")
    base = base_rate / 1e3 if base_rate else 0.3 * capacity
    spike = MMPPArrivals(
        rate_on_per_us=3.0 * capacity, rate_off_per_us=base,
        mean_on_us=spike_end_us - spike_start_us,
        mean_off_us=spike_start_us)
    outage_start = spike_start_us + (spike_end_us - spike_start_us) / 3
    outage_end = spike_start_us + 2 * (spike_end_us - spike_start_us) / 3
    plan = FaultPlan(
        spec=PacketFaultSpec(drop_rate=loss_rate),
        outages=(NodeOutage("servers", outage_start, outage_end),),
        policy=CHAOS_POLICY, seed=seed)

    result = run_open_experiment(
        architecture, Mode.NONLOCAL, spike, servers=servers,
        warmup_us=0.0, measure_us=horizon_us, pool_size=DEFAULT_POOL,
        queue_limit=queue_bound, policy="reject",
        deadline_us=deadline_us, seed=seed, faults=plan)
    counts = result.counts
    rows = [
        ["offered", counts.offered],
        ["admitted", counts.admitted],
        ["completed", counts.completed],
        ["goodput (in deadline)", counts.goodput],
        ["rejected (admission)", counts.rejected],
        ["failed (transport)", counts.failed],
        ["deadline misses", counts.deadline_misses],
        ["p50 latency (us)", result.latency_p50],
        ["p99 latency (us)", result.latency_p99],
        ["p999 latency (us)", result.latency_p999],
    ]
    return Table(
        experiment_id="traffic-chaos",
        title="Chaos under load: MMPP spike + packet loss + outage",
        headers=["metric", "value"],
        rows=rows,
        notes=[
            f"arch {architecture.name} non-local, {servers} servers; "
            f"MMPP bursts at 3x closed-loop capacity (mean on dwell "
            f"{spike_end_us - spike_start_us:g} us) over a "
            f"{horizon_us:g} us run",
            f"packet loss {loss_rate:g}, server outage on "
            f"[{outage_start:g}, {outage_end:g}) us",
            f"reject policy, queue limit {queue_bound}, deadline "
            f"{deadline_us:g} us, seed={seed}",
            "rejections are admission control shedding load; "
            "failures are the retransmission protocol giving up"])
