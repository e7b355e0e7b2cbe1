"""Bench for the open-arrival hot path: a million offered messages.

The tentpole guarantee of :mod:`repro.traffic`: offering ``>= 10**6``
messages through the kernel DES completes inside the CI smoke budget,
in *bounded* memory (counters + quantile sketches, no per-message
retention — and a bounded MP examination backlog even under receive
livelock), while the event loop sustains a floor rate.  Records wall
time, events/s and memory peak to ``BENCH_perf.json`` so the perf
trajectory of the open-loop DES is comparable across PRs.

The floor is deliberately a small fraction of the recorded rate
(≈0.64M events/s on the 2-vCPU reference container, see
``traffic-million-offered`` in ``BENCH_perf.json``; the same container
has measured anywhere from 0.43M to 0.66M between runs): it catches an
accidental hot-path regression (a stray allocation or callback per
event), not machine variance.
"""

from __future__ import annotations

import tracemalloc

from repro.models.params import Architecture, Mode
from repro.obs.clock import perf_now
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import run_open_experiment

#: Minimum events per wall-clock second for the open-loop DES.
MIN_EVENTS_PER_S = 100_000.0

#: Minimum offered messages for the smoke run.
MIN_OFFERED = 1_000_000

#: Peak traced allocation allowed for a bounded-memory open run (MiB).
#: Counters + sketches + the capped queues need well under one; the
#: generous bound only has to exclude per-message retention, which
#: would cost tens of MiB at this scale.
MAX_PEAK_MIB = 16.0


def _million_message_point(measure_us: float):
    """Far past saturation with drop admission: every message costs
    an arrival event and (capped) examination work — the leanest
    per-message path, which is exactly what the floor guards."""
    return run_open_experiment(
        Architecture.II, Mode.LOCAL, PoissonArrivals(0.05),
        servers=4, warmup_us=0.0, measure_us=measure_us,
        pool_size=32, queue_limit=32, policy="drop", seed=0)


def test_bench_million_offered_messages(perf_record):
    started = perf_now()
    result = _million_message_point(measure_us=20_000_000.0)
    wall_s = perf_now() - started

    counts = result.counts
    events_per_s = result.events_processed / wall_s
    perf_record(
        bench="traffic-million-offered",
        offered=counts.offered,
        completed=counts.completed,
        dropped=counts.dropped,
        events_processed=result.events_processed,
        wall_s=wall_s,
        events_per_s=events_per_s,
        offered_per_s=counts.offered / wall_s,
        latency_bins=result.meter.latency.bin_count,
        min_events_per_s=MIN_EVENTS_PER_S,
    )
    assert counts.offered >= MIN_OFFERED
    assert counts.offered == counts.admitted + counts.dropped
    assert events_per_s >= MIN_EVENTS_PER_S, \
        f"open-loop DES regressed to {events_per_s:.0f} events/s " \
        f"(floor {MIN_EVENTS_PER_S:.0f})"
    # distribution state stays tiny no matter how many messages flowed
    assert result.meter.latency.bin_count < 2_000


def test_bench_open_run_memory_is_bounded(perf_record):
    """Same overload point, shorter horizon, traced allocations: the
    peak must reflect sketches and capped queues, not message count."""
    tracemalloc.start(1)
    try:
        result = _million_message_point(measure_us=2_000_000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mib = peak / 2**20
    perf_record(
        bench="traffic-memory-bound",
        offered=result.counts.offered,
        peak_mib=peak_mib,
        max_peak_mib=MAX_PEAK_MIB,
        latency_bins=result.meter.latency.bin_count,
    )
    assert result.counts.offered > 90_000
    assert peak_mib < MAX_PEAK_MIB, \
        f"open run peaked at {peak_mib:.1f} MiB " \
        f"(bound {MAX_PEAK_MIB} MiB): per-message state is leaking"
