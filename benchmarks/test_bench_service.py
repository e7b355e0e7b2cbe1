"""Bench for the experiment service: submission throughput + dedupe.

Drives a mixed batch (half duplicates) of tiny synthetic experiments
through :class:`~repro.service.ExperimentService` and records jobs/s
and the dedupe ratio (coalesced + store hits over submissions) to
``BENCH_perf.json``.  The floors are deliberately conservative — the
point of the record is the trajectory across PRs, the assertions only
guard against the service becoming pathologically slow or the dedupe
machinery silently dying.
"""

from __future__ import annotations

from repro import config
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.obs.clock import perf_now
from repro.service import ExperimentService

#: Conservative throughput floor for a mostly-deduped batch of
#: trivial jobs (each unique point is a sub-millisecond table build).
MIN_JOBS_PER_S = 20.0

_BATCH = 200
_UNIQUE = 100


def _toy_experiment() -> Experiment:
    def runner() -> Table:
        seed = config.get("seed")
        return Table(experiment_id="bench-svc", title="bench",
                     headers=["k", "v"], rows=[["seed", seed]])
    return Experiment("bench-svc", "bench", "table", runner)


def test_bench_service_throughput_and_dedupe(perf_record):
    with temporary_experiment(_toy_experiment()):
        service = ExperimentService()
        try:
            started = perf_now()
            handles = [service.submit("bench-svc", seed=n % _UNIQUE)
                       for n in range(_BATCH)]
            for handle in handles:
                handle.result(timeout=120)
            service.drain(timeout=120)
            elapsed = perf_now() - started
        finally:
            service.shutdown()
    stats = service.stats()
    jobs_per_s = _BATCH / elapsed
    deduped = stats["coalesced"] + stats["store_hits"]
    dedupe_ratio = deduped / _BATCH
    perf_record(
        bench="service_mixed_batch", submissions=_BATCH,
        unique_points=_UNIQUE, wall_s=elapsed,
        jobs_per_s=jobs_per_s, executed=stats["executed"],
        coalesced=stats["coalesced"], store_hits=stats["store_hits"],
        dedupe_ratio=dedupe_ratio,
        latency_p50_s=stats["latency"].get("p50_s"),
        latency_p99_s=stats["latency"].get("p99_s"))
    print(f"\nservice: {jobs_per_s:.0f} jobs/s, dedupe "
          f"{dedupe_ratio:.0%} ({stats['coalesced']} coalesced + "
          f"{stats['store_hits']} store hits), executed "
          f"{stats['executed']}/{_BATCH}")
    assert stats["executed"] == _UNIQUE
    assert dedupe_ratio == (_BATCH - _UNIQUE) / _BATCH
    assert jobs_per_s >= MIN_JOBS_PER_S
