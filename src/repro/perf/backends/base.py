"""Sweep planning shared by :func:`repro.perf.backends.map_sweep` and
the process pool: :func:`plan_jobs` (the serial-fallback policy),
:class:`MapInfo` (how the most recent sweep actually executed) and
:class:`PoolBrokenError` (a worker died and the pool was reaped).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro import config

#: Below this many grid points per worker, pool start-up + IPC beat the
#: win from parallelism (BENCH_perf.json showed 0.98x on an 18-point
#: grid with a fresh pool); the planner shrinks the pool or goes serial.
MIN_ITEMS_PER_JOB = 4

#: Auto chunking aims for this many chunks per worker: big enough to
#: amortise per-task pickling, small enough to keep workers balanced.
CHUNK_WAVES = 4


class PoolBrokenError(RuntimeError):
    """A worker process died mid-task and the pool has been reaped.

    Raised by the pool *after* tearing the broken pool down, so the
    orchestrator can degrade to the serial path with a recorded reason
    and the next sweep starts from a fresh pool instead of retrying
    into a hung executor.
    """


@dataclass(frozen=True)
class MapInfo:
    """How the most recent :func:`map_sweep` actually executed."""

    mode: str                   # "serial" | "parallel"
    reason: str | None          # why serial (None when parallel)
    jobs_requested: int
    jobs_used: int
    items: int
    chunk_size: int | None      # None on the serial path

    def as_dict(self) -> dict:
        return {"mode": self.mode, "reason": self.reason,
                "jobs_requested": self.jobs_requested,
                "jobs_used": self.jobs_used, "items": self.items,
                "chunk_size": self.chunk_size}

    def describe(self) -> str:
        """Human-readable one-liner for report notes and benchmarks."""
        if self.mode == "serial":
            return f"sweep ran serially ({self.reason})"
        return (f"sweep ran on {self.jobs_used} workers, chunk size "
                f"{self.chunk_size}")


def plan_jobs(n_items: int, jobs: int | None = None, *,
              oversubscribe: bool = False) -> tuple[int, str | None]:
    """Decide how a sweep of *n_items* should execute.

    Returns ``(worker_count, reason)``: 1 worker means serial, and
    *reason* says why.  ``oversubscribe=True`` skips the single-CPU
    check (tests exercise the pool protocol on one-core machines).
    """
    n_jobs = config.get("jobs") if jobs is None else \
        config.knob("jobs").parse(jobs, "jobs")
    if n_jobs <= 1:
        return 1, "serial requested (jobs=1)"
    if n_items <= 1:
        return 1, f"{n_items} grid point(s): nothing to fan out"
    if not oversubscribe and (os.cpu_count() or 1) == 1:
        return 1, "single CPU: worker processes cannot run concurrently"
    fitting = n_items // MIN_ITEMS_PER_JOB
    if fitting <= 1:
        return 1, (f"{n_items} points across {n_jobs} workers is below "
                   f"the {MIN_ITEMS_PER_JOB}-points-per-worker "
                   "threshold")
    return min(n_jobs, fitting, n_items), None

