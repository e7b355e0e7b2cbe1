"""One ``map_sweep`` front door for every grid sweep.

Every sweep call site (figures, tables, chaos, validation, traffic
knees, model grids) calls :func:`map_sweep`, which plans the sweep
(:func:`~repro.perf.backends.base.plan_jobs`) and either runs it in
the calling process or fans it out over the persistent local process
pool (:class:`~repro.perf.backends.local.LocalPoolBackend`).

Results are **bit-identical on both paths** (asserted by
``tests/perf/test_backends.py``): the pool changes wall-clock time and
scheduling, never values.  Any pool failure — no process support,
unpicklable work, a worker death mid-task — degrades the sweep to the
serial path with the reason recorded in :func:`last_map_info`, so
callers never special-case broken environments.
"""

from __future__ import annotations

import math
import pickle
from typing import Callable, Iterable, Sequence, TypeVar

from repro import config, obs
from repro.perf.backends.base import (CHUNK_WAVES, MIN_ITEMS_PER_JOB,
                                      MapInfo, PoolBrokenError,
                                      plan_jobs)
from repro.perf.backends.local import LocalPoolBackend

__all__ = [
    "CHUNK_WAVES",
    "MIN_ITEMS_PER_JOB",
    "LocalPoolBackend",
    "MapInfo",
    "PoolBrokenError",
    "last_map_info",
    "local_pool",
    "map_sweep",
    "plan_jobs",
    "shutdown_pool",
]

T = TypeVar("T")
R = TypeVar("R")

#: The process-wide pool: worker start-up is expensive, so one pool
#: persists across sweeps.
_POOL = LocalPoolBackend()

_last_map_info: MapInfo | None = None

#: Failures that mean "this work cannot ship to the pool" — no process
#: support, unpicklable work items, a worker bootstrap crash.
_POOL_UNAVAILABLE = (OSError, pickle.PicklingError, ImportError,
                     TypeError, AttributeError)


def local_pool() -> LocalPoolBackend:
    """The process-wide pool (stats and tests)."""
    return _POOL


def last_map_info() -> MapInfo | None:
    """The :class:`MapInfo` of the most recent sweep, if any."""
    return _last_map_info


def shutdown_pool() -> None:
    """Tear down the worker pool (atexit, tests)."""
    _POOL.shutdown()


def _serial_map(fn: Callable, work: Sequence, star: bool) -> list:
    """Ordered in-process execution, one ``pool.task`` span per item
    when a recorder is installed (the same trace schema as the pool)."""
    if obs.current() is None:
        if star:
            return [fn(*item) for item in work]
        return [fn(item) for item in work]
    results = []
    for index, item in enumerate(work):
        with obs.span("pool.task", index=index):
            results.append(fn(*item) if star else fn(item))
    return results


def map_sweep(fn: Callable[..., R], items: Iterable[T], *,
              jobs: int | None = None, star: bool = False,
              chunksize: int | None = None,
              oversubscribe: bool = False) -> list[R]:
    """Map *fn* over *items*, in order, possibly across processes.

    ``star=True`` unpacks each item as positional arguments
    (``fn(*item)``); otherwise each item is passed whole (``fn(item)``).
    ``jobs=None`` uses the ``jobs`` knob of :mod:`repro.config`.  The
    sweep is planned via :func:`plan_jobs` (serial fallback on small
    grids or one CPU) and chunked to
    ``ceil(items / (workers * CHUNK_WAVES))`` unless *chunksize* is
    given; :func:`last_map_info` reports what happened.
    An unusable pool (unpicklable work, no process support) or a
    worker death mid-task falls back to the serial path; exceptions
    raised by *fn* itself propagate.
    """
    global _last_map_info
    work: Sequence[T] = list(items)
    jobs_requested = config.get("jobs") if jobs is None else \
        config.knob("jobs").parse(jobs, "jobs")
    n_jobs, reason = plan_jobs(len(work), jobs_requested,
                               oversubscribe=oversubscribe)
    with obs.span("pool.map", items=len(work),
                  jobs_requested=jobs_requested) as map_span:
        if n_jobs > 1:
            chunk = chunksize if chunksize else max(
                1, math.ceil(len(work) / (n_jobs * CHUNK_WAVES)))
            try:
                results = _POOL.submit_map(fn, work, n_jobs=n_jobs,
                                           star=star, chunksize=chunk)
            except PoolBrokenError:
                # the pool already reaped itself; run this sweep
                # in-process and let the next one start fresh
                reason = ("worker pool broke (a worker process died "
                          "mid-task); pool reaped, degraded to serial")
            except _POOL_UNAVAILABLE:
                # pool unavailable or work not shippable: solve
                # in-process.  Genuine errors raised by fn itself
                # re-raise from the serial pass.
                reason = "worker pool unavailable (unpicklable work " \
                         "or no process support)"
            else:
                _last_map_info = MapInfo("parallel", None,
                                         jobs_requested, n_jobs,
                                         len(work), chunk)
                map_span.set(**_last_map_info.as_dict())
                return results
        _last_map_info = MapInfo("serial", reason, jobs_requested, 1,
                                 len(work), None)
        map_span.set(**_last_map_info.as_dict())
        return _serial_map(fn, work, star)
