"""Pluggable sweep executors behind one ``map_sweep`` front door.

The executor choice is configuration, not code: every sweep call site
(figures, tables, chaos, validation, traffic knees, the GTPN
structure-sharing engine) calls :func:`map_sweep`, which plans the
sweep (:func:`~repro.perf.backends.base.plan_jobs`) and routes the
parallel portion through whichever
:class:`~repro.perf.backends.base.ExecutorBackend` the run selected —
``--backend`` / ``REPRO_BACKEND`` / default ``local``:

* ``serial`` (:class:`~repro.perf.backends.serial.SerialBackend`) —
  everything in-process; debugging, profiling, one-CPU boxes.
* ``local`` (:class:`~repro.perf.backends.local.LocalPoolBackend`) —
  the persistent primed process pool, chunked ``pool.map``.
* ``sharded`` (:class:`~repro.perf.backends.sharded.ShardedBackend`)
  — per-worker chunk shards with parent-driven work stealing, for
  grids whose points vary wildly in cost.

Results are **bit-identical across backends** (asserted by
``tests/perf/test_backends.py``): a backend changes wall-clock time
and scheduling, never values.  Any backend failure — no fork support,
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
                                      ExecutorBackend, MapInfo,
                                      PoolBrokenError, default_jobs,
                                      plan_jobs, set_default_jobs)
from repro.perf.backends.local import LocalPoolBackend
from repro.perf.backends.serial import SerialBackend
from repro.perf.backends.sharded import ShardedBackend

__all__ = [
    "CHUNK_WAVES",
    "MIN_ITEMS_PER_JOB",
    "ExecutorBackend",
    "LocalPoolBackend",
    "MapInfo",
    "PoolBrokenError",
    "SerialBackend",
    "ShardedBackend",
    "default_jobs",
    "get_backend",
    "last_map_info",
    "map_sweep",
    "plan_jobs",
    "register_backend",
    "set_default_jobs",
    "shutdown_pool",
]

T = TypeVar("T")
R = TypeVar("R")

#: One shared instance per backend: process pools are expensive and
#: persistent, so backends are process-wide singletons like the cache.
_BACKENDS: dict[str, ExecutorBackend] = {
    SerialBackend.name: SerialBackend(),
    LocalPoolBackend.name: LocalPoolBackend(),
    ShardedBackend.name: ShardedBackend(),
}

_last_map_info: MapInfo | None = None

#: Failures that mean "this work cannot ship to a process backend" —
#: no fork support, unpicklable work items, a worker bootstrap crash.
_POOL_UNAVAILABLE = (OSError, pickle.PicklingError, ImportError,
                     TypeError, AttributeError)


def register_backend(backend: ExecutorBackend) -> None:
    """Install (or replace) a backend under ``backend.name``.

    The extension seam for executor families the core does not ship
    (remote workers, a cluster scheduler): registering makes the name
    selectable via ``--backend`` / ``REPRO_BACKEND`` / config
    overrides, provided :func:`repro.config.normalize_backend` knows
    the name (tests monkeypatch ``VALID_BACKENDS``).
    """
    _BACKENDS[backend.name] = backend


def get_backend(name: str | None = None) -> ExecutorBackend:
    """The configured (or named) executor backend instance."""
    resolved = name if name is not None else config.backend()
    try:
        return _BACKENDS[resolved]
    except KeyError:
        from repro.errors import ConfigError
        raise ConfigError(
            f"unknown executor backend {resolved!r}; registered: "
            f"{', '.join(sorted(_BACKENDS))}") from None


def last_map_info() -> MapInfo | None:
    """The :class:`MapInfo` of the most recent sweep, if any."""
    return _last_map_info


def shutdown_pool() -> None:
    """Tear down every backend's worker pool (atexit, tests)."""
    for backend in _BACKENDS.values():
        backend.shutdown()


def map_sweep(fn: Callable[..., R], items: Iterable[T], *,
              jobs: int | None = None, star: bool = False,
              chunksize: int | None = None,
              oversubscribe: bool = False,
              backend: ExecutorBackend | str | None = None) -> list[R]:
    """Map *fn* over *items*, in order, possibly across processes.

    ``star=True`` unpacks each item as positional arguments
    (``fn(*item)``); otherwise each item is passed whole (``fn(item)``).
    ``jobs=None`` uses :func:`default_jobs`.  The sweep is planned via
    :func:`plan_jobs` (serial fallback on small grids or one CPU) and
    chunked to ``ceil(items / (workers * CHUNK_WAVES))`` unless
    *chunksize* is given; :func:`last_map_info` reports what happened.
    ``backend`` overrides the configured executor for this sweep (an
    instance or a registered name).  An unusable pool (unpicklable
    work, no fork support) or a worker death mid-task falls back to
    the serial path; exceptions raised by *fn* itself propagate.
    """
    global _last_map_info
    work: Sequence[T] = list(items)
    jobs_requested = default_jobs() if jobs is None else \
        config.validate_jobs(jobs, "jobs")
    if isinstance(backend, str) or backend is None:
        chosen = get_backend(backend)
    else:
        chosen = backend
    n_jobs, reason = plan_jobs(len(work), jobs_requested,
                               oversubscribe=oversubscribe)
    if n_jobs > 1 and chosen.name == "serial":
        n_jobs, reason = 1, "serial backend selected"
    with obs.span("pool.map", items=len(work),
                  jobs_requested=jobs_requested,
                  backend=chosen.name) as map_span:
        if n_jobs > 1:
            chunk = chunksize if chunksize else max(
                1, math.ceil(len(work) / (n_jobs * CHUNK_WAVES)))
            try:
                results = chosen.submit_map(fn, work, n_jobs=n_jobs,
                                            star=star, chunksize=chunk)
            except PoolBrokenError:
                # the backend already reaped the dead pool; run this
                # sweep in-process and let the next one start fresh
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
                                         len(work), chunk,
                                         backend=chosen.name)
                map_span.set(**_last_map_info.as_dict())
                return results
        _last_map_info = MapInfo("serial", reason, jobs_requested, 1,
                                 len(work), None,
                                 backend=SerialBackend.name)
        map_span.set(**_last_map_info.as_dict())
        return _BACKENDS["serial"].submit_map(fn, work, n_jobs=1,
                                              star=star, chunksize=1)
