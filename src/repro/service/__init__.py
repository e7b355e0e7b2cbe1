"""The experiment service: async jobs, coalescing, a result store.

The service tier reframes the front door as *submission* instead of
*call*: the paper's thesis — a shared kernel service multiplexing many
clients over scarce execution resources — applied to the repro's own
evaluation pipeline.

    from repro import api

    handle = api.submit_experiment("figure-6.7", seed=7)
    handle.poll()                       # JobStatus.QUEUED / RUNNING…
    result = handle.result(timeout=60)  # the same ExperimentResult
    for ev in handle.stream_events():   # lifecycle as it happened
        print(ev.kind, ev.detail)

Pieces (one module each):

* :class:`ExperimentService` (:mod:`repro.service.queue`) — the
  unbounded job queue, its one worker thread, the inline lane, request
  coalescing, and the stats snapshot behind ``repro serve --stats``.
* :class:`~repro.service.jobs.JobKey` / :class:`~repro.service.jobs.\
JobHandle` (:mod:`repro.service.jobs`) — content-addressed job
  identity (structure × timing, the analysis cache's split) and the
  caller's view of an execution.
* :class:`~repro.service.store.ResultStore`
  (:mod:`repro.service.store`) — the in-memory LRU of finished
  results; it lives as long as its service.

:func:`default_service` is the process-wide instance
:func:`repro.api.run_experiment` and :func:`repro.api.\
submit_experiment` route through; tests build private instances.
"""

from __future__ import annotations

import atexit
import threading

from repro.service.jobs import (JobEvent, JobHandle, JobKey, JobStatus,
                                build_job_key)
from repro.service.queue import ExperimentService
from repro.service.store import ResultStore

__all__ = [
    "ExperimentService",
    "JobEvent",
    "JobHandle",
    "JobKey",
    "JobStatus",
    "ResultStore",
    "build_job_key",
    "default_service",
    "reset_default_service",
]

_default: ExperimentService | None = None
_default_lock = threading.Lock()
_atexit_registered = False


def default_service() -> ExperimentService:
    """The process-wide service instance (created on first use)."""
    global _default, _atexit_registered
    with _default_lock:
        if _default is None:
            _default = ExperimentService()
            if not _atexit_registered:
                atexit.register(reset_default_service)
                _atexit_registered = True
        return _default


def reset_default_service() -> None:
    """Shut down and discard the default service (tests, atexit)."""
    global _default
    with _default_lock:
        service, _default = _default, None
    if service is not None:
        service.shutdown(wait=True)
