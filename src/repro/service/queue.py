"""The experiment service: an async job queue in front of the runner.

:class:`ExperimentService` turns the synchronous front door
(:func:`repro.api.run_experiment`) into a service: submissions return
a :class:`~repro.service.jobs.JobHandle` immediately and one worker
thread drains an unbounded queue in submission order.  Under the
service lock a submission first looks for an in-flight execution of
the same :class:`~repro.service.jobs.JobKey` (**coalescing**: one
execution, N handles, every ``result()`` the same object), then for a
finished one in the :class:`~repro.service.store.ResultStore`; only a
miss on both enqueues.  The one probe is race-free because the worker
puts a result to the store *before* it drops the in-flight entry under
the same lock, so a key is always in one of the two places until the
store evicts it.

**Concurrency model.**  Submission and handle APIs are fully
thread-safe; *executions are serialised* by a process-wide re-entrant
lock (``_EXEC_LOCK``) because :mod:`repro.config` is process-global
state — the same reason the analysis layer forks worker *processes*
rather than threads.  Parallelism inside a run still comes from the
local process pool (:mod:`repro.perf.backends`); the worker thread
only lets callers keep submitting and waiting while a job runs.  The
**inline lane** (``submit(..., lane="inline")``, what
``run_experiment`` uses) executes synchronously in the calling thread
under the same lock, bypassing the queue, coalescing, and the store —
bit-identical, profiler-friendly, and re-entrant (a submission made
*from* a worker thread — any service's worker in the process, since
they all share ``_EXEC_LOCK`` — degrades to the inline lane
automatically instead of deadlocking the queue).

Observability is built in: each job runs under a ``service.job`` span,
queue depth is a gauge, coalescing/store hits are counters, and job
latency — from taking ``_EXEC_LOCK`` to the result, so time spent
waiting for another run does not count — feeds a
:class:`~repro.obs.metrics.QuantileSketch` whose p50/p99 surface
through :meth:`ExperimentService.stats` and ``repro serve --stats``.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, deque

from repro import config, obs
from repro.errors import ServiceError
from repro.obs.clock import perf_now
from repro.obs.metrics import QuantileSketch
from repro.service.jobs import (JobHandle, JobStatus, _Execution,
                                build_job_key)
from repro.service.store import ResultStore

#: Serialises every experiment execution across the process:
#: :mod:`repro.config` overrides are process-global, so two runs may
#: never mutate them concurrently.  Submission never takes this lock
#: (key resolution is read-only), so callers keep submitting while a
#: job runs.  Re-entrant so an experiment that calls back into the
#: front door (inline lane) nests instead of deadlocking.
_EXEC_LOCK = threading.RLock()

#: Thread idents of every live service worker in the *process*, across
#: all :class:`ExperimentService` instances.  Any of them may hold
#: ``_EXEC_LOCK`` mid-run, so a submission from any worker thread —
#: including a worker of a *different* service — must degrade to the
#: inline lane: queueing it and blocking in ``result()`` would leave
#: the target service's worker waiting on a lock the submitter holds.
#: Workers remove themselves on exit so a recycled thread ident never
#: misroutes a fresh submitter.
_WORKER_THREADS: set[int] = set()


class ExperimentService:
    """Async job queue + coalescing + in-memory result store.

    ``store`` replaces the default :class:`ResultStore` (tests size
    its LRU to force eviction).
    """

    def __init__(self, *, store: ResultStore | None = None):
        self.store = store if store is not None else ResultStore()
        self._queue: deque[_Execution] = deque()
        self._pending: dict[str, _Execution] = {}
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._worker: threading.Thread | None = None
        self._busy = 0
        self._shutdown = False
        self._counters: Counter = Counter()
        self._latency = QuantileSketch()
        self._job_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, experiment_id: str, *, lane: str = "async",
               trace=None, **run_kwargs) -> JobHandle:
        """Submit one experiment; returns a handle immediately.

        *run_kwargs* are knobs of :data:`repro.config.KNOBS`
        (``seed=7``, ``jobs=2``, ...), parsed here: an unknown name or
        a malformed value raises :class:`~repro.errors.ConfigError` at
        this call and is never counted or queued.  ``lane`` is
        ``"async"`` (queue) or ``"inline"`` (execute now, in this
        thread, bypassing queue/coalescing/store).

        A submission to a shut-down service raises
        :class:`~repro.errors.ServiceError` and counts as ``rejected``
        in :meth:`stats`, keeping the ledger invariant ``submitted ==
        executed + failed + coalesced + store_hits + rejected +
        inline``.
        """
        if lane not in ("async", "inline"):
            raise ServiceError(
                f"unknown lane {lane!r}; valid: 'async', 'inline'")
        run_kwargs = config.parse(run_kwargs)
        inline = lane == "inline" or \
            threading.get_ident() in _WORKER_THREADS
        key = None if inline else build_job_key(experiment_id, run_kwargs)
        job_id = f"job-{next(self._job_seq)}"
        with self._lock:
            self._counters["submitted"] += 1
            if not inline:
                return self._submit_async(job_id, experiment_id, key,
                                          run_kwargs, trace)
            self._counters["inline"] += 1
        return self._submit_inline(job_id, experiment_id, run_kwargs,
                                   trace)

    def _submit_async(self, job_id: str, experiment_id: str, key,
                      run_kwargs: dict, trace) -> JobHandle:
        """Coalesce onto an in-flight twin, answer from the store, or
        enqueue — all under ``self._lock``, so a twin submitted
        concurrently sees this one's registration."""
        if self._shutdown:
            self._counters["rejected"] += 1
            obs.add("service.rejected")
            raise ServiceError("service is shut down; no new submissions")
        # traced jobs produce side files and a per-run recorder; they
        # are never coalesced with (or answered for) untraced twins
        shareable = trace is None
        if shareable:
            existing = self._pending.get(key.digest)
            if existing is not None:
                existing.subscribers += 1
                self._counters["coalesced"] += 1
                existing.mark("coalesced", job_id=job_id,
                              subscribers=existing.subscribers)
                obs.add("service.coalesce_hit")
                return JobHandle(job_id, existing, coalesced=True)
            cached = self.store.get(key)
            if cached is not None:
                self._counters["store_hits"] += 1
                execution = _Execution(experiment_id, key, run_kwargs)
                execution.mark("store-hit", status=JobStatus.DONE,
                               result=cached, key=str(key))
                obs.add("service.store_hit")
                return JobHandle(job_id, execution, store_hit=True)
        execution = _Execution(experiment_id, key, run_kwargs,
                               trace=trace)
        execution.mark("submitted", job_id=job_id, key=str(key))
        if shareable:
            self._pending[key.digest] = execution
        self._queue.append(execution)
        self._ensure_worker()
        self._changed.notify_all()
        obs.gauge("service.queue_depth", len(self._queue))
        return JobHandle(job_id, execution)

    def _submit_inline(self, job_id: str, experiment_id: str,
                       run_kwargs: dict, trace) -> JobHandle:
        """Execute now, in the calling thread: the synchronous lane
        behind ``run_experiment`` and worker-thread re-entrancy."""
        from repro import api
        execution = _Execution(experiment_id, None, run_kwargs,
                               trace=trace)
        with _EXEC_LOCK:
            try:
                result = api._execute_run(experiment_id, run_kwargs,
                                          trace=trace)
            except Exception as error:
                execution.status = JobStatus.FAILED
                execution.error = error
            else:
                execution.status = JobStatus.DONE
                execution.result = result
        return JobHandle(job_id, execution)

    # ------------------------------------------------------------------
    # the worker
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        """Start the worker thread lazily (under ``self._lock``): a
        service used only through the inline lane never spawns it."""
        if self._worker is None:
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-service",
                daemon=True)
            self._worker.start()

    def _worker_loop(self) -> None:
        ident = threading.get_ident()
        _WORKER_THREADS.add(ident)
        try:
            while True:
                with self._lock:
                    while not self._queue and not self._shutdown:
                        self._changed.wait()
                    if not self._queue:
                        return
                    execution = self._queue.popleft()
                    self._busy = 1
                    obs.gauge("service.queue_depth", len(self._queue))
                try:
                    self._run_one(execution)
                finally:
                    with self._lock:
                        self._busy = 0
                        # only evict our own registration: traced
                        # executions have a key but never register, and
                        # popping blindly would strip an untraced twin's
                        # in-flight entry, breaking its coalescing
                        digest = execution.key.digest
                        if self._pending.get(digest) is execution:
                            del self._pending[digest]
                        self._changed.notify_all()
        finally:
            _WORKER_THREADS.discard(ident)

    def _run_one(self, execution: _Execution) -> None:
        from repro import api
        # the job stays QUEUED, and its clock stopped, while another
        # run holds the lock
        with _EXEC_LOCK:
            execution.mark("started", status=JobStatus.RUNNING)
            started = perf_now()
            try:
                with obs.span("service.job",
                              experiment=execution.experiment_id,
                              key=str(execution.key)):
                    result = api._execute_run(execution.experiment_id,
                                              execution.run_kwargs,
                                              trace=execution.trace)
            except Exception as error:
                with self._lock:
                    self._counters["failed"] += 1
                obs.add("service.failed")
                execution.mark("failed", status=JobStatus.FAILED,
                               error=error)
                return
            elapsed = perf_now() - started
        with self._lock:
            self._latency.add(elapsed)
            self._counters["executed"] += 1
        obs.add("service.executed")
        if execution.trace is None:
            self.store.put(execution.key, result)
        execution.mark("done", status=JobStatus.DONE, result=result,
                       elapsed_s=elapsed,
                       subscribers=execution.subscribers)

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Block until the queue is empty and no job is running."""
        with self._lock:
            if not self._changed.wait_for(
                    lambda: not self._queue and not self._busy,
                    timeout):
                raise ServiceError(
                    f"service did not drain within {timeout}s "
                    f"({len(self._queue)} queued, {self._busy} "
                    "running)")

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions and release the worker thread.

        ``wait=True`` finishes already-queued jobs first; ``False``
        lets the daemon thread die with the process (its queued
        executions stay ``QUEUED`` forever — callers holding handles
        should pass a timeout to ``result``).
        """
        with self._lock:
            self._shutdown = True
            self._changed.notify_all()
        if wait and self._worker is not None:
            self._worker.join(timeout=30.0)

    def stats(self) -> dict:
        """One queryable snapshot: counters, depth, latency, store."""
        from repro.perf.backends import local_pool
        with self._lock:
            latency = {"count": self._latency.count}
            if self._latency.count:
                latency["p50_s"] = self._latency.quantile(0.5)
                latency["p99_s"] = self._latency.quantile(0.99)
                latency["mean_s"] = self._latency.mean()
            return {
                "queue_depth": len(self._queue),
                "busy": self._busy,
                "workers": int(self._worker is not None),
                "submitted": self._counters["submitted"],
                "executed": self._counters["executed"],
                "inline": self._counters["inline"],
                "coalesced": self._counters["coalesced"],
                "store_hits": self._counters["store_hits"],
                "rejected": self._counters["rejected"],
                "failed": self._counters["failed"],
                "latency": latency,
                "store": self.store.stats(),
                "pool": local_pool().describe(),
            }
