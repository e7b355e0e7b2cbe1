"""The experiment service: an async job queue in front of the runner.

:class:`ExperimentService` turns the synchronous front door
(:func:`repro.api.run_experiment`) into a service: submissions return
a :class:`~repro.service.jobs.JobHandle` immediately and a small pool
of worker threads drains the queue.  The submission path applies, in
order:

1. **Result store** — a :class:`~repro.service.jobs.JobKey` hit in the
   :class:`~repro.service.store.ResultStore` answers without queueing.
2. **Coalescing** — an in-flight execution of the same key gains a
   subscriber instead of a duplicate queue entry: one execution, N
   handles, every ``result()`` the same object.
3. **Admission** — the same policy triad the open-arrival traffic
   engine applies at the kernel port, lifted to the service tier:
   ``drop`` sheds silently (the handle reports
   :class:`~repro.service.jobs.JobStatus.DROPPED`), ``reject`` raises
   :class:`~repro.errors.AdmissionError` at the submit call, and
   ``backpressure`` blocks the submitter until the queue has room.
   ``tenant_quota`` bounds any single tenant's queued jobs so one
   noisy tenant cannot starve the rest.

**Concurrency model.**  Submission and handle APIs are fully
thread-safe; *executions are serialised* by a process-wide re-entrant
lock (``_EXEC_LOCK``) because :mod:`repro.config` is process-global
state — the same reason the analysis layer forks worker *processes*
rather than threads.  Parallelism inside a run still comes from the
local process pool (:mod:`repro.perf.backends`); the service's worker
threads exist for overlap of queueing, waiting, and lifecycle
bookkeeping, not compute.  The **inline lane**
(``submit(..., lane="inline")``, what ``run_experiment`` uses)
executes synchronously in the calling thread under the same lock,
bypassing the queue, coalescing, and the store — bit-identical,
profiler-friendly, and re-entrant (a submission made *from* a worker
thread — any service's worker in the process, since they all share
``_EXEC_LOCK`` — degrades to the inline lane automatically instead of
deadlocking the queue).

Observability is built in: each job runs under a ``service.job`` span,
queue depth is a gauge, coalescing/store hits are counters, and job
latency feeds a :class:`~repro.obs.metrics.QuantileSketch` whose
p50/p99 surface through :meth:`ExperimentService.stats` and
``repro serve --stats``.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, deque

from repro import config, obs
from repro.errors import AdmissionError, ConfigError, ServiceError
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

VALID_POLICIES = ("drop", "reject", "backpressure")


class ExperimentService:
    """Async job queue + coalescing + result store + admission."""

    def __init__(self, *, workers: int = 2, queue_depth: int = 64,
                 policy: str = "backpressure",
                 tenant_quota: int | None = None,
                 store: ResultStore | None = None,
                 coalesce: bool = True):
        if policy not in VALID_POLICIES:
            raise ConfigError(
                f"unknown admission policy {policy!r}; valid: "
                f"{', '.join(VALID_POLICIES)}")
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        if queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {queue_depth!r}")
        self.policy = policy
        self.queue_depth = queue_depth
        self.tenant_quota = tenant_quota
        self.coalesce = coalesce
        self.store = store if store is not None else \
            ResultStore(directory=config.result_dir())
        self._n_workers = workers
        self._queue: deque[tuple[_Execution, str]] = deque()
        self._pending: dict[str, _Execution] = {}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._state_change = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._busy = 0
        self._shutdown = False
        self._counters: Counter = Counter()
        self._tenant_submitted: Counter = Counter()
        self._tenant_queued: Counter = Counter()
        self._latency = QuantileSketch()
        self._job_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, experiment_id: str, *, tenant: str = "default",
               lane: str = "async", trace=None,
               **run_kwargs) -> JobHandle:
        """Submit one experiment; returns a handle immediately.

        *run_kwargs* are :func:`repro.config.overrides` keywords
        (``seed=7``, ``jobs=2``, ...) — the shape
        :func:`repro.api.submit_experiment` produces.  ``lane`` is
        ``"async"`` (queue) or ``"inline"`` (execute now, in this
        thread, bypassing queue/coalescing/store).

        A submission that raises at this call — admission ``reject``,
        or the service shutting down while it queued/waited — counts
        as ``rejected`` in :meth:`stats`, keeping the ledger invariant
        ``submitted == executed + failed + coalesced + store_hits +
        dropped + rejected + inline``.
        """
        if lane not in ("async", "inline"):
            raise ServiceError(
                f"unknown lane {lane!r}; valid: 'async', 'inline'")
        job_id = f"job-{next(self._job_seq)}"
        self._counters["submitted"] += 1
        self._tenant_submitted[tenant] += 1
        if lane == "inline" or \
                threading.get_ident() in _WORKER_THREADS:
            return self._submit_inline(job_id, experiment_id,
                                       run_kwargs, trace, tenant)
        key = build_job_key(experiment_id, run_kwargs)
        # traced jobs produce side files and a per-run recorder; they
        # are never coalesced with (or answered for) untraced twins
        shareable = trace is None
        if shareable:
            hit = self._store_hit(job_id, experiment_id, key,
                                  run_kwargs, tenant)
            if hit is not None:
                return hit
        with self._lock:
            backpressured = False
            while True:
                if self._shutdown:
                    self._counters["rejected"] += 1
                    obs.add("service.rejected")
                    raise ServiceError(
                        "service shut down while submission was "
                        "backpressured" if backpressured else
                        "service is shut down; no new submissions")
                if shareable and self.coalesce:
                    existing = self._pending.get(key.digest)
                    if existing is not None:
                        existing.subscribers += 1
                        self._counters["coalesced"] += 1
                        existing.mark("coalesced", job_id=job_id,
                                      subscribers=existing.subscribers)
                        obs.add("service.coalesce_hit")
                        return JobHandle(job_id, existing, tenant,
                                         coalesced=True)
                    # the twin may have finished between the store
                    # probe above (or the last backpressure wait) and
                    # now: re-check the store so a unique point never
                    # executes twice
                    hit = self._store_hit(job_id, experiment_id, key,
                                          run_kwargs, tenant)
                    if hit is not None:
                        return hit
                verdict = self._blocked(tenant)
                if verdict is None:
                    break
                if self.policy == "reject":
                    self._counters["rejected"] += 1
                    obs.add("service.rejected")
                    raise AdmissionError(
                        f"submission {job_id} ({experiment_id}) "
                        f"rejected: {verdict}", policy="reject",
                        tenant=tenant)
                if self.policy == "drop":
                    self._counters["dropped"] += 1
                    obs.add("service.dropped")
                    execution = _Execution(experiment_id, key,
                                           run_kwargs, trace=trace)
                    execution.mark("dropped", status=JobStatus.DROPPED,
                                   reason=verdict)
                    return JobHandle(job_id, execution, tenant)
                # backpressure: wait for room, then loop back through
                # the dedup block — a twin submitted (or finished) while
                # we slept must coalesce/store-hit, not enqueue a
                # duplicate execution of the same key
                if not backpressured:
                    backpressured = True
                    self._counters["backpressured"] += 1
                    obs.add("service.backpressured")
                self._state_change.wait()
            execution = _Execution(experiment_id, key, run_kwargs,
                                   trace=trace)
            if shareable and self.coalesce:
                self._pending[key.digest] = execution
            self._queue.append((execution, tenant))
            self._tenant_queued[tenant] += 1
            self._ensure_workers()
            self._not_empty.notify()
            obs.gauge("service.queue_depth", len(self._queue))
        execution.mark("submitted", job_id=job_id, key=str(key),
                       tenant=tenant)
        return JobHandle(job_id, execution, tenant)

    def _store_hit(self, job_id: str, experiment_id: str, key,
                   run_kwargs: dict, tenant: str) -> JobHandle | None:
        """A completed handle from the result store, or ``None``."""
        cached = self.store.get(key)
        if cached is None:
            return None
        self._counters["store_hits"] += 1
        execution = _Execution(experiment_id, key, run_kwargs)
        execution.mark("store-hit", status=JobStatus.DONE,
                       result=cached, key=str(key))
        obs.add("service.store_hit")
        return JobHandle(job_id, execution, tenant, store_hit=True)

    def _submit_inline(self, job_id: str, experiment_id: str,
                       run_kwargs: dict, trace, tenant: str) -> JobHandle:
        """Execute now, in the calling thread: the synchronous lane
        behind ``run_experiment`` and worker-thread re-entrancy."""
        from repro import api
        self._counters["inline"] += 1
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
        return JobHandle(job_id, execution, tenant)

    def _blocked(self, tenant: str) -> str | None:
        """Admission check under ``self._lock``, without waiting.

        Returns ``None`` to admit, or the reason the queue cannot take
        the job right now; the submit loop decides whether to raise
        (``reject``), shed (``drop``), or wait and retry the whole
        dedup+admission sequence (``backpressure``).
        """
        if len(self._queue) >= self.queue_depth:
            return (f"queue full ({len(self._queue)}/"
                    f"{self.queue_depth})")
        if self.tenant_quota is not None and \
                self._tenant_queued[tenant] >= self.tenant_quota:
            return (f"tenant {tenant!r} at quota "
                    f"({self.tenant_quota} queued)")
        return None

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        """Start worker threads lazily (under ``self._lock``): a
        service used only through the inline lane never spawns any."""
        while len(self._threads) < self._n_workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-{len(self._threads)}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def _worker_loop(self) -> None:
        ident = threading.get_ident()
        _WORKER_THREADS.add(ident)
        try:
            while True:
                with self._lock:
                    while not self._queue and not self._shutdown:
                        self._not_empty.wait()
                    if self._shutdown and not self._queue:
                        return
                    execution, tenant = self._queue.popleft()
                    self._tenant_queued[tenant] -= 1
                    self._busy += 1
                    self._state_change.notify_all()
                    obs.gauge("service.queue_depth", len(self._queue))
                try:
                    self._run_one(execution)
                finally:
                    with self._lock:
                        self._busy -= 1
                        if execution.key is not None:
                            digest = execution.key.digest
                            # only evict our own registration: traced
                            # executions have a key but never register,
                            # and popping blindly would strip an
                            # untraced twin's in-flight entry, breaking
                            # its coalescing
                            if self._pending.get(digest) is execution:
                                del self._pending[digest]
                        self._state_change.notify_all()
        finally:
            _WORKER_THREADS.discard(ident)

    def _run_one(self, execution: _Execution) -> None:
        execution.mark("started", status=JobStatus.RUNNING)
        started = perf_now()
        with _EXEC_LOCK:
            from repro import api
            try:
                with obs.span("service.job",
                              experiment=execution.experiment_id,
                              key=str(execution.key)):
                    result = api._execute_run(execution.experiment_id,
                                              execution.run_kwargs,
                                              trace=execution.trace)
            except Exception as error:
                self._counters["failed"] += 1
                obs.add("service.failed")
                execution.mark("failed", status=JobStatus.FAILED,
                               error=error)
                return
        elapsed = perf_now() - started
        self._latency.add(elapsed)
        self._counters["executed"] += 1
        obs.add("service.executed")
        if execution.trace is None and execution.key is not None:
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
            if not self._state_change.wait_for(
                    lambda: not self._queue and self._busy == 0,
                    timeout):
                raise ServiceError(
                    f"service did not drain within {timeout}s "
                    f"({len(self._queue)} queued, {self._busy} "
                    "running)")

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions and release worker threads.

        ``wait=True`` finishes already-queued jobs first; ``False``
        lets the daemon threads die with the process (their queued
        executions stay ``QUEUED`` forever — callers holding handles
        should pass a timeout to ``result``).
        """
        with self._lock:
            self._shutdown = True
            self._not_empty.notify_all()
            self._state_change.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)

    def stats(self) -> dict:
        """One queryable snapshot: counters, depths, latency, tiers."""
        from repro.perf.backends import local_pool
        with self._lock:
            latency = {"count": self._latency.count}
            if self._latency.count:
                latency["p50_s"] = self._latency.quantile(0.5)
                latency["p99_s"] = self._latency.quantile(0.99)
                latency["mean_s"] = self._latency.mean()
            return {
                "policy": self.policy,
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_depth,
                "busy": self._busy,
                "workers": len(self._threads),
                "submitted": self._counters["submitted"],
                "executed": self._counters["executed"],
                "inline": self._counters["inline"],
                "coalesced": self._counters["coalesced"],
                "store_hits": self._counters["store_hits"],
                "dropped": self._counters["dropped"],
                "rejected": self._counters["rejected"],
                "backpressured": self._counters["backpressured"],
                "failed": self._counters["failed"],
                "tenants": dict(self._tenant_submitted),
                "latency": latency,
                "store": self.store.stats(),
                "pool": local_pool().describe(),
            }
