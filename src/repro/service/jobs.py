"""Job identity and handles for the experiment service.

Two ideas live here, both borrowed from layers the repo already
trusts:

* :class:`JobKey` — the service's content address, split **structure ×
  timing** exactly like the analysis cache's
  :class:`~repro.perf.cache.NetFingerprint`: the *structure* half
  names what system is being evaluated (the experiment id, then every
  ``structure`` knob of :data:`repro.config.KNOBS`: sync primitive,
  fault plan, queue limit), the *timing* half names
  the stochastic and load parameters (every ``timing`` knob: seed,
  duration, arrival rate, deadline).  Both halves are derived from the
  knobs' roles, so a knob that changes values cannot be left out.  Two
  submissions with equal keys are the same computation — the basis for
  request coalescing and the content-addressed result store.
  The execution knob ``jobs`` and ``trace`` are deliberately
  **excluded**: they change wall-clock time and scheduling, never
  values (the bit-identity contract the backends suite pins), so they
  must not fragment the address space.

* :class:`JobHandle` — one submission's view of a (possibly shared)
  execution: ``poll()`` for the current :class:`JobStatus`,
  ``result(timeout)`` to block for the :class:`~repro.api.\
ExperimentResult`, ``stream_events()`` to follow the lifecycle as it
  happens.  N coalesced submissions hold N handles onto one
  :class:`_Execution`; the execution runs once and every handle's
  ``result()`` returns the same object.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro import config
from repro.errors import ServiceError
from repro.obs.clock import perf_now


class JobStatus(Enum):
    """Lifecycle of one submission, in order; two terminal states."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED)


def _digest(parts: tuple) -> str:
    """Stable short hex digest of a tuple of primitives."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class JobKey:
    """Content address of one experiment evaluation, structure×timing.

    Hashable and order-insensitive to submission: equal keys mean the
    same computation.  ``digest`` addresses the in-flight map and the
    store; the split halves are kept separate so stats and logs can
    say *which half* differed between two near-miss submissions.
    """

    structure: tuple                # (experiment_id, sync, fault_plan, …)
    timing: tuple                   # (seed, duration, rate, deadline)

    @property
    def structure_digest(self) -> str:
        return _digest(self.structure)

    @property
    def timing_digest(self) -> str:
        return _digest(self.timing)

    @property
    def digest(self) -> str:
        return _digest((self.structure, self.timing))

    def __str__(self) -> str:
        return f"{self.structure_digest}x{self.timing_digest}"


def build_job_key(experiment_id: str, run_kwargs: dict) -> JobKey:
    """Resolve a submission to its :class:`JobKey` at submit time.

    *run_kwargs* are :func:`repro.config.overrides` keywords, parsed
    here (an unknown name or a malformed value raises
    :class:`~repro.errors.ConfigError`), so ``sync="CAS"`` and
    ``sync="cas"``, or ``duration=500000`` and a
    ``REPRO_DURATION=500000`` env resolution, key equally.  Knobs the
    caller left unset resolve through the surrounding CLI/env
    configuration **now**, so a submission made under ``REPRO_SEED=7``
    and one passing ``seed=7`` explicitly coalesce — they are the same
    run.  Resolution reads :func:`repro.config.ambient_config` — one
    consistent snapshot that excludes scoped overrides installed by
    whatever job happens to be running — so a submission keyed while
    another job executes can never absorb that job's parameters into
    its identity (which would alias two different computations onto
    one store/coalesce address).

    The halves are built by role from :data:`repro.config.KNOBS`:
    every ``structure`` knob after the experiment id, every ``timing``
    knob in the timing half, each in table order; ``execution`` knobs
    stay out.
    """
    values = {**config.ambient_config(), **config.parse(run_kwargs)}
    halves: dict[str, list] = {"structure": [experiment_id],
                               "timing": []}
    for knob in config.KNOBS:
        if knob.role in halves:
            halves[knob.role].append(knob.render(values[knob.name]))
    return JobKey(structure=tuple(halves["structure"]),
                  timing=tuple(halves["timing"]))


@dataclass(frozen=True)
class JobEvent:
    """One timestamped lifecycle event (``submitted``, ``started``,
    ``coalesced``, ``store-hit``, ``done``, ``failed``)."""

    ts: float                       # perf_now() at emission
    kind: str
    detail: dict = field(default_factory=dict)


class _Execution:
    """Shared state behind one unique job key: one run, N subscribers.

    All mutation happens under ``cond``; waiters (``result``,
    ``stream_events``, ``drain``) wake on every transition.  Events are
    append-only, so streaming readers never see a mutation race.
    """

    def __init__(self, experiment_id: str, key: JobKey | None,
                 run_kwargs: dict, trace=None):
        self.experiment_id = experiment_id
        self.key = key
        self.run_kwargs = run_kwargs
        self.trace = trace
        self.status = JobStatus.QUEUED
        self.result = None
        self.error: BaseException | None = None
        self.events: list[JobEvent] = []
        self.subscribers = 1
        self.submitted_at = perf_now()
        self.cond = threading.Condition()

    def mark(self, kind: str, status: JobStatus | None = None,
             result=None, error: BaseException | None = None,
             **detail) -> None:
        """Record an event, optionally transitioning status/result."""
        with self.cond:
            if status is not None:
                self.status = status
            if result is not None:
                self.result = result
            if error is not None:
                self.error = error
            self.events.append(JobEvent(perf_now(), kind, detail))
            self.cond.notify_all()


class JobHandle:
    """One submission's view of its (possibly coalesced) execution."""

    def __init__(self, job_id: str, execution: _Execution, *,
                 coalesced: bool = False, store_hit: bool = False):
        self.job_id = job_id
        #: True when this submission attached to an in-flight
        #: execution of the same :class:`JobKey` instead of enqueueing.
        self.coalesced = coalesced
        #: True when the result came straight from the result store.
        self.store_hit = store_hit
        self._execution = execution

    @property
    def experiment_id(self) -> str:
        return self._execution.experiment_id

    @property
    def key(self) -> JobKey | None:
        return self._execution.key

    def poll(self) -> JobStatus:
        """The job's current status, without blocking."""
        return self._execution.status

    def done(self) -> bool:
        return self._execution.status.terminal

    def result(self, timeout: float | None = None):
        """Block for the :class:`~repro.api.ExperimentResult`.

        Re-raises the run's exception if it failed; raises
        :class:`~repro.errors.ServiceError` on timeout.
        """
        execution = self._execution
        with execution.cond:
            if not execution.cond.wait_for(
                    lambda: execution.status.terminal, timeout):
                raise ServiceError(
                    f"job {self.job_id} ({execution.experiment_id}) "
                    f"still {execution.status.value} after {timeout}s")
            if execution.status is JobStatus.FAILED:
                raise execution.error
            return execution.result

    def stream_events(self, timeout: float | None = None,
                      ) -> Iterator[JobEvent]:
        """Yield lifecycle events in order until the job is terminal.

        Safe to call after completion (replays the history) or while
        the job runs (blocks between events, *timeout* per wait).
        """
        execution = self._execution
        seen = 0
        while True:
            with execution.cond:
                if seen >= len(execution.events) and \
                        not execution.status.terminal:
                    if not execution.cond.wait_for(
                            lambda: len(execution.events) > seen or
                            execution.status.terminal, timeout):
                        raise ServiceError(
                            f"job {self.job_id}: no lifecycle event "
                            f"within {timeout}s")
                batch = execution.events[seen:]
                seen += len(batch)
                finished = execution.status.terminal and \
                    seen >= len(execution.events)
            yield from batch
            if finished:
                return
