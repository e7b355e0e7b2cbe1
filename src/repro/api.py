"""The front-door experiment API: one call, one traced, configured run.

:func:`run_experiment` is the single entry point every consumer —
the CLI, the benchmarks, tests, notebooks — goes through to execute a
registered experiment:

    from repro import api

    result = api.run_experiment("figure-6.7", jobs=4, trace="out.json")
    result.artifact.render()
    result.obs_summary["counters"]

Keyword arguments are the knobs of :data:`repro.config.KNOBS` and
mirror the CLI flags exactly (``seed`` ↔ ``--seed``, ``sync`` ↔
``--sync``); they are applied through scoped
:func:`repro.config.overrides`, so the run sees the same precedence as
a CLI invocation and nothing leaks afterwards.  ``fault_plan``
installs a default :class:`~repro.faults.plan.FaultPlan` every
kernel-simulator system in the run is built under — the chaos CLI path
is just a plan plus an experiment id.

Since the experiment service landed, ``run_experiment`` is literally
``submit_experiment(...).result()`` through the service's **inline
lane**: the run executes synchronously in the calling thread (same
stack traces, same profiling, same obs bit-identity as ever) while
:func:`submit_experiment` exposes the asynchronous side — a
:class:`~repro.service.jobs.JobHandle` with ``poll`` / ``result`` /
``stream_events``, request coalescing, and an in-memory
content-addressed result store (:mod:`repro.service`).

``trace=PATH`` records the run with :mod:`repro.obs` and writes both
exports: a Chrome-trace JSON at *PATH* and the versioned JSONL stream
next to it.  The resolved configuration snapshot rides in both
headers.  Tracing never changes computed values (the bit-identity
contract of :mod:`repro.obs`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import config, obs
from repro.obs.clock import perf_now
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.recorder import Recorder


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one front-door run produced.

    ``artifact`` is the renderable :class:`~repro.experiments.\
    reporting.Table` / :class:`~repro.experiments.reporting.Figure`;
    ``values`` is its plain-data payload (table rows / figure series)
    for programmatic use.  ``obs_summary`` and ``trace_paths`` are
    populated only when the run was traced.
    """

    experiment_id: str
    kind: str                           # "table" | "figure"
    title: str
    artifact: Any
    values: Any
    config: dict                        # resolved-config snapshot
    elapsed_s: float
    obs_summary: dict | None = None
    trace_paths: tuple[str, ...] = field(default=())
    extras: dict = field(default_factory=dict)

    def render(self) -> str:
        return self.artifact.render()


# Per-thread so service worker threads and the caller's inline runs
# never cross-attach extras.
_extras_local = threading.local()


def attach_extra(name: str, value: Any) -> None:
    """Attach a side-channel object to the enclosing run's result.

    Some runners produce more than their renderable artifact — the
    validation harness, for instance, builds a full
    :class:`~repro.validate.report.ValidationReport` of which the table
    is only a summary.  Calling ``attach_extra`` inside a runner makes
    the object available as ``ExperimentResult.extras[name]`` without
    widening the ``runner() -> Artifact`` contract every experiment
    shares.  Outside a :func:`run_experiment` call this is a no-op.
    """
    stack = getattr(_extras_local, "stack", None)
    if stack:
        stack[-1][name] = value


def _artifact_values(artifact) -> Any:
    """The artifact's plain-data payload (rows for tables, series
    points for figures)."""
    rows = getattr(artifact, "rows", None)
    if rows is not None:
        return [list(row) for row in rows]
    series = getattr(artifact, "series", None)
    if series is not None:
        return {s.label: list(zip(s.x, s.y)) for s in series}
    return None


def _trace_targets(trace: str | Path) -> tuple[Path, Path]:
    """``(chrome_path, jsonl_path)`` for a ``--trace`` argument.

    A ``.jsonl`` argument puts the JSONL stream there and the Chrome
    trace at ``.json``; anything else is the Chrome trace with the
    JSONL stream as a ``.jsonl`` sibling.
    """
    path = Path(trace)
    if path.suffix == ".jsonl":
        return path.with_suffix(".json"), path
    return path, path.with_suffix(".jsonl")


def run_traced(label: str, fn: Callable[[], Any], *,
               trace: str | Path | None = None,
               ) -> tuple[Any, dict | None, tuple[str, ...]]:
    """Run ``fn()`` under the observability layer, exporting if asked.

    Returns ``(value, obs_summary, trace_paths)``.  With ``trace=None``
    this adds nothing: no recorder is installed (an outer one, e.g. a
    parent ``recording()`` block, keeps collecting) and the summary is
    ``None``.
    """
    if trace is None:
        return fn(), None, ()
    chrome_path, jsonl_path = _trace_targets(trace)
    recorder = Recorder()
    with obs.recording(recorder):
        with obs.span(label):
            value = fn()
        snapshot = config.resolved_config()
        write_chrome_trace(recorder, chrome_path, snapshot)
        write_jsonl(recorder, jsonl_path, snapshot)
        summary = recorder.summary()
    return value, summary, (str(chrome_path), str(jsonl_path))


def _execute_run(experiment_id: str, run_kwargs: dict,
                 trace: str | Path | None = None) -> ExperimentResult:
    """Execute one experiment under scoped configuration — the core
    both lanes of the service share.

    *run_kwargs* are :func:`config.overrides` keywords, already parsed
    by :func:`config.parse` at submission.  This is the only place an
    experiment actually runs; everything above it — queueing,
    coalescing, the result store — is routing.
    """
    from repro.experiments.registry import get_experiment
    experiment = get_experiment(experiment_id)
    with config.overrides(**run_kwargs):
        snapshot = config.resolved_config()
        started = perf_now()
        extras: dict = {}
        stack = getattr(_extras_local, "stack", None)
        if stack is None:
            stack = _extras_local.stack = []
        stack.append(extras)
        try:
            artifact, summary, trace_paths = run_traced(
                f"experiment:{experiment_id}", experiment.run,
                trace=trace)
        finally:
            stack.pop()
        elapsed = perf_now() - started
    return ExperimentResult(
        experiment_id=experiment_id, kind=experiment.kind,
        title=experiment.title, artifact=artifact,
        values=_artifact_values(artifact), config=snapshot,
        elapsed_s=elapsed, obs_summary=summary,
        trace_paths=trace_paths, extras=extras)


def run_experiment(experiment_id: str, *,
                   trace: str | Path | None = None,
                   **knobs) -> ExperimentResult:
    """Run one registered experiment with scoped configuration.

    *knobs* are the rows of :data:`repro.config.KNOBS` (``seed``,
    ``jobs``, ``sync``, ``fault_plan``, the open-arrival
    traffic knobs ``duration`` / ``arrival_rate`` / ``deadline`` /
    ``queue_limit``, ...), each ↔ its CLI flag.  A knob left out or
    passed as ``None`` means "whatever the surrounding CLI/env
    configuration says"; a value takes CLI precedence for this run
    only.  An unknown name or a malformed value raises
    :class:`~repro.errors.ConfigError` before anything runs.
    ``fault_plan`` makes every kernel-simulator system in the run
    honour the plan (chaos through the front door).  ``trace`` writes
    the Chrome-trace + JSONL pair.

    Equivalent to ``submit_experiment(...).result()`` through the
    service's inline lane: synchronous, in this thread, bypassing the
    queue, coalescing, and the result store.
    """
    from repro.service import default_service
    handle = default_service().submit(
        experiment_id, lane="inline", trace=trace, **knobs)
    return handle.result()


def submit_experiment(experiment_id: str, *, service=None,
                      trace: str | Path | None = None, **knobs):
    """Submit one experiment to the service; returns a
    :class:`~repro.service.jobs.JobHandle` immediately.

    The asynchronous sibling of :func:`run_experiment` (same keywords,
    same semantics once the job runs): the submission goes through the
    default :class:`~repro.service.ExperimentService` — request
    coalescing, the in-memory result store, one worker thread — and
    the handle exposes ``poll()`` / ``result(timeout)`` /
    ``stream_events()``.  Pass ``service=`` to target a specific
    service instance.
    """
    from repro.service import default_service
    svc = service if service is not None else default_service()
    return svc.submit(experiment_id, trace=trace, **knobs)
