"""The persistent local process pool behind every fanned-out sweep.

:class:`LocalPoolBackend` keeps one
:class:`~concurrent.futures.ProcessPoolExecutor` per (worker count,
trace spill directory), reused across sweeps so later grids skip
process start-up entirely.  Its initializer pays the analysis/sweep
imports in each worker before the first task.  Work ships as *tasks*,
each a list of items run in order by one worker: contiguous chunks for
an ungrouped sweep, or every point of one structure for a grouped one
(:func:`~repro.perf.backends.map_sweep`).  Each worker keeps its own
process-wide skeleton store, so a grouped sweep builds each structure
once, on the worker its task lands on, and re-times it for the rest
of the group.

The pool registers its own ``atexit`` teardown when the executor is
first created, and a worker that dies mid-task (``BrokenProcessPool``)
is *reaped immediately*: the pool is shut down and
:class:`~repro.perf.backends.base.PoolBrokenError` raised, so
:func:`~repro.perf.backends.map_sweep` degrades that sweep to the
serial path with a recorded reason, and the next sweep builds a fresh
pool instead of retrying into a hung executor.

When a recorder is installed (:mod:`repro.obs`), each work item runs
under a ``pool.task`` span carrying its input index — in workers those
spans spill to per-pid JSONL files that the parent merges back after
the sweep
(:mod:`repro.obs.sink`), so one trace shows per-worker task timing
across the whole process tree.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from typing import Callable, Sequence

from repro import obs
from repro.obs import sink
from repro.perf.backends.base import PoolBrokenError

try:
    from concurrent.futures.process import BrokenProcessPool as \
        _BrokenPool
except ImportError:                                    # pragma: no cover
    class _BrokenPool(RuntimeError):
        pass


_parent_spill_dir: str | None = None


def _trace_spill_dir() -> str | None:
    """The spill directory workers should report traces into, if any."""
    global _parent_spill_dir
    if obs.current() is None:
        return None
    if _parent_spill_dir is None:
        _parent_spill_dir = tempfile.mkdtemp(prefix="repro-obs-")
        atexit.register(shutil.rmtree, _parent_spill_dir,
                        ignore_errors=True)
    return _parent_spill_dir


def _worker_init(spill_dir: str | None) -> None:
    """Runs once per worker process: mirror the parent's trace setup
    and pay the heavy imports before the first task."""
    sink.set_spill_dir(spill_dir)
    try:
        import repro.gtpn.sweep        # noqa: F401
    except ImportError:                                # pragma: no cover
        pass


def _run_task(payload: tuple[Callable, bool, bool, list]) -> list:
    """One task: its ``(index, item)`` pairs, in order.  Traced, each
    item runs under a ``pool.task`` span and the task spills after."""
    fn, star, traced, pairs = payload
    if not traced:
        return [fn(*item) if star else fn(item) for _index, item in pairs]
    results = []
    for index, item in pairs:
        with obs.span("pool.task", index=index):
            results.append(fn(*item) if star else fn(item))
    sink.flush_current()
    return results


class LocalPoolBackend:
    """Persistent process pool: tasks of items dispatched in order,
    results in input order and bit-identical to a serial pass."""

    def __init__(self):
        self._pool = None
        self._key: tuple | None = None
        self._atexit_registered = False

    @property
    def executor(self):
        """The live executor, or ``None`` (introspection/tests)."""
        return self._pool

    def _get(self, n_jobs: int):
        """The pool for *n_jobs* workers, rebuilt when its key changes."""
        spill_dir = _trace_spill_dir()
        key = (n_jobs, spill_dir)
        if self._pool is not None and self._key != key:
            self.shutdown()
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(
                max_workers=n_jobs, initializer=_worker_init,
                initargs=(spill_dir,))
            self._key = key
            if not self._atexit_registered:
                atexit.register(self.shutdown)
                self._atexit_registered = True
        return self._pool

    def submit_map(self, fn: Callable, work: Sequence, *, n_jobs: int,
                   star: bool, tasks: Sequence[Sequence[int]]) -> list:
        """Run *fn* over *work* on *n_jobs* workers, in input order.

        *tasks* partitions the indices of *work*: each task ships as
        one list and runs on one worker, and tasks are dispatched in
        the given order.  A pool that cannot start or work that cannot
        ship raises; a worker death reaps the pool and raises
        :class:`~repro.perf.backends.base.PoolBrokenError`.
        """
        pool = self._get(n_jobs)
        recorder = obs.current()
        payloads = [(fn, star, recorder is not None,
                     [(index, work[index]) for index in task])
                    for task in tasks]
        results: list = [None] * len(work)
        try:
            for task, task_results in zip(tasks,
                                          pool.map(_run_task, payloads)):
                for index, result in zip(task, task_results):
                    results[index] = result
        except _BrokenPool as error:
            # a broken executor never recovers: drop it (its shutdown
            # also reclaims the dead children) so the next sweep starts
            # a fresh one
            self.shutdown()
            raise PoolBrokenError(str(error)) from error
        if recorder is not None and _parent_spill_dir is not None:
            sink.merge_spills(recorder, _parent_spill_dir)
        return results

    def shutdown(self) -> None:
        """Release the worker processes; idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._key = None

    def describe(self) -> str:
        """One line for ``repro serve --stats``."""
        state = "live" if self._pool is not None else "idle"
        return f"local persistent process pool ({state})"
