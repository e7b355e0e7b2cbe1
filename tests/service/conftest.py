"""Shared fixtures for the experiment-service suite.

Service tests run against tiny synthetic experiments (registered with
the scoped :func:`~repro.experiments.registry.temporary_experiment`)
instead of real chapter-6 grids, so the suite exercises queueing,
coalescing, and the store at millisecond cost.  Every test gets a
clean config/obs slate and a torn-down default service.
"""

from __future__ import annotations

import threading

import pytest

from repro import config, obs
from repro.experiments import Experiment
from repro.experiments.reporting import Table
from repro.perf.backends import map_sweep
from repro.service import reset_default_service


@pytest.fixture(autouse=True)
def _clean_state():
    config.reset()
    obs.uninstall()
    yield
    reset_default_service()
    config.reset()
    obs.uninstall()


def _inc(x):
    return x + 1


class ToyTracker:
    """Observable side effects of toy-experiment executions."""

    def __init__(self):
        self.runs: list[int | None] = []   # seed per execution
        self.gate: threading.Event | None = None
        self.started = threading.Semaphore(0)


def make_toy(experiment_id: str = "toy-exp",
             tracker: ToyTracker | None = None,
             fail: bool = False) -> Experiment:
    """A synthetic table experiment: seed-dependent values, exactly
    one ``map_sweep`` item (so a traced execution emits exactly one
    ``pool.task`` span), optional gate to hold executions open."""
    def runner() -> Table:
        if tracker is not None:
            tracker.started.release()
            if tracker.gate is not None:
                assert tracker.gate.wait(timeout=30.0)
        if fail:
            from repro.errors import ReproError
            raise ReproError("toy runner failed on purpose")
        seed = config.get("seed")
        if tracker is not None:
            tracker.runs.append(seed)
        (total,) = map_sweep(_inc, [seed if seed is not None else 0])
        return Table(experiment_id=experiment_id, title="toy",
                     headers=["metric", "value"],
                     rows=[["seed", seed], ["total", total]])
    return Experiment(experiment_id, "toy", "table", runner)
