"""The two execution paths of ``map_sweep``: the serial loop and the
persistent local pool.

Pins the contract every sweep call site relies on: results are
bit-identical whichever path ran the sweep, and a pool that breaks
degrades to the serial path instead of failing the sweep.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro import config
from repro.perf.backends import (MIN_ITEMS_PER_JOB, last_map_info,
                                 local_pool, map_sweep, shutdown_pool)


def _square(x):
    return x * x


def _scaled(x, factor):
    return x * factor + 0.125


def _kill_if_worker(item):
    parent_pid, x = item
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


@pytest.fixture(autouse=True)
def _fresh_pools():
    config.reset()
    shutdown_pool()
    yield
    config.reset()
    shutdown_pool()


# ----------------------------------------------------------------------
# bit-identity across the serial and pooled paths
# ----------------------------------------------------------------------

def test_results_bit_identical_across_backends():
    items = [(x * 0.1, 3.7) for x in range(6 * MIN_ITEMS_PER_JOB)]
    reference = map_sweep(_scaled, items, jobs=1, star=True)
    assert last_map_info().mode == "serial"
    got = map_sweep(_scaled, items, jobs=2, star=True,
                    oversubscribe=True)
    assert last_map_info().mode == "parallel"
    assert got == reference


def test_experiment_bit_identical_across_backends():
    # on a real artifact: same seed, serial and pooled, byte-identical
    # values
    from repro import api
    reference = api.run_experiment("figure-6.7", seed=7, jobs=1)
    result = api.run_experiment("figure-6.7", seed=7, jobs=2)
    assert result.values == reference.values


# ----------------------------------------------------------------------
# degradation and lifecycle
# ----------------------------------------------------------------------

def test_killed_worker_degrades_to_serial():
    # a worker SIGKILLed mid-task breaks the pool; the sweep must
    # still return correct results (serial fallback re-runs in the
    # parent, where the kill guard is a no-op) with the reason recorded
    items = [(os.getpid(), x) for x in range(4 * MIN_ITEMS_PER_JOB)]
    result = map_sweep(_kill_if_worker, items, jobs=2,
                       oversubscribe=True)
    assert result == [x * 2 for _pid, x in items]
    info = last_map_info()
    assert info.mode == "serial"
    assert "worker pool broke" in info.reason
    assert "died mid-task" in info.reason
    assert local_pool().executor is None
    # the broken pool was reaped: the next sweep builds a fresh one
    # and fans out normally
    clean = map_sweep(_square, list(range(4 * MIN_ITEMS_PER_JOB)),
                      jobs=2, oversubscribe=True)
    assert clean == [x * x for x in range(4 * MIN_ITEMS_PER_JOB)]
    assert last_map_info().mode == "parallel"


def test_grouped_grid_builds_each_structure_once():
    """A grouped grid sends every point of one structure to one worker
    as one task: the pool builds each structure exactly once, and the
    values are bitwise those of the serial pass."""
    from repro import obs
    from repro.models import Architecture, Mode
    from repro.models.solve import _solve_cached, _structure_group, solve
    from repro.perf import configure_cache
    points = [(Architecture.II, Mode.LOCAL, n, 500.0 * i, "tas")
              for n in (2, 3) for i in range(9)]
    structures = 2                  # one per conversation count

    def cold():
        configure_cache()
        _solve_cached.cache_clear()

    cold()                          # workers start from an empty store
    with obs.recording() as recorder:
        # solve_grid's own dispatch, forced onto the pool on one CPU
        pooled = map_sweep(solve, points, jobs=2, star=True,
                           group=_structure_group(4), oversubscribe=True)
    info = last_map_info()
    assert info.mode == "parallel"
    assert info.groups == structures and info.chunk_size is None
    builds = [s for s in recorder.spans if s.name == "gtpn.build"]
    assert len(builds) == structures
    cold()
    serial = map_sweep(solve, points, jobs=1, star=True)
    assert [r.throughput for r in pooled] == \
        [r.throughput for r in serial]
