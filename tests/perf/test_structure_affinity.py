"""Structure-affinity dispatch: a grouped sweep runs each group as one
task on one worker, so the pool builds each reachability structure
once instead of once per worker.

Pins the ``group=`` contract of ``map_sweep`` (one task per key,
largest cost first, input order kept, per-item trace spans), the
figure-6.18 build count at jobs=2, the serial fallback of a
one-structure grid, and the unchanged chunking of ungrouped sweeps.
"""

from __future__ import annotations

import math
import os

import pytest

from repro import config, obs
from repro.perf.backends import (CHUNK_WAVES, last_map_info, map_sweep,
                                 shutdown_pool)


def _tagged(x):
    return x, os.getpid()


def _parity(x):
    return (x % 2, "odd" if x % 2 else "even")


def _cold():
    from repro.models.solve import _solve_cached
    from repro.perf import configure_cache
    configure_cache()
    _solve_cached.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_pool():
    config.reset()
    shutdown_pool()
    yield
    config.reset()
    shutdown_pool()


def test_grouped_sweep_runs_each_group_on_one_worker():
    items = list(range(24))
    with obs.recording() as recorder:
        results = map_sweep(_tagged, items, jobs=2, group=_parity,
                            oversubscribe=True)
    info = last_map_info()
    assert info.mode == "parallel"
    assert info.groups == 2 and info.chunk_size is None
    assert info.items == len(items)
    # input order is kept, and each group ran in one process
    assert [x for x, _pid in results] == items
    assert len({pid for x, pid in results if x % 2}) == 1
    assert len({pid for x, pid in results if not x % 2}) == 1
    # one pool.task span per item, under its original index
    tasks = [s for s in recorder.spans if s.name == "pool.task"]
    assert sorted(s.attrs["index"] for s in tasks) == items
    (map_span,) = [s for s in recorder.spans if s.name == "pool.map"]
    assert map_span.attrs["groups"] == 2
    assert map_span.attrs["chunk_size"] is None


def test_groups_dispatch_largest_cost_first():
    from repro.perf.backends import _group_tasks
    work = [(1, "a"), (3, "b"), (1, "a"), (2, "c"), (3, "b"), (3, "d")]
    # ties on cost keep the order of first appearance
    assert _group_tasks(work, lambda item: item) == \
        [[1, 4], [5], [3], [0, 2]]


def test_one_structure_grid_runs_serially_with_reason():
    # architectures II and III share one local net per conversation
    # count: their points form one group, which cannot fan out without
    # building the structure twice
    from repro.models import Architecture, Mode
    from repro.models.solve import _structure_group, solve
    points = [(arch, Mode.LOCAL, 2, 500.0 * i, "tas")
              for arch in (Architecture.II, Architecture.III)
              for i in range(6)]
    _cold()
    grouped = map_sweep(solve, points, jobs=2, star=True,
                        group=_structure_group(4), oversubscribe=True)
    info = last_map_info()
    assert info.mode == "serial" and "one structure group" in info.reason
    assert info.groups is None and info.chunk_size is None
    assert grouped == map_sweep(solve, points, jobs=1, star=True)


def test_ungrouped_sweep_keeps_its_chunking():
    items = list(range(108))
    assert map_sweep(_parity, items, jobs=2, oversubscribe=True) == \
        [_parity(x) for x in items]
    info = last_map_info()
    assert info.mode == "parallel"
    chunk = math.ceil(len(items) / (2 * CHUNK_WAVES))
    assert info.chunk_size == chunk == 14
    assert info.groups == math.ceil(len(items) / chunk)
    assert info.describe() == \
        f"sweep ran on 2 workers, chunk size 14, {info.groups} tasks"


@pytest.mark.skipif((os.cpu_count() or 1) == 1,
                    reason="the pool planner runs serially on one CPU")
def test_figure_6_18_builds_each_structure_once_on_the_pool():
    """Figure 6.18's 108 points need 8 structures: arch I n=1-4 and one
    coprocessor net per n that II and III share.  At jobs=2 each is
    built once, plus at most one arch-I n=1 reference build (the
    offered-load normalization) per extra worker."""
    from repro.experiments.figures import figure_6_18
    structures, workers = 8, 2
    _cold()
    with obs.recording() as recorder:
        pooled = figure_6_18(jobs=workers)
    info = last_map_info()
    assert info.mode == "parallel" and info.jobs_used == workers
    assert info.groups == structures and info.items == 108
    assert f"one task per group ({structures})" in info.describe()
    builds = [s for s in recorder.spans if s.name == "gtpn.build"]
    assert structures <= len(builds) <= structures + workers - 1
    _cold()
    serial = figure_6_18(jobs=1)
    assert [s.y for s in pooled.series] == [s.y for s in serial.series]
