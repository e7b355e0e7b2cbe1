"""Tests for the parallel sweep executor."""

import pytest

from repro import config
from repro.errors import ConfigError
from repro.perf.backends import (MIN_ITEMS_PER_JOB, last_map_info,
                                 map_sweep, plan_jobs)


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _boom(x):
    raise ValueError(f"bad point {x}")


@pytest.fixture(autouse=True)
def _reset_default_jobs():
    yield
    config.set_cli("jobs", None)


def test_serial_map_preserves_order():
    assert map_sweep(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_parallel_map_matches_serial():
    items = list(range(20))
    assert map_sweep(_square, items, jobs=4) == \
        map_sweep(_square, items, jobs=1)


def test_star_unpacks_items():
    assert map_sweep(_add, [(1, 2), (3, 4)], jobs=1, star=True) == [3, 7]
    assert map_sweep(_add, [(1, 2), (3, 4)], jobs=2, star=True) == [3, 7]


def test_empty_items():
    assert map_sweep(_square, [], jobs=4) == []


def test_map_info_describe():
    from repro.perf.backends import MapInfo
    serial = MapInfo("serial", "serial requested (jobs=1)", 1, 1, 4,
                     None)
    assert serial.describe() == \
        "sweep ran serially (serial requested (jobs=1))"
    parallel = MapInfo("parallel", None, 8, 4, 16, 2)
    assert parallel.describe() == \
        "sweep ran on 4 workers, chunk size 2"


def test_unpicklable_function_falls_back_to_serial():
    # a lambda cannot ship to a worker process; the sweep must still
    # produce correct, ordered results via the serial fallback
    # (oversubscribe + a big enough grid force the parallel attempt
    # even on a single-CPU machine)
    items = list(range(2 * MIN_ITEMS_PER_JOB))
    assert map_sweep(lambda x: x + 1, items, jobs=2,
                     oversubscribe=True) == [x + 1 for x in items]
    info = last_map_info()
    assert info.mode == "serial" and "unpicklable" in info.reason


def test_worker_exceptions_propagate():
    with pytest.raises(ValueError):
        map_sweep(_boom, [1], jobs=2)
    with pytest.raises(ValueError):
        map_sweep(_boom, [1], jobs=1)
    with pytest.raises(ValueError):
        # through an actual pool as well, not just the serial fallback
        map_sweep(_boom, list(range(2 * MIN_ITEMS_PER_JOB)), jobs=2,
                  oversubscribe=True)


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        map_sweep(_square, [1], jobs=0)
    with pytest.raises(ValueError):
        config.set_cli("jobs", 0)
    with pytest.raises(ConfigError):
        map_sweep(_square, [1], jobs=2.5)
    with pytest.raises(ConfigError):
        map_sweep(_square, [1], jobs="four")


def test_default_jobs_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    config.set_cli("jobs", None)
    assert config.get("jobs") == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert config.get("jobs") == 3
    config.set_cli("jobs", 5)
    assert config.get("jobs") == 5


@pytest.mark.parametrize("bad", ["not-a-number", "0", "-2", "2.5", " "])
def test_malformed_repro_jobs_rejected(monkeypatch, bad):
    # a user who exported REPRO_JOBS wanted parallelism; a typo must
    # fail loudly (ConfigError is also a ValueError), not run serial
    config.set_cli("jobs", None)
    monkeypatch.setenv("REPRO_JOBS", bad)
    if bad.strip():
        with pytest.raises(ConfigError):
            config.get("jobs")
    else:
        assert config.get("jobs") == 1    # unset/blank still means serial


def test_plan_jobs_policy():
    # explicit serial
    assert plan_jobs(100, 1) == (1, "serial requested (jobs=1)")
    # nothing to fan out
    n, reason = plan_jobs(1, 4, oversubscribe=True)
    assert n == 1 and "nothing to fan out" in reason
    # below the per-worker threshold: serial, with the reason recorded
    n, reason = plan_jobs(MIN_ITEMS_PER_JOB, 4, oversubscribe=True)
    assert n == 1 and "threshold" in reason
    # enough work for fewer workers: the pool shrinks instead
    n, reason = plan_jobs(2 * MIN_ITEMS_PER_JOB, 8, oversubscribe=True)
    assert n == 2 and reason is None
    # plenty of work: full fan-out
    n, reason = plan_jobs(8 * MIN_ITEMS_PER_JOB, 4, oversubscribe=True)
    assert n == 4 and reason is None


def test_map_info_reports_execution():
    items = list(range(4 * MIN_ITEMS_PER_JOB))
    assert map_sweep(_square, items, jobs=2, oversubscribe=True) == \
        [x * x for x in items]
    info = last_map_info()
    assert info.mode == "parallel"
    assert info.jobs_used == 2 and info.items == len(items)
    assert info.chunk_size >= 1
    map_sweep(_square, [1, 2], jobs=2, oversubscribe=True)
    info = last_map_info()
    assert info.mode == "serial" and info.reason
    assert info.chunk_size is None


def test_pool_persists_across_sweeps():
    from repro.perf.backends import local_pool
    items = list(range(4 * MIN_ITEMS_PER_JOB))
    map_sweep(_square, items, jobs=2, oversubscribe=True)
    first = local_pool().executor
    assert first is not None
    map_sweep(_square, items, jobs=2, oversubscribe=True)
    assert local_pool().executor is first
