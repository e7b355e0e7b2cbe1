"""The frozen ExecutorBackend protocol and the three shipped backends.

Pins the two contracts the service and every sweep call site rely on:
the protocol surface never changes shape, and results are
bit-identical whichever backend ran the sweep.
"""

from __future__ import annotations

import inspect
import os
import signal
import time

import pytest

from repro import config
from repro.errors import ConfigError
from repro.perf import backends
from repro.perf.backends import (MIN_ITEMS_PER_JOB, ExecutorBackend,
                                 get_backend, last_map_info, map_sweep,
                                 register_backend, shutdown_pool)


def _square(x):
    return x * x


def _scaled(x, factor):
    return x * factor + 0.125


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


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
# the frozen protocol
# ----------------------------------------------------------------------

def test_protocol_surface_is_frozen():
    assert sorted(ExecutorBackend.__abstractmethods__) == \
        ["describe", "shutdown", "submit_map"]
    sig = inspect.signature(ExecutorBackend.submit_map)
    assert list(sig.parameters) == \
        ["self", "fn", "work", "n_jobs", "star", "chunksize"]
    for keyword in ("n_jobs", "star", "chunksize"):
        assert sig.parameters[keyword].kind is \
            inspect.Parameter.KEYWORD_ONLY


def test_shipped_backends_implement_the_protocol():
    for name in ("serial", "local", "sharded"):
        backend = get_backend(name)
        assert isinstance(backend, ExecutorBackend)
        assert backend.name == name
        assert isinstance(backend.describe(), str)


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError, match="unknown executor backend"):
        get_backend("quantum")
    with pytest.raises(ConfigError, match="must be one of"):
        config.set_backend("quantum")


def test_backend_resolution_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert config.backend() == "local"
    monkeypatch.setenv("REPRO_BACKEND", "sharded")
    assert config.backend() == "sharded"
    config.set_backend("serial")
    assert config.backend() == "serial"
    resolved = config.resolved_config()
    assert resolved.backend == "serial"
    assert resolved.backend_source == "cli"


def test_register_backend_extension_seam():
    calls = []

    class RecordingBackend(ExecutorBackend):
        name = "recording"

        def submit_map(self, fn, work, *, n_jobs, star, chunksize):
            calls.append((n_jobs, chunksize))
            return [fn(*item) if star else fn(item) for item in work]

        def shutdown(self):
            pass

        def describe(self):
            return "test recording backend"

    register_backend(RecordingBackend())
    try:
        items = list(range(4 * MIN_ITEMS_PER_JOB))
        result = map_sweep(_square, items, jobs=2, oversubscribe=True,
                           backend="recording")
        assert result == [x * x for x in items]
        assert calls and calls[0][0] == 2
        assert last_map_info().backend == "recording"
    finally:
        backends._BACKENDS.pop("recording", None)


# ----------------------------------------------------------------------
# bit-identity across backends
# ----------------------------------------------------------------------

def test_results_bit_identical_across_backends():
    items = [(x * 0.1, 3.7) for x in range(6 * MIN_ITEMS_PER_JOB)]
    reference = map_sweep(_scaled, items, jobs=1, star=True)
    for name in ("serial", "local", "sharded"):
        got = map_sweep(_scaled, items, jobs=2, star=True,
                        oversubscribe=True, backend=name)
        assert got == reference, name
        info = last_map_info()
        if name == "serial":
            assert info.mode == "serial"
            assert info.reason == "serial backend selected"
        elif info.mode == "parallel":
            assert info.backend == name


def test_experiment_bit_identical_across_backends():
    # the PR acceptance bar, on a real artifact: same seed, three
    # backends, byte-identical values
    from repro import api
    reference = api.run_experiment("figure-6.7", seed=7,
                                   backend="serial")
    for name in ("local", "sharded"):
        result = api.run_experiment("figure-6.7", seed=7, jobs=2,
                                    backend=name)
        assert result.values == reference.values, name


def test_map_info_parity_across_backends():
    items = list(range(4 * MIN_ITEMS_PER_JOB))
    infos = {}
    for name in ("local", "sharded"):
        map_sweep(_square, items, jobs=2, oversubscribe=True,
                  backend=name)
        infos[name] = last_map_info()
    for name, info in infos.items():
        if info.mode != "parallel":
            pytest.skip(f"{name} declined to fan out: {info.reason}")
    assert infos["local"].jobs_used == infos["sharded"].jobs_used
    assert infos["local"].chunk_size == infos["sharded"].chunk_size
    assert infos["local"].items == infos["sharded"].items


# ----------------------------------------------------------------------
# degradation and lifecycle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend_name", ["local", "sharded"])
def test_killed_worker_degrades_to_serial(backend_name):
    # a worker SIGKILLed mid-task breaks the pool; the sweep must
    # still return correct results (serial fallback re-runs in the
    # parent, where the kill guard is a no-op) with the reason recorded
    items = [(os.getpid(), x) for x in range(4 * MIN_ITEMS_PER_JOB)]
    result = map_sweep(_kill_if_worker, items, jobs=2,
                       oversubscribe=True, backend=backend_name)
    assert result == [x * 2 for _pid, x in items]
    info = last_map_info()
    assert info.mode == "serial"
    assert "worker pool broke" in info.reason
    assert "died mid-task" in info.reason
    # the broken pool was reaped: the next sweep builds a fresh one
    # and fans out normally
    clean = map_sweep(_square, list(range(4 * MIN_ITEMS_PER_JOB)),
                      jobs=2, oversubscribe=True, backend=backend_name)
    assert clean == [x * x for x in range(4 * MIN_ITEMS_PER_JOB)]
    assert last_map_info().mode == "parallel"


def test_sharded_steals_from_imbalanced_shards():
    # shard 0 owns the slow half; shard 1 drains its fast half and
    # must steal from shard 0's tail
    items = [0.05] * 4 + [0.0] * 4
    result = map_sweep(_sleepy, items, jobs=2, chunksize=1,
                       oversubscribe=True, backend="sharded")
    assert result == items
    if last_map_info().mode == "parallel":
        assert get_backend("sharded").last_steals >= 1


def test_sharded_shard_plan_covers_all_items():
    from repro.perf.backends.sharded import ShardedBackend
    for n_items, n_jobs, chunk in ((16, 2, 2), (17, 3, 4), (5, 4, 1),
                                   (100, 7, 9)):
        shards = ShardedBackend._shard_chunks(n_items, n_jobs, chunk)
        assert len(shards) == n_jobs
        covered = sorted(
            index for shard in shards for start, stop in shard
            for index in range(start, stop))
        assert covered == list(range(n_items))

