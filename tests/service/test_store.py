"""The content-addressed result store: an in-memory LRU."""

from __future__ import annotations

from repro.service import ResultStore, build_job_key


def _key(seed: int, experiment_id: str = "toy"):
    return build_job_key(experiment_id, {"seed": seed})


def test_roundtrip_and_counters():
    store = ResultStore()
    key = _key(1)
    assert store.get(key) is None
    store.put(key, {"value": 41})
    assert store.get(key) == {"value": 41}
    assert store.hits == 1 and store.misses == 1


def test_memory_lru_bound():
    store = ResultStore(memory_limit=2)
    for seed in range(4):
        store.put(_key(seed), seed)
    assert len(store) == 2
    # the two most recent survive; the eldest were evicted
    assert store.get(_key(3)) == 3
    assert store.get(_key(0)) is None


def test_stats_shape():
    store = ResultStore(memory_limit=8)
    store.put(_key(1), 1)
    assert store.get(_key(1)) == 1
    assert store.stats() == {"entries": 1, "limit": 8, "hits": 1,
                             "misses": 0}
