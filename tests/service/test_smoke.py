"""Service smoke + acceptance: mixed load, dedupe rate, 1000 jobs."""

from __future__ import annotations

import sys
import threading

from repro.experiments import temporary_experiment
from repro.service import ExperimentService, ResultStore

from tests.service.conftest import ToyTracker, make_toy

TIMEOUT = 60.0


def test_smoke_200_mixed_jobs_dedupe_at_least_40_percent():
    # the CI service-smoke scenario: 200 submissions, half duplicates,
    # executions held open until the full batch is in so every
    # duplicate coalesces onto its in-flight twin
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService()
        try:
            handles = [service.submit("toy-exp", seed=n % 100)
                       for n in range(200)]
            tracker.gate.set()
            results = [h.result(timeout=TIMEOUT) for h in handles]
            service.drain(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    stats = service.stats()
    assert stats["submitted"] == 200
    assert stats["executed"] == 100            # one per unique seed
    deduped = stats["coalesced"] + stats["store_hits"]
    assert stats["coalesced"] / 200 >= 0.40
    assert deduped == 100
    assert stats["queue_depth"] == 0 and stats["busy"] == 0
    # every handle resolved to its seed's values
    for n, result in enumerate(results):
        assert result.values[0] == ["seed", n % 100]


def test_acceptance_1000_concurrent_submissions_bounded():
    # the PR acceptance bar: 1000 concurrent submissions, >= 50%
    # duplicates, every unique point executed exactly once, bounded
    # store memory, clean drain
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    unique = 250                               # 4 submissions each
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(
            store=ResultStore(memory_limit=64))   # force LRU pressure
        handles: list = []
        handles_lock = threading.Lock()

        def submitter(offset: int) -> None:
            mine = [service.submit("toy-exp", seed=(offset + n) % unique)
                    for n in range(125)]
            with handles_lock:
                handles.extend(mine)

        threads = [threading.Thread(target=submitter, args=(i * 31,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        try:
            # switch threads often, so a counter update made outside
            # the service lock would be lost
            sys.setswitchinterval(1e-6)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT)
            sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            tracker.gate.set()
            for handle in handles:
                handle.result(timeout=TIMEOUT)
            service.drain(timeout=TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
            tracker.gate.set()
            service.shutdown()
    stats = service.stats()
    assert stats["submitted"] == 1000
    # exactly-once: each unique seed executed a single time
    assert stats["executed"] == unique
    assert sorted(tracker.runs) == sorted(range(unique))
    assert stats["coalesced"] + stats["store_hits"] == 1000 - unique
    # bounded memory: the LRU never grows past its limit
    assert len(service.store) <= 64
    assert stats["queue_depth"] == 0 and stats["busy"] == 0
