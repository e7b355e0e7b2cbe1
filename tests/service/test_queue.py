"""ExperimentService behaviour: queueing, admission, lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro import api
from repro.errors import (AdmissionError, ConfigError, ReproError,
                          ServiceError)
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.service import ExperimentService, JobStatus

from tests.service.conftest import ToyTracker, make_toy

TIMEOUT = 30.0


def test_async_submission_matches_inline_run():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        try:
            handle = service.submit("toy-exp", seed=7)
            result = handle.result(timeout=TIMEOUT)
        finally:
            service.shutdown()
        direct = api.run_experiment("toy-exp", seed=7)
    assert handle.poll() is JobStatus.DONE
    assert result.values == direct.values
    assert result.config == direct.config


def test_failed_job_reraises_from_result():
    with temporary_experiment(make_toy(fail=True)):
        service = ExperimentService()
        try:
            handle = service.submit("toy-exp")
            with pytest.raises(ReproError, match="on purpose"):
                handle.result(timeout=TIMEOUT)
        finally:
            service.shutdown()
    assert handle.poll() is JobStatus.FAILED
    assert service.stats()["failed"] == 1


def test_lifecycle_events_in_order():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        try:
            handle = service.submit("toy-exp", seed=1)
            handle.result(timeout=TIMEOUT)
        finally:
            service.shutdown()
    kinds = [event.kind for event in handle.stream_events()]
    assert kinds == ["submitted", "started", "done"]


def test_drop_policy_sheds_silently():
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1, queue_depth=1,
                                    policy="drop")
        try:
            running = service.submit("toy-exp", seed=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            queued = service.submit("toy-exp", seed=2)
            shed = service.submit("toy-exp", seed=3)
            assert shed.poll() is JobStatus.DROPPED
            with pytest.raises(AdmissionError) as excinfo:
                shed.result(timeout=TIMEOUT)
            assert excinfo.value.policy == "drop"
            tracker.gate.set()
            running.result(timeout=TIMEOUT)
            queued.result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert service.stats()["dropped"] == 1
    assert sorted(tracker.runs) == [1, 2]     # the shed seed never ran


def test_reject_policy_raises_at_submit():
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1, queue_depth=1,
                                    policy="reject")
        try:
            running = service.submit("toy-exp", seed=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            service.submit("toy-exp", seed=2)
            with pytest.raises(AdmissionError, match="queue full"):
                service.submit("toy-exp", seed=3)
            tracker.gate.set()
            running.result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert service.stats()["rejected"] == 1


def test_backpressure_blocks_submitter_until_room():
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1, queue_depth=1,
                                    policy="backpressure")
        try:
            service.submit("toy-exp", seed=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            service.submit("toy-exp", seed=2)
            blocked_handle = []

            def pressured_submit():
                blocked_handle.append(
                    service.submit("toy-exp", seed=3))

            submitter = threading.Thread(target=pressured_submit)
            submitter.start()
            submitter.join(timeout=0.3)
            assert submitter.is_alive()       # held back, not dropped
            tracker.gate.set()                # free the worker
            submitter.join(timeout=TIMEOUT)
            assert not submitter.is_alive()
            blocked_handle[0].result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    stats = service.stats()
    assert stats["backpressured"] == 1
    assert sorted(tracker.runs) == [1, 2, 3]  # nothing was lost


def test_backpressured_identical_twins_coalesce_not_duplicate():
    # two identical submissions that both block under backpressure must
    # not both enqueue once room frees: whoever wakes second re-runs
    # the dedup block and coalesces (or store-hits), so the unique key
    # still executes exactly once
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1, queue_depth=1,
                                    policy="backpressure")
        try:
            service.submit("toy-exp", seed=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            service.submit("toy-exp", seed=2)     # fills the queue
            handles = []
            handles_lock = threading.Lock()

            def pressured_submit():
                handle = service.submit("toy-exp", seed=3)
                with handles_lock:
                    handles.append(handle)

            twins = [threading.Thread(target=pressured_submit)
                     for _ in range(2)]
            for twin in twins:
                twin.start()
            for twin in twins:
                twin.join(timeout=0.3)
            assert all(t.is_alive() for t in twins)  # both held back
            tracker.gate.set()
            for twin in twins:
                twin.join(timeout=TIMEOUT)
            assert not any(t.is_alive() for t in twins)
            results = [h.result(timeout=TIMEOUT) for h in handles]
            service.drain(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert sorted(tracker.runs) == [1, 2, 3]  # seed 3 ran exactly once
    stats = service.stats()
    assert stats["coalesced"] + stats["store_hits"] == 1
    assert results[0].values == results[1].values


def test_submit_from_worker_thread_degrades_inline():
    # an experiment that re-enters the service from its own worker
    # thread must execute inline instead of deadlocking the queue
    inner = make_toy("toy-inner")
    service = ExperimentService(workers=1)

    def outer_runner() -> Table:
        nested = service.submit("toy-inner", seed=5)
        inner_result = nested.result(timeout=1.0)  # inline: already done
        return Table(experiment_id="toy-outer", title="outer",
                     headers=["k", "v"],
                     rows=[["inner", inner_result.values[0][1]]])

    outer = Experiment("toy-outer", "outer", "table", outer_runner)
    with temporary_experiment(inner), temporary_experiment(outer):
        try:
            result = service.submit("toy-outer").result(timeout=TIMEOUT)
        finally:
            service.shutdown()
    assert result.values == [["inner", 5]]
    assert service.stats()["inline"] == 1


def test_submit_from_another_services_worker_degrades_inline():
    # workers of *any* service in the process may hold the shared
    # execution lock; a nested submission across service instances must
    # degrade inline too, or the inner worker deadlocks behind the lock
    # the outer worker already holds
    inner = make_toy("toy-inner")
    outer_service = ExperimentService(workers=1)
    inner_service = ExperimentService(workers=1)

    def outer_runner() -> Table:
        nested = inner_service.submit("toy-inner", seed=9)
        inner_result = nested.result(timeout=1.0)  # inline: already done
        return Table(experiment_id="toy-outer", title="outer",
                     headers=["k", "v"],
                     rows=[["inner", inner_result.values[0][1]]])

    outer = Experiment("toy-outer", "outer", "table", outer_runner)
    with temporary_experiment(inner), temporary_experiment(outer):
        try:
            result = outer_service.submit("toy-outer").result(
                timeout=TIMEOUT)
        finally:
            outer_service.shutdown()
            inner_service.shutdown()
    assert result.values == [["inner", 9]]
    assert inner_service.stats()["inline"] == 1


def test_shutdown_rejects_new_submissions():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        service.submit("toy-exp").result(timeout=TIMEOUT)
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit("toy-exp", seed=99)


def test_drain_timeout_raises():
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1)
        try:
            service.submit("toy-exp")
            assert tracker.started.acquire(timeout=TIMEOUT)
            with pytest.raises(ServiceError, match="did not drain"):
                service.drain(timeout=0.05)
            tracker.gate.set()
            service.drain(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()


def test_invalid_construction_rejected():
    with pytest.raises(ConfigError, match="admission policy"):
        ExperimentService(policy="shrug")
    with pytest.raises(ConfigError, match="workers"):
        ExperimentService(workers=0)
    with pytest.raises(ConfigError, match="queue_depth"):
        ExperimentService(queue_depth=0)


def test_stats_reconcile_after_drain():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        try:
            handles = [service.submit("toy-exp", seed=s % 3)
                       for s in range(12)]
            for handle in handles:
                handle.result(timeout=TIMEOUT)
            service.drain(timeout=TIMEOUT)
        finally:
            service.shutdown()
    stats = service.stats()
    accounted = (stats["executed"] + stats["failed"] +
                 stats["coalesced"] + stats["store_hits"] +
                 stats["dropped"] + stats["rejected"] + stats["inline"])
    assert stats["submitted"] == 12 == accounted
    assert stats["queue_depth"] == 0 and stats["busy"] == 0
    assert stats["executed"] == 3          # one per unique seed
    assert stats["latency"]["count"] == 3
    assert stats["latency"]["p99_s"] >= stats["latency"]["p50_s"]


def _assert_ledger(stats: dict, submitted: int) -> None:
    accounted = (stats["executed"] + stats["failed"] +
                 stats["coalesced"] + stats["store_hits"] +
                 stats["dropped"] + stats["rejected"] + stats["inline"])
    assert stats["submitted"] == submitted == accounted


def test_bad_ambient_seed_raises_before_submission_is_counted(
        monkeypatch):
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService()
        try:
            monkeypatch.setenv("REPRO_SEED", "bad")
            with pytest.raises(ConfigError, match="REPRO_SEED"):
                service.submit("toy-exp")
            monkeypatch.delenv("REPRO_SEED")
            service.submit("toy-exp", seed=1).result(timeout=TIMEOUT)
            service.drain(timeout=TIMEOUT)
        finally:
            service.shutdown()
    assert tracker.runs == [1]
    _assert_ledger(service.stats(), submitted=1)


@pytest.mark.parametrize("knobs", [{"duration": "abc"}, {"bogus": 1}],
                         ids=["malformed", "unknown"])
@pytest.mark.parametrize("lane", ["async", "inline"])
def test_bad_knob_rejected_at_submit_never_queued(knobs, lane):
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService()
        try:
            with pytest.raises(ConfigError, match=next(iter(knobs))):
                service.submit("toy-exp", lane=lane, **knobs)
            stats = service.stats()
        finally:
            service.shutdown()
    assert tracker.runs == []
    assert stats["queue_depth"] == 0 and stats["workers"] == 0
    _assert_ledger(stats, submitted=0)


def test_front_doors_check_knobs_against_the_table():
    with temporary_experiment(make_toy()):
        with pytest.raises(ConfigError, match="bogus"):
            api.run_experiment("toy-exp", bogus=1)
        with pytest.raises(ConfigError, match="duration"):
            api.submit_experiment("toy-exp", duration="abc")
        result = api.run_experiment("toy-exp", seed=2, sync="CAS",
                                    reduction="elim+lump")
    assert result.config["sync"] == "cas"
    assert result.config["reduction"] == "lump+elim"
    assert result.config["sync_source"] == "cli"
