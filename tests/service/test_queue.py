"""ExperimentService behaviour: queueing, lanes, lifecycle, ledger."""

from __future__ import annotations

import threading
import time

import pytest

from repro import api
from repro.errors import ConfigError, ReproError, ServiceError
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.obs.clock import perf_now
from repro.service import ExperimentService, JobStatus

from tests.service.conftest import ToyTracker, make_toy

TIMEOUT = 30.0
#: How long a queued job is held behind another run's execution lock.
WAIT_S = 0.3


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


def test_queued_job_waits_outside_its_latency_clock():
    # while an inline run in another thread holds the execution lock,
    # the worker has popped the job but cannot run it: the job must
    # still poll QUEUED, and its latency must not count the wait
    blocker = ToyTracker()
    blocker.gate = threading.Event()
    service = ExperimentService()
    inline = threading.Thread(
        target=lambda: service.submit("toy-inline", lane="inline"))
    with temporary_experiment(make_toy("toy-inline", tracker=blocker)), \
            temporary_experiment(make_toy()):
        try:
            inline.start()
            assert blocker.started.acquire(timeout=TIMEOUT)
            handle = service.submit("toy-exp", seed=1)
            deadline = perf_now() + TIMEOUT
            while service.stats()["busy"] == 0:
                assert perf_now() < deadline
                time.sleep(0.005)
            time.sleep(WAIT_S)
            assert handle.poll() is JobStatus.QUEUED
            released = perf_now()
            blocker.gate.set()
            handle.result(timeout=TIMEOUT)
        finally:
            blocker.gate.set()
            inline.join(timeout=TIMEOUT)
            service.shutdown()
    started = next(event.ts for event in handle.stream_events()
                   if event.kind == "started")
    assert started >= released
    latency = service.stats()["latency"]
    assert latency["count"] == 1
    assert latency["mean_s"] < WAIT_S and latency["p50_s"] < WAIT_S


def test_submit_from_worker_thread_degrades_inline():
    # an experiment that re-enters the service from its own worker
    # thread must execute inline instead of deadlocking the queue
    inner = make_toy("toy-inner")
    service = ExperimentService()

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
    outer_service = ExperimentService()
    inner_service = ExperimentService()

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
        service = ExperimentService()
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
                 stats["rejected"] + stats["inline"])
    assert stats["submitted"] == 12 == accounted
    assert stats["queue_depth"] == 0 and stats["busy"] == 0
    assert stats["executed"] == 3          # one per unique seed
    assert stats["latency"]["count"] == 3
    assert stats["latency"]["p99_s"] >= stats["latency"]["p50_s"]


def _assert_ledger(stats: dict, submitted: int) -> None:
    accounted = (stats["executed"] + stats["failed"] +
                 stats["coalesced"] + stats["store_hits"] +
                 stats["rejected"] + stats["inline"])
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
