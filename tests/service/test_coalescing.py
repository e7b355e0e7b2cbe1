"""Request coalescing: one execution, N subscribers, split-key misses."""

from __future__ import annotations

import threading

from repro import obs
from repro.experiments import temporary_experiment
from repro.service import ExperimentService, JobStatus

from tests.service.conftest import ToyTracker, make_toy

TIMEOUT = 30.0


def _gated_service(tracker: ToyTracker) -> ExperimentService:
    tracker.gate = threading.Event()
    return ExperimentService()


def test_identical_submissions_execute_once():
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = _gated_service(tracker)
        try:
            with obs.recording() as recorder:
                first = service.submit("toy-exp", seed=7)
                assert tracker.started.acquire(timeout=TIMEOUT)
                twins = [service.submit("toy-exp", seed=7)
                         for _ in range(5)]
                tracker.gate.set()
                result = first.result(timeout=TIMEOUT)
                twin_results = [t.result(timeout=TIMEOUT)
                                for t in twins]
            service.drain(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    # one execution: the runner ran once, its single map_sweep item
    # produced exactly one pool.task span under the recorder
    assert tracker.runs == [7]
    task_spans = [s for s in recorder.spans if s.name == "pool.task"]
    assert len(task_spans) == 1
    # every subscriber sees the *same* result object
    assert all(t.coalesced for t in twins)
    assert all(r is result for r in twin_results)
    stats = service.stats()
    assert stats["executed"] == 1 and stats["coalesced"] == 5


def test_different_seed_breaks_the_coalesce_key():
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = _gated_service(tracker)
        try:
            a = service.submit("toy-exp", seed=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            b = service.submit("toy-exp", seed=2)
            assert not b.coalesced
            tracker.gate.set()
            ra = a.result(timeout=TIMEOUT)
            rb = b.result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert sorted(tracker.runs) == [1, 2]      # both really ran
    assert ra.values != rb.values
    assert service.stats()["coalesced"] == 0


def test_execution_knobs_still_coalesce():
    # jobs changes scheduling, not values: twins coalesce
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = _gated_service(tracker)
        try:
            first = service.submit("toy-exp", seed=3, jobs=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            twin = service.submit("toy-exp", seed=3, jobs=4)
            assert twin.coalesced
            tracker.gate.set()
            assert twin.result(timeout=TIMEOUT) is \
                first.result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert tracker.runs == [3]


def test_spellings_of_one_value_coalesce():
    # keys are built from parsed values: CAS/cas and elim+lump/lump+elim
    # name one computation, so the twin attaches to the running job
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = _gated_service(tracker)
        try:
            first = service.submit("toy-exp", seed=4, sync="CAS",
                                   reduction="elim+lump")
            assert tracker.started.acquire(timeout=TIMEOUT)
            twin = service.submit("toy-exp", seed=4, sync="cas",
                                  reduction="lump+elim")
            assert twin.coalesced
            tracker.gate.set()
            assert twin.result(timeout=TIMEOUT) is \
                first.result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert tracker.runs == [4]


def test_traced_submissions_never_coalesce(tmp_path):
    # a traced job writes side files and runs under its own recorder;
    # sharing it with an untraced twin would corrupt both contracts
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = _gated_service(tracker)
        try:
            plain = service.submit("toy-exp", seed=4)
            assert tracker.started.acquire(timeout=TIMEOUT)
            traced = service.submit("toy-exp", seed=4,
                                    trace=str(tmp_path / "t.json"))
            assert not traced.coalesced and not traced.store_hit
            tracker.gate.set()
            plain.result(timeout=TIMEOUT)
            result = traced.result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert len(tracker.runs) == 2              # both executed
    assert result.trace_paths                  # and the trace exists


def test_traced_completion_keeps_untraced_twins_pending_entry(tmp_path):
    # a finishing traced job has a key but never owns an in-flight
    # registration; it must not evict an untraced twin's entry, or the
    # twin's later duplicates re-execute instead of coalescing
    tracker = ToyTracker()
    gate_traced = threading.Event()
    gate_plain = threading.Event()
    tracker.gate = gate_traced
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService()
        try:
            traced = service.submit("toy-exp", seed=4,
                                    trace=str(tmp_path / "t.json"))
            assert tracker.started.acquire(timeout=TIMEOUT)
            tracker.gate = gate_plain      # the next run waits on this
            plain = service.submit("toy-exp", seed=4)
            assert not plain.coalesced     # traced twin isn't shareable
            gate_traced.set()              # traced finishes...
            assert tracker.started.acquire(timeout=TIMEOUT)
            # ...and the untraced twin is now running, still registered
            late = service.submit("toy-exp", seed=4)
            assert late.coalesced          # not a third execution
            gate_plain.set()
            assert late.result(timeout=TIMEOUT) is \
                plain.result(timeout=TIMEOUT)
            traced.result(timeout=TIMEOUT)
        finally:
            gate_traced.set()
            gate_plain.set()
            service.shutdown()
    assert tracker.runs == [4, 4]          # traced + untraced, no more


def test_coalesced_handle_sees_the_shared_lifecycle():
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = _gated_service(tracker)
        try:
            first = service.submit("toy-exp", seed=6)
            assert tracker.started.acquire(timeout=TIMEOUT)
            twin = service.submit("toy-exp", seed=6)
            tracker.gate.set()
            twin.result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    kinds = [event.kind for event in twin.stream_events()]
    assert "coalesced" in kinds and kinds[-1] == "done"
    assert twin.poll() is JobStatus.DONE
    assert first.key == twin.key
