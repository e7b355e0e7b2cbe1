"""Tests for the DES core and processor model."""

import math

import pytest

from repro.errors import KernelError
from repro.kernel import Processor, Simulator


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(5.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: order.append(1))
        sim.at(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.at(10.0, lambda: fired.append(1))
        sim.at(20.0, lambda: fired.append(2))
        sim.run_until(15.0)
        assert fired == [1]
        assert sim.now == 15.0
        assert sim.pending_events == 1

    def test_actions_can_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def recur(n):
            hits.append(sim.now)
            if n > 0:
                sim.after(1.0, lambda: recur(n - 1))

        sim.at(0.0, lambda: recur(3))
        sim.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(KernelError):
            sim.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(KernelError):
            sim.after(-1.0, lambda: None)

    def test_nan_delay_rejected_and_time_order_kept(self):
        """A NaN delay would compare false against every key and land
        anywhere in the calendar, running time backwards."""
        sim = Simulator()
        times = []
        sim.after(5.0, lambda: times.append(sim.now))
        with pytest.raises(KernelError):
            sim.after(math.nan, lambda: times.append(sim.now))
        sim.after(3.0, lambda: times.append(sim.now))
        sim.after(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 3.0, 5.0]

    def test_nan_times_rejected(self):
        sim = Simulator()
        with pytest.raises(KernelError):
            sim.at(math.nan, lambda: None)
        with pytest.raises(KernelError):
            sim.at_cancellable(math.nan, lambda: None)
        with pytest.raises(KernelError):
            sim.post_run([math.nan, 1.0], lambda: None)
        with pytest.raises(KernelError):
            sim.post_run([1.0, math.nan, 2.0], lambda: None)
        assert sim.pending_events == 0

    def test_runaway_guard(self):
        sim = Simulator()

        def forever():
            sim.after(0.0, forever)

        sim.at(0.0, forever)
        with pytest.raises(KernelError):
            sim.run_until(1.0, max_events=100)

    def test_max_events_allows_exactly_max_events(self):
        """The guard trips on the (max+1)-th event, so exactly
        max_events run — not max_events + 1."""
        sim = Simulator()
        hits = []
        for i in range(4):
            sim.at(float(i), lambda i=i: hits.append(i))
        with pytest.raises(KernelError):
            sim.run(max_events=3)
        assert hits == [0, 1, 2]
        assert sim.events_processed == 3

    def test_exact_event_budget_does_not_trip(self):
        sim = Simulator()
        hits = []
        for i in range(3):
            sim.at(float(i), lambda i=i: hits.append(i))
        sim.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_events_processed_survives_raising_action(self):
        """A KernelError out of an action must not lose the count of
        events that already ran."""
        sim = Simulator()

        def boom():
            raise KernelError("boom")

        sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.at(3.0, boom)
        with pytest.raises(KernelError, match="boom"):
            sim.run()
        assert sim.events_processed == 3

    def test_action_argument_passed_without_closure(self):
        sim = Simulator()
        got = []
        sim.at(1.0, got.append, "x")
        sim.after(1.0, got.append, "y")
        sim.after(0.0, got.append, "z")
        sim.run()
        assert got == ["z", "x", "y"]

    def test_now_lane_interleaves_with_heap_in_seq_order(self):
        """after(0.0) events and at(now) events at the same instant
        run in schedule order, whichever lane they took."""
        sim = Simulator()
        order = []

        def kickoff():
            sim.at(sim.now, lambda: order.append("heap1"))
            sim.after(0.0, lambda: order.append("lane1"))
            sim.at(sim.now, lambda: order.append("heap2"))
            sim.after(0.0, lambda: order.append("lane2"))

        sim.at(5.0, kickoff)
        sim.run()
        assert order == ["heap1", "lane1", "heap2", "lane2"]

    def test_now_lane_runs_before_later_heap_events(self):
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: sim.after(0.0, lambda: order.append("wake")))
        sim.at(2.0, lambda: order.append("later"))
        sim.run()
        assert order == ["wake", "later"]

    def test_cancel_pending_event(self):
        sim = Simulator()
        hits = []
        handle = sim.at_cancellable(5.0, lambda: hits.append("cancelled"))
        sim.at(6.0, lambda: hits.append("kept"))
        assert sim.pending_events == 2
        assert sim.cancel(handle) is True
        assert sim.pending_events == 1
        sim.run()
        assert hits == ["kept"]
        assert sim.events_processed == 1

    def test_cancel_is_idempotent_and_safe_after_run(self):
        sim = Simulator()
        hits = []
        handle = sim.at_cancellable(1.0, lambda: hits.append(1))
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False
        sim.run()
        ran = sim.at_cancellable(2.0, lambda: hits.append(2))
        sim.run()
        assert sim.cancel(ran) is False      # already executed
        assert hits == [2]

    def test_cancellable_event_runs_when_not_cancelled(self):
        sim = Simulator()
        hits = []
        sim.at_cancellable(3.0, hits.append, "ran")
        sim.run()
        assert hits == ["ran"]

    def test_post_run_bulk_insert_merges_with_heap(self):
        sim = Simulator()
        order = []
        count = sim.post_run([1.0, 3.0, 5.0],
                             lambda: order.append(("run", sim.now)))
        assert count == 3
        sim.at(2.0, lambda: order.append(("at", sim.now)))
        sim.after(4.0, lambda: order.append(("after", sim.now)))
        assert sim.pending_events == 5
        sim.run()
        assert order == [("run", 1.0), ("at", 2.0), ("run", 3.0),
                         ("after", 4.0), ("run", 5.0)]
        assert sim.pending_events == 0

    def test_post_run_ties_follow_posting_order(self):
        """A run posted before an at() at the same instant keeps its
        earlier sequence numbers, and vice versa."""
        sim = Simulator()
        order = []
        sim.post_run([1.0, 2.0], lambda: order.append("first"))
        sim.at(1.0, lambda: order.append("second"))
        sim.post_run([2.0], lambda: order.append("third"))
        sim.run()
        assert order == ["first", "second", "first", "third"]

    def test_post_run_rejects_unsorted_and_past_times(self):
        sim = Simulator()
        with pytest.raises(KernelError):
            sim.post_run([2.0, 1.0], lambda: None)
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(KernelError):
            sim.post_run([1.0, 2.0], lambda: None)

    def test_post_run_empty_batch_is_noop(self):
        sim = Simulator()
        assert sim.post_run([], lambda: None) == 0
        assert sim.pending_events == 0

    def test_run_until_counts_run_events_toward_horizon(self):
        sim = Simulator()
        hits = []
        sim.post_run([1.0, 2.0, 3.0], lambda: hits.append(sim.now))
        sim.run_until(2.0)
        assert hits == [1.0, 2.0]
        assert sim.pending_events == 1
        sim.run()
        assert hits == [1.0, 2.0, 3.0]


class TestProcessor:
    def test_fcfs_order(self):
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        done = []
        cpu.submit(10.0, lambda: done.append(("a", sim.now)))
        cpu.submit(5.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done == [("a", 10.0), ("b", 15.0)]

    def test_urgent_jumps_queue_but_does_not_preempt(self):
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        done = []
        cpu.submit(10.0, lambda: done.append(("normal1", sim.now)))
        cpu.submit(10.0, lambda: done.append(("normal2", sim.now)))
        sim.at(1.0, lambda: cpu.submit(
            2.0, lambda: done.append(("intr", sim.now)), urgent=True))
        sim.run()
        # the in-progress item completes, then the interrupt runs
        assert done == [("normal1", 10.0), ("intr", 12.0),
                        ("normal2", 22.0)]

    def test_utilization_accounting(self):
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        cpu.submit(30.0)
        cpu.submit(20.0)
        sim.run()
        assert cpu.stats.busy_time == pytest.approx(50.0)
        assert cpu.stats.items_completed == 2
        assert cpu.stats.utilization(100.0) == pytest.approx(0.5)

    def test_nan_work_rejected(self):
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        with pytest.raises(KernelError):
            cpu.submit(math.nan)
        sim.run()
        assert cpu.stats.busy_time == 0.0
        assert cpu.stats.items_completed == 0

    def test_submit_from_completing_action_starts_queued_head_first(self):
        """While a completing item's action runs its server is free but
        the queue has not been served yet: a submit from the action
        must queue behind the waiting item, not take the free server."""
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        done = []
        cpu.submit(10.0, lambda: (
            done.append(("a", sim.now)),
            cpu.submit(1.0, lambda: done.append(("c", sim.now)))))
        cpu.submit(5.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done == [("a", 10.0), ("b", 15.0), ("c", 16.0)]
        assert cpu.stats.queue_wait_time == 10.0 + 5.0

    def test_zero_duration_work_holds_a_server(self):
        """A zero-duration item is queued work like any other: it
        occupies the server until its completion event runs."""
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        order = []
        cpu.submit(0.0, lambda: order.append("zero"))
        cpu.submit(0.0, lambda: order.append("after"), urgent=True)
        assert cpu.busy and cpu.queue_length == 1
        sim.run()
        assert order == ["zero", "after"]
        assert cpu.stats.items_completed == 2

    def test_zero_duration_work_allowed(self):
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        hits = []
        cpu.submit(0.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [0.0]

    def test_negative_duration_rejected(self):
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        with pytest.raises(KernelError):
            cpu.submit(-1.0)

    def test_queue_length_visible(self):
        sim = Simulator()
        cpu = Processor(sim, "cpu")
        cpu.submit(10.0)
        cpu.submit(10.0)
        cpu.submit(10.0)
        # one item in service, two queued
        assert cpu.queue_length == 2
        assert cpu.busy
