"""Tests for the MP acknowledgement/retransmission protocol."""

import pytest

from repro.errors import KernelError
from repro.faults import FaultPlan, PacketFaultSpec, RetryPolicy
from repro.faults.chaos import run_chaos_experiment
from repro.kernel import build_conversation_system
from repro.models.params import Architecture, Mode


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(initial_timeout_us=10.0, backoff=2.0)
        assert policy.timeout_for(0) == 10.0
        assert policy.timeout_for(1) == 20.0
        assert policy.timeout_for(3) == 80.0

    def test_validation(self):
        with pytest.raises(KernelError):
            RetryPolicy(initial_timeout_us=0.0)
        with pytest.raises(KernelError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(KernelError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(KernelError):
            RetryPolicy(conversation_timeout_us=-1.0)


def run_with_loss(loss, *, policy, seed=1, measure_us=600_000.0):
    return run_chaos_experiment(
        Architecture.II, loss_rate=loss, policy=policy, seed=seed,
        measure_us=measure_us)


class TestProtocolUnderLoss:
    def test_light_loss_recovered_by_retransmission(self):
        policy = RetryPolicy(initial_timeout_us=10_000.0,
                             max_retries=5,
                             conversation_timeout_us=500_000.0)
        result = run_with_loss(0.01, policy=policy)
        assert result.completed > 0
        assert result.failed == 0
        assert result.retransmissions > 0
        assert result.acks_sent > 0
        assert result.acks_received > 0

    def test_retry_budget_gives_up_cleanly(self):
        """With the client deadline disabled, the sender-side budget
        alone must turn total loss into failures, not a hang."""
        policy = RetryPolicy(initial_timeout_us=5_000.0, backoff=2.0,
                             max_retries=3,
                             conversation_timeout_us=0.0)
        result = run_with_loss(1.0, policy=policy)
        assert result.completed == 0
        assert result.failed > 0
        assert result.giveups > 0

    def test_conversation_deadline_covers_reply_loss(self):
        """With a generous retry budget the client deadline is what
        bounds a black-holed conversation."""
        policy = RetryPolicy(initial_timeout_us=50_000.0,
                             max_retries=20,
                             conversation_timeout_us=150_000.0)
        result = run_with_loss(1.0, policy=policy)
        assert result.completed == 0
        assert result.failed > 0
        # deadline fired before the budget could
        assert result.giveups == 0

    def test_protocol_work_charged_to_mp(self):
        policy = RetryPolicy(initial_timeout_us=10_000.0,
                             max_retries=5,
                             conversation_timeout_us=500_000.0)
        result = run_with_loss(0.02, policy=policy)
        assert result.mp_protocol_time_us > 0.0

    def test_duplicates_suppressed(self):
        result = run_chaos_experiment(
            Architecture.II, duplicate_rate=0.5, seed=1,
            measure_us=400_000.0)
        assert result.duplicates_suppressed > 0
        assert result.failed == 0
        # duplicated data packets never complete a conversation twice:
        # completions stay at most the reliable count for the window
        reliable = run_chaos_experiment(Architecture.II, seed=1,
                                        measure_us=400_000.0)
        assert result.completed <= reliable.completed


def test_only_live_timeouts_fire(monkeypatch):
    """Acks and abandons cancel a packet's timeout, so every timeout
    that fires belongs to a packet still outstanding."""
    from repro.faults import ReliableTransport
    fired = []
    timeout = ReliableTransport._timeout

    def checked(self, out):
        assert self._outstanding.get((out.destination, out.seq)) is out
        fired.append(out.attempt)
        timeout(self, out)

    monkeypatch.setattr(ReliableTransport, "_timeout", checked)
    policy = RetryPolicy(initial_timeout_us=10_000.0, max_retries=5,
                         conversation_timeout_us=500_000.0)
    result = run_with_loss(0.05, policy=policy)
    assert result.retransmissions > 0
    assert len(fired) == result.retransmissions + result.giveups


def test_transport_selected_by_plan_activity():
    from repro.faults import ReliableTransport, UnreliableNetwork
    from repro.kernel import DirectTransport, Wire

    active = FaultPlan.packet_loss(0.1, seed=0)
    system, _meter = build_conversation_system(
        Architecture.II, Mode.NONLOCAL, 1, 0.0, 0, faults=active)
    assert isinstance(system.wire, UnreliableNetwork)
    for node in system.nodes.values():
        assert isinstance(node.transport, ReliableTransport)

    inactive = FaultPlan()
    assert not inactive.active
    system, _meter = build_conversation_system(
        Architecture.II, Mode.NONLOCAL, 1, 0.0, 0, faults=inactive)
    assert isinstance(system.wire, Wire)
    for node in system.nodes.values():
        assert isinstance(node.transport, DirectTransport)


def test_sequence_numbers_are_per_destination():
    plan = FaultPlan.packet_loss(0.0, seed=0)
    # force the reliable transport with an outage far past the horizon
    from repro.faults import NodeOutage
    plan = FaultPlan(outages=(NodeOutage("servers", 1e12, 2e12),),
                     seed=0)
    system, meter = build_conversation_system(
        Architecture.II, Mode.NONLOCAL, 2, 0.0, 0, faults=plan)
    system.run_for(100_000.0)
    clients = system.nodes["clients"].transport
    assert clients._next_seq["servers"] == clients.stats.data_packets
    assert meter.count > 0
