"""Tests of the GTPN tick semantics (repro.gtpn.state), run on the
exhaustive oracle tick engine."""

import pytest

from repro.errors import AnalysisError
from repro.gtpn import Gate, Net
from repro.gtpn.state import State
from tests.gtpn.conftest import ExhaustiveResolver, TickEngine


def branches_of(net, state=None):
    engine = TickEngine(net)
    resolver = ExhaustiveResolver()
    if state is None:
        return engine.initial_branches(resolver)
    return engine.tick(state, resolver)


def test_single_timed_transition_starts_firing():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    net.transition("T", delay=1, inputs=[a], outputs=[b])
    (branch,) = branches_of(net)
    assert branch.probability == 1.0
    assert branch.state.marking == (0, 0)       # token removed at start
    assert branch.state.inflight == ((0, 1),)   # T firing, 1 tick left


def test_firing_deposits_outputs_next_tick():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    net.transition("T", delay=1, inputs=[a], outputs=[b])
    (first,) = branches_of(net)
    (second,) = branches_of(net, first.state)
    assert second.state.marking == (0, 1)
    assert second.state.inflight == ()


def test_multi_tick_delay_counts_down():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    net.transition("T", delay=3, inputs=[a], outputs=[b])
    (s1,) = branches_of(net)
    assert s1.state.inflight == ((0, 3),)
    (s2,) = branches_of(net, s1.state)
    assert s2.state.inflight == ((0, 2),)
    (s3,) = branches_of(net, s2.state)
    assert s3.state.inflight == ((0, 1),)
    (s4,) = branches_of(net, s3.state)
    assert s4.state.marking == (0, 1)
    assert s4.state.inflight == ()


def test_immediate_transition_fires_in_zero_time():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    net.transition("T", delay=0, inputs=[a], outputs=[b])
    (branch,) = branches_of(net)
    assert branch.state.marking == (0, 1)
    assert branch.starts == (1,)


def test_immediate_chain_reaches_quiescence_in_one_tick():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    c = net.place("C")
    net.transition("T0", delay=0, inputs=[a], outputs=[b])
    net.transition("T1", delay=0, inputs=[b], outputs=[c])
    (branch,) = branches_of(net)
    assert branch.state.marking == (0, 0, 1)


def test_unbounded_immediate_loop_detected():
    net = Net()
    a = net.place("A", tokens=1)
    net.transition("T", delay=0, inputs=[a], outputs=[a])
    with pytest.raises(AnalysisError):
        branches_of(net)


def test_conflict_probabilities_split_by_frequency():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    c = net.place("C")
    net.transition("T0", delay=1, frequency=0.25, inputs=[a], outputs=[b])
    net.transition("T1", delay=1, frequency=0.75, inputs=[a], outputs=[c])
    branches = branches_of(net)
    probs = {branch.state.inflight[0][0]: branch.probability
             for branch in branches}
    assert probs[0] == pytest.approx(0.25)
    assert probs[1] == pytest.approx(0.75)


def test_frequencies_normalized_over_enabled_subset():
    # T1 requires tokens from two places; only T0 is enabled, so it
    # fires with probability one despite its small raw frequency.
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B", tokens=0)
    c = net.place("C")
    net.transition("T0", delay=1, frequency=0.1, inputs=[a], outputs=[c])
    net.transition("T1", delay=1, frequency=0.9, inputs=[a, b], outputs=[c])
    (branch,) = branches_of(net)
    assert branch.probability == pytest.approx(1.0)
    assert branch.state.inflight == ((0, 1),)


def test_zero_frequency_transition_never_fires():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    net.transition("T", delay=1, frequency=0.0, inputs=[a], outputs=[b])
    (branch,) = branches_of(net)
    assert branch.state.marking == (1, 0)
    assert branch.state.inflight == ()


def test_independent_classes_fire_concurrently():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B", tokens=1)
    net.transition("TA", delay=1, inputs=[a], outputs=[a])
    net.transition("TB", delay=1, inputs=[b], outputs=[b])
    (branch,) = branches_of(net)
    assert branch.state.inflight == ((0, 1), (1, 1))


def test_infinite_server_fires_once_per_token():
    # Three tokens, no serializing resource: all three start firing.
    net = Net()
    a = net.place("A", tokens=3)
    b = net.place("B")
    net.transition("T", delay=1, inputs=[a], outputs=[b])
    (branch,) = branches_of(net)
    assert branch.state.inflight == ((0, 1), (0, 1), (0, 1))
    assert branch.starts == (3,)


def test_resource_place_serializes_firings():
    # Three clients but a single Host token: exactly one start per tick.
    net = Net()
    clients = net.place("Clients", tokens=3)
    host = net.place("Host", tokens=1)
    done = net.place("Done")
    net.transition("T", delay=1, inputs=[clients, host],
                   outputs=[done, host])
    (branch,) = branches_of(net)
    assert branch.starts == (1,)
    assert branch.state.marking[0] == 2   # two clients still waiting


def test_binomial_branching_of_independent_choices():
    # Two tokens each independently exit w.p. 1/2: outcomes 0, 1, 2
    # exits with probabilities 1/4, 1/2, 1/4.
    net = Net()
    wait = net.place("Wait", tokens=2)
    out = net.place("Out")
    net.transition("Exit", delay=1, frequency=0.5,
                   inputs=[wait], outputs=[out])
    net.transition("Stay", delay=1, frequency=0.5,
                   inputs=[wait], outputs=[wait])
    branches = branches_of(net)
    by_exits = {}
    for branch in branches:
        exits = branch.starts[0]
        by_exits[exits] = by_exits.get(exits, 0.0) + branch.probability
    assert by_exits[0] == pytest.approx(0.25)
    assert by_exits[1] == pytest.approx(0.5)
    assert by_exits[2] == pytest.approx(0.25)


def test_state_dependent_gate_inhibits_class():
    net = Net()
    a = net.place("A", tokens=1)
    gate = net.place("Gate", tokens=1)
    b = net.place("B")
    net.transition("T", delay=1, inputs=[a], outputs=[b],
                   gate=Gate(inhibitors=[gate]))
    (branch,) = branches_of(net)
    assert branch.state.marking == (1, 1, 0)   # nothing moved
    assert gate.index == 1


def test_gate_reads_firings_started_in_earlier_settle_rounds():
    """``hop`` (immediate) frees the token ``late`` needs, so ``late``
    competes one settle round after ``slow`` started: it must see
    ``slow`` in flight and stay inhibited for the whole tick."""
    net = Net()
    a = net.place("A", tokens=1)
    c = net.place("C", tokens=1)
    d = net.place("D")
    net.transition("slow", delay=2, inputs=[a], outputs=[a])
    net.transition("hop", delay=0, inputs=[c], outputs=[d])
    net.transition("late", delay=1, inputs=[d], outputs=[c],
                   gate=Gate(not_firing=["slow"]))
    (branch,) = branches_of(net)
    assert branch.starts == (1, 1, 0)
    assert branch.state.marking == (0, 0, 1)
    # next tick ``slow`` (delay 2) is still in flight after the
    # advance; the tick after, it completes, and ``late`` competes in
    # the same round as the restarting ``slow``, so it goes
    engine = TickEngine(net)
    (second,) = engine.tick(branch.state, ExhaustiveResolver())
    assert second.starts == (0, 0, 0)
    (third,) = engine.tick(second.state, ExhaustiveResolver())
    assert third.starts == (1, 0, 1)


def test_probabilities_sum_to_one_across_branches():
    net = Net()
    a = net.place("A", tokens=2)
    b = net.place("B")
    net.transition("T0", delay=1, frequency=0.3, inputs=[a], outputs=[b])
    net.transition("T1", delay=1, frequency=0.7, inputs=[a], outputs=[a])
    branches = branches_of(net)
    assert sum(branch.probability for branch in branches) == \
        pytest.approx(1.0)


def test_state_is_hashable_and_canonical():
    s1 = State(marking=(1, 0), inflight=((0, 1), (1, 2)))
    s2 = State(marking=(1, 0), inflight=((0, 1), (1, 2)))
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.inflight_counts(3) == [1, 1, 0]
