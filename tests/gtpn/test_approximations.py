"""Tests for geometric-delay helpers and queueing identities."""

import pytest

from repro.errors import ModelError
from repro.gtpn import (Gate, Net, activity_pair, analyze,
                        geometric_frequency, littles_law_population,
                        littles_law_residence)


def test_geometric_frequency_inverse_of_mean():
    assert geometric_frequency(100.0) == pytest.approx(0.01)


def test_geometric_frequency_rejects_sub_tick_mean():
    with pytest.raises(ModelError):
        geometric_frequency(0.5)


def test_activity_pair_creates_exit_and_loop():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    exit_t, loop_t = activity_pair(net, "act", 4.0, inputs=[a], outputs=[b])
    assert exit_t.name == "act"
    assert loop_t.name == "act.loop"
    assert exit_t.frequency == pytest.approx(0.25)
    assert loop_t.frequency == pytest.approx(0.75)
    # loop returns tokens to the inputs
    assert loop_t.outputs == loop_t.inputs


def test_activity_pair_mean_one_has_no_loop():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    exit_t, loop_t = activity_pair(net, "act", 1.0, inputs=[a], outputs=[b])
    assert exit_t is loop_t
    assert len(net.transitions) == 1


def test_activity_pair_holds_resource_places():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    host = net.place("Host", tokens=1)
    exit_t, loop_t = activity_pair(net, "act", 4.0, inputs=[a], outputs=[b],
                                   holds=[host])
    assert exit_t.inputs[host.index] == 1
    assert exit_t.outputs[host.index] == 1
    assert loop_t.inputs[host.index] == 1


def test_gated_activity_pair_inhibited_by_context():
    net = Net()
    a = net.place("A", tokens=1)
    blocker = net.place("Blocker", tokens=1)
    b = net.place("B")
    activity_pair(net, "act", 2.0, inputs=[a], outputs=[b],
                  gate=Gate(inhibitors=[blocker]),
                  resource="lambda")
    # blocker present forever: throughput zero, net deadlocks benignly
    result = analyze(net)
    assert result.throughput() == pytest.approx(0.0, abs=1e-12)


def test_geometric_approximation_preserves_mean_throughput():
    """Figure 6.7: constant delay vs geometric approximation."""
    def build(kind):
        net = Net(kind)
        ready = net.place("Ready", tokens=1)
        done = net.place("Done")
        if kind == "constant":
            net.transition("serve", delay=20, inputs=[ready],
                           outputs=[done])
        else:
            activity_pair(net, "serve", 20.0, inputs=[ready],
                          outputs=[done])
        net.transition("T0", delay=1, inputs=[done], outputs=[ready],
                       resource="lambda")
        return analyze(net).throughput()

    assert build("constant") == pytest.approx(build("geometric"), rel=1e-9)


def test_littles_law_identities():
    assert littles_law_population(0.5, 10.0) == pytest.approx(5.0)
    assert littles_law_residence(5.0, 0.5) == pytest.approx(10.0)
    with pytest.raises(ModelError):
        littles_law_residence(5.0, 0.0)
