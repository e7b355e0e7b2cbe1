"""Unit tests for GTPN net construction (repro.gtpn.net)."""

import pytest

from repro.errors import ModelError
from repro.gtpn import Gate, Net


def test_place_creation_assigns_indices():
    net = Net()
    a = net.place("A", tokens=2)
    b = net.place("B")
    assert a.index == 0
    assert b.index == 1
    assert net.initial_marking == (2, 0)


def test_duplicate_place_name_rejected():
    net = Net()
    net.place("A")
    with pytest.raises(ModelError):
        net.place("A")


def test_negative_initial_tokens_rejected():
    net = Net()
    with pytest.raises(ModelError):
        net.place("A", tokens=-1)


def test_transition_arcs_from_iterable_with_multiplicity():
    net = Net()
    a = net.place("A", tokens=3)
    b = net.place("B")
    t = net.transition("T", delay=1, inputs=[a, a], outputs=[b])
    assert t.inputs == {a.index: 2}
    assert t.outputs == {b.index: 1}


def test_transition_arcs_from_mapping():
    net = Net()
    a = net.place("A", tokens=3)
    b = net.place("B")
    t = net.transition("T", delay=1, inputs={a: 3}, outputs={b: 2})
    assert t.inputs == {a.index: 3}
    assert t.outputs == {b.index: 2}


def test_duplicate_transition_name_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    net.transition("T", delay=1, inputs=[a], outputs=[a])
    with pytest.raises(ModelError):
        net.transition("T", delay=1, inputs=[a], outputs=[a])


def test_negative_delay_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError):
        net.transition("T", delay=-1, inputs=[a], outputs=[a])


def test_zero_multiplicity_arc_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError):
        net.transition("T", delay=1, inputs={a: 0}, outputs={a: 1})


def test_unknown_place_lookup_raises():
    net = Net()
    with pytest.raises(ModelError):
        net.place_index("missing")


def test_unknown_transition_lookup_raises():
    net = Net()
    with pytest.raises(ModelError):
        net.transition_index("missing")


def test_enabled_requires_arc_multiplicity():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    t = net.transition("T", delay=1, inputs={a: 2}, outputs=[b])
    assert not t.enabled(net.initial_marking)
    assert t.enabled((2, 0))


def test_immediate_property():
    net = Net()
    a = net.place("A", tokens=1)
    t0 = net.transition("T0", delay=0, inputs=[a], outputs=[a])
    t1 = net.transition("T1", delay=1, inputs=[a], outputs=[a])
    assert t0.immediate
    assert not t1.immediate


def test_resources_listed_in_first_use_order():
    net = Net()
    a = net.place("A", tokens=1)
    net.transition("T0", delay=1, resource="beta", inputs=[a], outputs=[a])
    net.transition("T1", delay=1, resource="alpha", inputs=[a], outputs=[a])
    net.transition("T2", delay=1, resource="beta", inputs=[a], outputs=[a])
    assert net.resources == ["beta", "alpha"]


def test_validate_rejects_transitions_without_inputs():
    net = Net()
    a = net.place("A")
    net.transition("T", delay=1, inputs=[], outputs=[a])
    with pytest.raises(ModelError):
        net.validate()


class TestConflictClasses:
    def test_disjoint_transitions_in_separate_classes(self):
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B", tokens=1)
        net.transition("TA", delay=1, inputs=[a], outputs=[a])
        net.transition("TB", delay=1, inputs=[b], outputs=[b])
        assert net.conflict_classes() == [[0], [1]]

    def test_shared_input_place_merges_classes(self):
        net = Net()
        a = net.place("A", tokens=1)
        net.transition("T0", delay=1, inputs=[a], outputs=[a])
        net.transition("T1", delay=1, inputs=[a], outputs=[a])
        assert net.conflict_classes() == [[0, 1]]

    def test_transitive_sharing_merges_classes(self):
        # T0 shares A with T1; T1 shares B with T2 -> all one class
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B", tokens=1)
        c = net.place("C", tokens=1)
        net.transition("T0", delay=1, inputs=[a], outputs=[a])
        net.transition("T1", delay=1, inputs=[a, b], outputs=[a, b])
        net.transition("T2", delay=1, inputs=[b, c], outputs=[b, c])
        assert net.conflict_classes() == [[0, 1, 2]]

    def test_output_sharing_does_not_merge(self):
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B", tokens=1)
        c = net.place("C")
        net.transition("T0", delay=1, inputs=[a], outputs=[c])
        net.transition("T1", delay=1, inputs=[b], outputs=[c])
        assert net.conflict_classes() == [[0], [1]]

    def test_cache_invalidated_by_new_transition(self):
        net = Net()
        a = net.place("A", tokens=1)
        net.transition("T0", delay=1, inputs=[a], outputs=[a])
        assert net.conflict_classes() == [[0]]
        net.transition("T1", delay=1, inputs=[a], outputs=[a])
        assert net.conflict_classes() == [[0, 1]]


class TestGate:
    def _net(self):
        net = Net()
        net.place("A", tokens=3)
        net.place("B", tokens=0)
        a = net.get_place("A")
        net.transition("T", delay=1, inputs=[a], outputs=[a])
        return net

    def test_gate_accepts_names_and_objects(self):
        net = self._net()
        t = net.get_transition("T")
        by_object = Gate(inhibitors=[net.get_place("B")], not_firing=[t])
        by_name = Gate(inhibitors=["B"], not_firing=["T"])
        assert by_object == by_name
        gated = net.transition("U", delay=1, inputs=[net.get_place("A")],
                               outputs=[net.get_place("A")],
                               gate=by_object)
        assert net.gate_indices(gated) == ((1,), (0,))
        assert net.gate_indices(t) == ((), ())

    def test_gate_may_name_a_later_transition(self):
        net = self._net()
        a = net.get_place("A")
        early = net.transition("early", delay=1, inputs=[a], outputs=[a],
                               gate=Gate(not_firing=["late"]))
        net.transition("late", delay=1, inputs=[a], outputs=[a])
        net.validate()
        assert net.gate_indices(early) == ((), (2,))

    def test_gate_label_in_thesis_notation(self):
        net = self._net()
        a = net.get_place("A")
        t = net.transition(
            "U", delay=1, frequency=0.5, inputs=[a], outputs=[a],
            gate=Gate(inhibitors=["B"], not_firing=["T"]))
        assert t.frequency_label == "(B = 0) & !T -> 0.5, 0"

    def test_empty_gate_and_unknown_names_rejected(self):
        with pytest.raises(ModelError):
            Gate()
        net = self._net()
        a = net.get_place("A")
        net.transition("U", delay=1, inputs=[a], outputs=[a],
                       gate=Gate(inhibitors=["Missing"]))
        with pytest.raises(ModelError, match="Missing"):
            net.validate()


def test_callable_attribute_rejected_with_gate_hint():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError, match="gate="):
        net.transition("T", delay=1, frequency=lambda ctx: 1.0,
                       inputs=[a], outputs=[a])
    with pytest.raises(ModelError, match="gate="):
        net.transition("T", delay=lambda ctx: 1, inputs=[a], outputs=[a])


def test_negative_frequency_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError, match="frequency"):
        net.transition("T", delay=1, frequency=-0.5, inputs=[a],
                       outputs=[a])
