"""Tests for GTPN structural analysis (incidence matrix, invariants)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gtpn import Net, activity_pair
from repro.gtpn.structure import (check_invariant, incidence_matrix,
                                  invariant_value, is_connected,
                                  place_invariants,
                                  structural_deadlock_free_bound)
from repro.models import Architecture, build_local_net
from repro.models.nonlocal_client import build_nonlocal_client_net


def simple_cycle():
    net = Net("cycle")
    a = net.place("A", tokens=2)
    b = net.place("B")
    net.transition("go", delay=1, inputs=[a], outputs=[b])
    net.transition("back", delay=1, inputs=[b], outputs=[a])
    return net


class TestIncidenceMatrix:
    def test_shape_and_entries(self):
        net = simple_cycle()
        matrix = incidence_matrix(net)
        assert matrix.shape == (2, 2)
        # go: A-1, B+1 ; back: A+1, B-1
        assert matrix[0, 0] == -1 and matrix[1, 0] == 1
        assert matrix[0, 1] == 1 and matrix[1, 1] == -1

    def test_loop_transition_contributes_zero_column(self):
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B")
        activity_pair(net, "act", 5.0, inputs=[a], outputs=[b])
        matrix = incidence_matrix(net)
        loop_col = matrix[:, net.transition_index("act.loop")]
        assert not loop_col.any()

    def test_arc_multiplicity_respected(self):
        net = Net()
        a = net.place("A", tokens=4)
        b = net.place("B")
        net.transition("t", delay=1, inputs={a: 3}, outputs={b: 2})
        matrix = incidence_matrix(net)
        assert matrix[0, 0] == -3
        assert matrix[1, 0] == 2


class TestInvariants:
    def test_simple_cycle_conserves_tokens(self):
        net = simple_cycle()
        invariants = place_invariants(net)
        assert {"A": 1, "B": 1} in invariants
        assert invariant_value(net, {"A": 1, "B": 1}) == 2

    def test_check_invariant_rejects_nonconserving(self):
        net = simple_cycle()
        assert not check_invariant(net, {"A": 1})
        assert check_invariant(net, {"A": 2, "B": 2})

    def test_architecture_model_invariants(self):
        """The arch II local net conserves Host, MP, and the number
        of conversations in the client pipeline."""
        net = build_local_net(Architecture.II, 3, 0.0)
        invariants = place_invariants(net)
        assert {"Host": 1} in invariants
        assert {"MP": 1} in invariants
        conversation = {"Clients": 1, "SendReq": 1, "MsgQueued": 1,
                        "ServerReady": 1, "ReplyReq": 1}
        assert check_invariant(net, conversation)
        assert invariant_value(net, conversation) == 3

    def test_every_basis_vector_is_an_invariant(self):
        for net in (simple_cycle(),
                    build_local_net(Architecture.I, 2),
                    build_local_net(Architecture.IV, 2),
                    build_nonlocal_client_net(Architecture.II, 2,
                                              3000.0)):
            for weights in place_invariants(net):
                assert check_invariant(net, weights), (net.name,
                                                       weights)

    def test_null_space_dimension_matches_numpy_rank(self):
        net = build_local_net(Architecture.III, 2)
        matrix = incidence_matrix(net)
        rank = np.linalg.matrix_rank(matrix.astype(float))
        expected = matrix.shape[0] - rank
        assert len(place_invariants(net)) == expected


class TestGraphView:
    def test_architecture_models_connected(self):
        for arch in Architecture:
            assert is_connected(build_local_net(arch, 2)), arch

    def test_disjoint_nets_are_not_connected(self):
        net = Net()
        for name in ("a", "b"):
            place = net.place(f"P{name}", tokens=1)
            net.transition(f"t{name}", delay=1, inputs=[place],
                           outputs=[place])
        assert not is_connected(net)

    def test_cycle_condition_on_models(self):
        for arch in Architecture:
            net = build_local_net(arch, 2)
            assert structural_deadlock_free_bound(net), arch

    def test_cycle_condition_detects_drain(self):
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B")
        net.transition("drain", delay=1, inputs=[a], outputs=[b])
        # nothing returns tokens to A: fails the cycle condition
        assert not structural_deadlock_free_bound(net)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2))
def test_property_invariants_hold_at_reachable_states(conversations,
                                                      hosts):
    """The conversation invariant holds in every reachable marking of
    the arch II local net, counting in-flight input tokens."""
    from repro.gtpn import build_reachability_graph
    net = build_local_net(Architecture.II, conversations, 0.0,
                          hosts=hosts)
    weights = {"Clients": 1, "SendReq": 1, "MsgQueued": 1,
               "ServerReady": 1, "ReplyReq": 1}
    graph = build_reachability_graph(net)
    for state in graph.packed_layout.unpack_all(graph.packed_table):
        total = sum(state.marking[net.place_index(name)] * weight
                    for name, weight in weights.items())
        # tokens held by in-flight firings count at their weights
        for t_idx, _remaining in state.inflight:
            t = net.transitions[t_idx]
            for p, n in t.inputs.items():
                total += n * weights.get(net.places[p].name, 0)
        assert total == conversations
