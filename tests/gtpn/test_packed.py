"""Tests for the array-native packed GTPN engine (repro.gtpn.packed).

The contract under test: the packed engine is *bit-identical* to the
object walk kept as a test oracle (``conftest.object_walk``) — same
state order, same CSR arrays, same initial vector, same expected-start
and in-flight matrices — on nets
covering multi-tick delays, immediate transitions, multi-token places,
conflict classes and declared gates, including every gated model net.
Plus the supporting machinery: the pack/unpack round trip, the
vectorized row interner, and the structured state-space limit error.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, ModelError, StateSpaceLimitError
from repro.gtpn import Gate, Net, activity_pair
from repro.gtpn.packed import (SkeletonMismatch, _Interner,
                               _unique_rows_first_seen, compile_packed,
                               packed_build, packed_retime)
from repro.models import build_nonlocal_client_net, build_nonlocal_server_net
from repro.models.local import build_local_net
from repro.models.params import Architecture


def _cycle_net() -> Net:
    """Multi-token place, delay >= 2, and a geometric activity pair."""
    net = Net("cycle")
    ready = net.place("Ready", tokens=2)
    done = net.place("Done")
    activity_pair(net, "serve", 10.0, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=2, inputs=[done], outputs=[ready])
    return net


def _immediate_net() -> Net:
    """A zero-delay transition between two timed stages."""
    net = Net("imm")
    a = net.place("A", tokens=2)
    b = net.place("B")
    c = net.place("C")
    net.transition("go", delay=3, inputs=[a], outputs=[b])
    net.transition("hop", delay=0, inputs=[b], outputs=[c])
    net.transition("back", delay=1, inputs=[c], outputs=[a],
                   resource="lambda")
    return net


def _conflict_net() -> Net:
    """Two transitions competing for one token (a conflict class)."""
    net = Net("conflict")
    ready = net.place("Ready", tokens=1)
    left = net.place("Left")
    right = net.place("Right")
    done = net.place("Done")
    net.transition("tl", delay=1, frequency=0.25,
                   inputs=[ready], outputs=[left])
    net.transition("tr", delay=2, frequency=0.75,
                   inputs=[ready], outputs=[right])
    net.transition("jl", delay=3, inputs=[left], outputs=[done])
    net.transition("jr", delay=1, inputs=[right], outputs=[done])
    net.transition("loop", delay=1, inputs=[done], outputs=[ready],
                   resource="lambda")
    return net


def _gated_net() -> Net:
    """Gates reading a delay-2 target and an earlier settle round.

    ``hop`` (immediate) deposits the token ``gated`` needs, so
    ``gated`` first competes in the round after ``slow`` (delay 2) and
    ``quick`` started: its gate must see those firings in flight, and
    a ``slow`` firing carried over from the previous tick as well.
    ``drained`` is itself a delay-2 transition behind a gate.
    """
    net = Net("gated")
    a = net.place("A", tokens=2)
    b = net.place("B")
    c = net.place("C", tokens=1)
    d = net.place("D")
    busy = net.place("Busy")
    net.transition("slow", delay=2, frequency=0.5, inputs=[a],
                   outputs=[b])
    net.transition("quick", delay=1, frequency=0.5, inputs=[a],
                   outputs=[b])
    net.transition("back", delay=1, inputs=[b], outputs=[a])
    net.transition("hop", delay=0, inputs=[c], outputs=[d])
    net.transition("gated", delay=1, frequency=0.25, inputs=[d],
                   outputs=[c, busy], resource="lambda",
                   gate=Gate(not_firing=["slow"]))
    net.transition("other", delay=3, frequency=0.75, inputs=[d],
                   outputs=[c])
    net.transition("drain", delay=1, inputs=[busy], outputs=[])
    net.transition("drained", delay=2, frequency=0.5, inputs=[c],
                   outputs=[c], gate=Gate(inhibitors=["Busy"],
                                          not_firing=["quick", "hop"]))
    return net


NETS = [_cycle_net, _immediate_net, _conflict_net, _gated_net,
        lambda: build_local_net(Architecture.I, 2),
        lambda: build_local_net(Architecture.II, 2)]


@pytest.mark.parametrize("make", NETS, ids=lambda f: "net")
def test_packed_build_is_bit_identical_to_object_walk(oracle_identical,
                                                      make):
    oracle_identical(make())


@pytest.mark.parametrize("hosts", [1, 2])
@pytest.mark.parametrize("arch", [Architecture.I, Architecture.II,
                                  Architecture.III], ids=str)
def test_gated_model_nets_bit_identical_to_object_walk(oracle_identical,
                                                       arch, hosts):
    """Every gated client and server net the fixed point builds."""
    for n in (1, 2, 3, 4):
        for surrogate in (3000.0, 450.0):
            oracle_identical(build_nonlocal_client_net(
                arch, n, surrogate, hosts=hosts))
            oracle_identical(build_nonlocal_server_net(
                arch, n, surrogate, hosts=hosts))


#: Every chapter-6 net family: local, client and server nets of each
#: architecture over the conversation counts the figures sweep.
CHAPTER_6_NETS = [
    *[(f"local-{a.name}-n{n}", lambda a=a, n=n: build_local_net(a, n))
      for a in Architecture for n in (1, 2, 3, 4)],
    *[(f"client-{a.name}-n{n}",
       lambda a=a, n=n: build_nonlocal_client_net(a, n, 3000.0))
      for a in Architecture for n in (1, 2, 3, 4)],
    *[(f"server-{a.name}-n{n}",
       lambda a=a, n=n: build_nonlocal_server_net(a, n, 450.0, 3000.0))
      for a in Architecture for n in (1, 2, 3, 4)],
]


@pytest.mark.parametrize("name, make", CHAPTER_6_NETS,
                         ids=[name for name, _ in CHAPTER_6_NETS])
def test_round_major_fold_matches_the_strided_fold(fold_identical, name,
                                                   make):
    fold_identical(make())


def test_gated_off_member_leaves_the_weighted_choice():
    """A closed gate acts exactly as frequency zero: with the
    inhibitor marked, a gated 0.25 member and an ungated 0.75 member
    split 0 / 1, not 0.25 / 0.75 renormalized to anything else."""
    net = Net("inhibited")
    ready = net.place("Ready", tokens=1)
    block = net.place("Block", tokens=1)
    net.transition("g", delay=1, frequency=0.25, inputs=[ready],
                   outputs=[ready], gate=Gate(inhibitors=[block]))
    net.transition("u", delay=1, frequency=0.75, inputs=[ready],
                   outputs=[ready], resource="lambda")
    graph, _ = packed_build(net, compile_packed(net), max_states=100)
    assert graph.state_count == 1
    assert graph.starts_matrix.tolist() == [[0.0, 1.0]]


@st.composite
def gated_nets(draw):
    """Small conservative nets with immediate transitions and random
    declarative gates over random places and transitions."""
    n_places = draw(st.integers(2, 4))
    n_transitions = draw(st.integers(2, 5))
    tokens = draw(st.lists(st.integers(0, 2), min_size=n_places,
                           max_size=n_places))
    if sum(tokens) == 0:
        tokens[0] = 1
    net = Net("random-gated")
    places = [net.place(f"P{i}", tokens=tokens[i])
              for i in range(n_places)]
    names = [f"T{t}" for t in range(n_transitions)]
    for t, name in enumerate(names):
        gate = None
        if draw(st.booleans()):
            inhibitors = draw(st.lists(st.sampled_from(places),
                                       max_size=2, unique=True))
            fired = draw(st.lists(st.sampled_from(names), max_size=2,
                                  unique=True))
            if inhibitors or fired:
                gate = Gate(inhibitors=inhibitors, not_firing=fired)
        # immediate transitions must not loop to themselves, or a
        # settle could cycle forever in zero time
        source = draw(st.integers(0, n_places - 1))
        target = draw(st.integers(0, n_places - 1))
        delay = draw(st.integers(0, 2))
        if delay == 0 and target <= source:
            delay = 1
        net.transition(name, delay=delay,
                       frequency=draw(st.floats(0.1, 1.0)),
                       inputs=[places[source]], outputs=[places[target]],
                       gate=gate)
    return net


@settings(max_examples=60, deadline=None)
@given(gated_nets())
@example(_gated_net())
def test_property_random_gated_nets_bit_identical(oracle_identical, net):
    """Random gates over random places and transitions, immediates
    included; the explicit example pins a delay-2 gate target and a
    target started in an earlier settle round of the same tick."""
    oracle_identical(net)


@settings(max_examples=40, deadline=None)
@given(gated_nets())
@example(_gated_net())
def test_property_random_gated_nets_fold_like_the_strided_fold(
        fold_identical, net):
    fold_identical(net)


def test_gate_with_unknown_name_rejected():
    net = Net("typo")
    a = net.place("A", tokens=1)
    net.transition("t", delay=1, inputs=[a], outputs=[a],
                   gate=Gate(not_firing=["nope"]))
    with pytest.raises(ModelError, match="nope"):
        compile_packed(net)


def test_retime_rejects_a_changed_gate():
    """Gates are structure: a skeleton never re-times across them."""
    def make(gate):
        net = Net("g")
        a = net.place("A", tokens=1)
        b = net.place("B")
        net.transition("t", delay=1, frequency=0.5, inputs=[a],
                       outputs=[b], gate=gate)
        net.transition("u", delay=2, frequency=0.5, inputs=[a],
                       outputs=[b])
        net.transition("back", delay=1, inputs=[b], outputs=[a])
        return net
    net = make(Gate(not_firing=["u"]))
    _, skeleton = packed_build(net, compile_packed(net), max_states=100)
    with pytest.raises(SkeletonMismatch, match="gates"):
        packed_retime(skeleton, make(Gate(not_firing=["back"])),
                      max_states=100)


@pytest.mark.parametrize("make", NETS, ids=lambda f: "net")
def test_packed_retime_is_bit_identical_to_packed_build(make):
    net = make()
    pg, skeleton = packed_build(net, compile_packed(net),
                                max_states=200_000)
    (rg,) = packed_retime(skeleton, net, max_states=200_000)
    assert (rg.matrix != pg.matrix).nnz == 0
    assert (rg.init_vec == pg.init_vec).all()
    assert (rg.starts_matrix == pg.starts_matrix).all()
    assert (rg.inflight_matrix == pg.inflight_matrix).all()


def test_pack_unpack_round_trip():
    net = _cycle_net()
    pnet = compile_packed(net)
    graph, _ = packed_build(net, pnet, max_states=200_000)
    layout = graph.packed_layout
    for row in graph.packed_table:
        assert (layout.pack(layout.unpack(row)) == row).all()


def test_interner_assigns_first_seen_ids_and_is_stable():
    rows = np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4]],
                    dtype=np.int32)
    interner = _Interner(2)
    ids = interner.intern(rows)
    assert ids.tolist() == [0, 1, 0, 2, 1]
    assert interner.n == 3
    assert (interner.table() == [[1, 2], [3, 4], [5, 6]]).all()
    # a second pass over known plus fresh rows keeps existing ids
    more = np.array([[5, 6], [7, 8], [1, 2]], dtype=np.int32)
    assert interner.intern(more).tolist() == [2, 3, 0]
    assert interner.n == 4


def test_unique_rows_first_seen_order():
    rows = np.array([[9, 9], [0, 1], [9, 9], [0, 1], [2, 2]],
                    dtype=np.int32)
    firsts, inverse = _unique_rows_first_seen(rows)
    assert firsts.tolist() == [0, 1, 4]
    assert inverse.tolist() == [0, 1, 0, 1, 2]


def test_state_space_limit_error_is_structured():
    net = build_local_net(Architecture.II, 3)
    with pytest.raises(StateSpaceLimitError) as exc_info:
        packed_build(net, compile_packed(net), max_states=100)
    error = exc_info.value
    assert error.net_name == net.name
    assert error.state_count > 100
    assert error.frontier_size > 0
    assert error.max_states == 100
    assert "max_states" in str(error)


def test_class_member_cap_is_an_analysis_error():
    """The 40-bit factor mask bounds a conflict class's members."""
    net = Net("wide")
    ready = net.place("Ready", tokens=1)
    for k in range(41):
        net.transition(f"t{k}", delay=1, inputs=[ready], outputs=[ready])
    with pytest.raises(AnalysisError, match="40"):
        compile_packed(net)
