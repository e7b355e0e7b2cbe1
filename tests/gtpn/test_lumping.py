"""Tests for exact symmetry lumping.

The contract under test: a net with declared replica symmetry is
lumped, and the lumped chain is a strongly-lumpable quotient, so every
steady-state measure — throughput, per-pool busy fractions,
per-transition firing rates (orbit-averaged) — agrees with the exact
solve of the same net with its declarations stripped to far better
than 1e-9, while the state space shrinks.  Plus the
declaration-time validation: ``declare_symmetry`` must reject
malformed groups rather than let an inexact fold through.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.gtpn import Net, analyze
from repro.models.params import Architecture
from repro.models.symmetric import build_replicated_local_net
from repro.perf import configure_cache

TOL = 1e-9


@pytest.fixture(autouse=True)
def _cold_store():
    configure_cache()


def _stripped(net):
    """*net* without its symmetry declarations: the unlumped oracle."""
    net.symmetries.clear()
    return net


def _operating_points():
    return st.one_of(
        st.tuples(st.just(Architecture.I), st.integers(2, 3),
                  st.sampled_from([0.0, 5.0, 17.0])),
        st.tuples(st.just(Architecture.II), st.just(2),
                  st.sampled_from([0.0, 5.0])))


@settings(max_examples=8, deadline=None)
@given(_operating_points())
def test_lumped_measures_match_unlumped(point):
    architecture, conversations, compute = point
    exact = analyze(_stripped(build_replicated_local_net(
        architecture, conversations, compute)))
    lumped = analyze(build_replicated_local_net(
        architecture, conversations, compute))
    assert exact.graph.reduction is None
    assert lumped.state_count < exact.state_count
    assert lumped.graph.reduction.lumped
    assert abs(lumped.throughput() - exact.throughput()) < TOL
    net = exact.net
    for place in net.places:
        if place.initial_tokens > 0:
            assert abs(lumped.busy_fraction(place.name)
                       - exact.busy_fraction(place.name)) < TOL
    for transition in net.transitions:
        assert abs(lumped.firing_rate(transition.name)
                   - exact.firing_rate(transition.name)) < TOL


def test_lumped_quotient_shrinks_by_replica_permutations():
    net = build_replicated_local_net(Architecture.I, 3)
    exact = analyze(_stripped(build_replicated_local_net(Architecture.I,
                                                         3)))
    lumped = analyze(net)
    # 3 interchangeable replicas: the quotient can fold up to 3! states
    # onto one representative and never fewer than 1
    assert exact.state_count / 6 <= lumped.state_count
    assert lumped.state_count < exact.state_count
    info = lumped.graph.reduction
    assert len(info.place_orbits[0]) == 3
    assert len(info.transition_orbits[0]) == 3
    assert info.folded_states > 0


def test_replicated_net_matches_pooled_throughput():
    """The replicated form describes the same system as the pooled
    chapter-6 local model; with a single host their throughputs agree
    closely (the pooling is itself an exact counter abstraction of
    the same underlying chain)."""
    from repro.models.local import build_local_net
    pooled = analyze(build_local_net(Architecture.I, 2))
    replicated = analyze(build_replicated_local_net(Architecture.I, 2))
    assert replicated.throughput() == pytest.approx(
        pooled.throughput(), rel=1e-12)


def _pair_net():
    net = Net("pair")
    host = net.place("Host", tokens=1)
    a0 = net.place("A0", tokens=1)
    a1 = net.place("A1", tokens=1)
    b0 = net.place("B0")
    b1 = net.place("B1")
    net.transition("t0", delay=2, inputs=[a0], outputs=[b0],
                   extra_resources=["host"])
    net.transition("t1", delay=2, inputs=[a1], outputs=[b1],
                   extra_resources=["host"])
    net.transition("r0", delay=1, inputs=[b0], outputs=[a0],
                   resource="lambda")
    net.transition("r1", delay=1, inputs=[b1], outputs=[a1],
                   resource="lambda")
    return net, host


def test_declare_symmetry_rejects_single_member():
    net, _ = _pair_net()
    with pytest.raises(ModelError, match="at least 2"):
        net.declare_symmetry([(["A0", "B0"], ["t0", "r0"])])


def test_declare_symmetry_rejects_misaligned_lists():
    net, _ = _pair_net()
    with pytest.raises(ModelError, match="aligned"):
        net.declare_symmetry([(["A0", "B0"], ["t0", "r0"]),
                              (["A1"], ["t1", "r1"])])


def test_declare_symmetry_rejects_overlapping_members():
    net, _ = _pair_net()
    with pytest.raises(ModelError, match="overlap"):
        net.declare_symmetry([(["A0", "B0"], ["t0", "r0"]),
                              (["A0", "B1"], ["t1", "r1"])])


def test_declare_symmetry_rejects_non_automorphism():
    net = Net("asym")
    a0 = net.place("A0", tokens=1)
    a1 = net.place("A1", tokens=2)   # different initial marking
    b0 = net.place("B0")
    b1 = net.place("B1")
    net.transition("t0", delay=2, inputs=[a0], outputs=[b0])
    net.transition("t1", delay=2, inputs=[a1], outputs=[b1])
    with pytest.raises(ModelError, match="not a symmetry"):
        net.declare_symmetry([(["A0", "B0"], ["t0"]),
                              (["A1", "B1"], ["t1"])])


def test_declare_symmetry_rejects_mismatched_delay():
    net = Net("delays")
    a0 = net.place("A0", tokens=1)
    a1 = net.place("A1", tokens=1)
    b0 = net.place("B0")
    b1 = net.place("B1")
    net.transition("t0", delay=2, inputs=[a0], outputs=[b0])
    net.transition("t1", delay=3, inputs=[a1], outputs=[b1])
    with pytest.raises(ModelError, match="delay"):
        net.declare_symmetry([(["A0", "B0"], ["t0"]),
                              (["A1", "B1"], ["t1"])])


def _gated_replicas(gate_second: bool = True) -> Net:
    """Two replicas sharing a Host; each replica's work is inhibited
    while its own Wait place is marked or its own slow step fires."""
    from repro.gtpn import Gate
    net = Net("gated-replicas")
    host = net.place("Host", tokens=1)
    members = []
    for k in range(2):
        ready = net.place(f"Ready{k}", tokens=1)
        wait = net.place(f"Wait{k}")
        gate = Gate(inhibitors=[wait], not_firing=[f"slow{k}"]) \
            if k == 0 or gate_second else None
        work = net.transition(f"work{k}", delay=1, frequency=0.25,
                              inputs=[ready, host], outputs=[wait, host],
                              resource="lambda", gate=gate)
        slow = net.transition(f"slow{k}", delay=2, frequency=0.5,
                              inputs=[wait], outputs=[ready])
        spin = net.transition(f"spin{k}", delay=1, frequency=0.75,
                              inputs=[ready, host],
                              outputs=[ready, host], gate=gate)
        members.append(([ready, wait], [work, slow, spin]))
    net.declare_symmetry(members)
    return net


def test_gated_replicas_lump_exactly():
    exact = analyze(_stripped(_gated_replicas()))
    lumped = analyze(_gated_replicas())
    assert lumped.state_count < exact.state_count
    assert abs(lumped.throughput() - exact.throughput()) < TOL
    for transition in exact.net.transitions:
        assert abs(lumped.firing_rate(transition.name)
                   - exact.firing_rate(transition.name)) < TOL


def test_symmetry_rejects_replicas_with_different_gates():
    with pytest.raises(ModelError, match="gate"):
        _gated_replicas(gate_second=False)
