"""Tests for the advance-class quotient of the stationary solve.

Every in-flight firing finishes at the next tick, so a state's row of
P is a function of its post-completion configuration; the packed build
labels each state with that configuration's first-seen rank
(``ReachabilityGraph.advance_class``).  The contract under test: rows
of P in one class are bytewise equal (fresh and re-timed), the solve
of the class chain agrees with the solve of the full chain, a wrong
labelling is refused by the residual gate on the full P, and identity
labels, every state its own class, solve to the same vector.
"""

import numpy as np
import pytest

from repro import obs
from repro.gtpn import Net, activity_pair, analyze, markov
from repro.gtpn.packed import packed_build, packed_retime
from repro.models import Architecture, build_local_net
from repro.models.nonlocal_client import build_nonlocal_client_net
from repro.models.nonlocal_server import build_nonlocal_server_net
from repro.perf import configure_cache


@pytest.fixture(autouse=True)
def _cold_store():
    configure_cache()


def _warmup_net(mean):
    """A one-shot boot transition ahead of a service cycle: the boot
    states are transient, and the solve keeps them (with zero mass)."""
    net = Net("warmup")
    start = net.place("Start", tokens=1)
    ready = net.place("Ready")
    done = net.place("Done")
    net.transition("boot", delay=1, inputs=[start], outputs=[ready])
    activity_pair(net, "serve", mean, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def _build(net):
    return packed_build(net, max_states=200_000)


def _full_solve(matrix):
    """The deflated solve with every state its own class."""
    return markov._solve_linear(matrix.data, markov.build_solve_plan(
        matrix.indptr, matrix.indices))


def _local(arch, n):
    return lambda x: build_local_net(arch, n, compute_time=x)


def _client(arch, n, hosts=1):
    return lambda x: build_nonlocal_client_net(arch, n, 200.0 + x / 10,
                                               hosts=hosts)


def _server(arch, n):
    return lambda x: build_nonlocal_server_net(arch, n, 150.0 + x / 10)


# (id, builder of the net at compute time X)
_CHAINS = [
    *[(f"local-{a.name}-n{n}", _local(a, n))
      for a in (Architecture.I, Architecture.II, Architecture.III)
      for n in (1, 2, 3, 4)],
    *[(f"{side}-{a.name}-n{n}", build(a, n))
      for a in Architecture for n in (1, 2, 3)
      for side, build in (("client", _client), ("server", _server))],
    ("client-II-n2-hosts2", _client(Architecture.II, 2, hosts=2)),
    ("local-II-n2-hosts2",
     lambda x: build_local_net(Architecture.II, 2, compute_time=x,
                               hosts=2)),
    ("warmup", lambda x: _warmup_net(3.0 + x / 1000)),
]
_IDS = [chain[0] for chain in _CHAINS]


def _fresh_and_retimed(build):
    """A graph built at X = 1000 and one re-timed from its skeleton to
    X = 3000."""
    graph, skeleton = _build(build(1000.0))
    retimed = packed_retime(skeleton, build(3000.0), max_states=200_000)
    assert not np.array_equal(graph.matrix.data, retimed.matrix.data)
    return graph, retimed


def _assert_rows_equal_within_classes(graph):
    classes = graph.advance_class
    matrix = graph.matrix
    assert len(classes) == graph.state_count
    labels, reps = np.unique(classes, return_index=True)
    # labels are first-seen ranks 0..k-1
    assert np.array_equal(labels, np.arange(len(labels)))
    assert np.all(np.diff(reps) > 0)
    assert graph.quotient_order == len(labels)
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for state, label in enumerate(classes):
        rep = reps[label]
        mine = slice(indptr[state], indptr[state + 1])
        theirs = slice(indptr[rep], indptr[rep + 1])
        assert indices[mine].tobytes() == indices[theirs].tobytes()
        assert data[mine].tobytes() == data[theirs].tobytes()


@pytest.mark.parametrize("name, build", _CHAINS, ids=_IDS)
def test_rows_in_one_advance_class_are_equal(name, build):
    graph, retimed = _fresh_and_retimed(build)
    assert np.array_equal(graph.advance_class, retimed.advance_class)
    _assert_rows_equal_within_classes(graph)
    _assert_rows_equal_within_classes(retimed)


@pytest.mark.parametrize("name, build", _CHAINS, ids=_IDS)
def test_quotient_solve_agrees_with_the_full_chain(name, build):
    for graph in _fresh_and_retimed(build):
        matrix = graph.matrix
        plan = markov.build_solve_plan(matrix.indptr, matrix.indices,
                                       graph.advance_class)
        assert plan.k == graph.quotient_order
        with obs.recording() as recorder:
            quotient = markov._solve_linear(matrix.data, plan)
            full = _full_solve(matrix)
        assert quotient is not None and full is not None
        assert recorder.counters.get("markov.method.lu") == 2.0
        assert np.abs(quotient - full).max() / full.max() <= 1e-11


def test_reductions_quotient_the_solved_chain():
    """The transient boot states stay in the solved chain and in its
    quotient."""
    graph, _ = _fresh_and_retimed(lambda x: _warmup_net(3.0 + x / 1000))
    assert graph.quotient_order < graph.state_count


def test_local_arch2_n4_factors_574_classes():
    net = build_local_net(Architecture.II, 4)
    with obs.recording() as recorder:
        result = analyze(net)
    assert result.graph.state_count == 6_336
    assert recorder.gauges["markov.quotient_order"] == 574
    (solve,) = [s for s in recorder.spans if s.name == "gtpn.solve"]
    assert solve.attrs["states"] == 6_336
    assert solve.attrs["order"] == 574


def test_wrong_classes_are_refused_by_the_gate():
    """Merging two classes whose rows differ lifts a vector that is not
    P's fixed point: the gate refuses it and the counted fallback
    answers with the right vector."""
    graph, _ = _build(_warmup_net(3.0))
    matrix = graph.matrix
    classes = graph.advance_class.copy()
    first, second = (np.flatnonzero(classes == c)[0] for c in (0, 1))
    assert not np.array_equal(matrix[first].toarray(),
                              matrix[second].toarray())
    classes[classes == 1] = 0
    wrong = markov.build_solve_plan(matrix.indptr, matrix.indices, classes)
    assert wrong.k == graph.quotient_order - 1
    assert markov._solve_linear(matrix.data, wrong) is None
    with obs.recording() as recorder:
        pi = markov.stationary_distribution(graph, plan=wrong)
    assert recorder.counters.get("markov.solve_fallback") == 1.0
    assert "markov.quotient_order" not in recorder.gauges
    expected = _full_solve(matrix)
    assert np.abs(pi - expected).max() <= 1e-8


def test_unlabelled_graph_solves_every_state_as_a_class():
    """Identity labels make the class chain the full chain: the solve
    factors all n states and agrees with the advance-class solve."""
    graph, _ = _build(build_local_net(Architecture.II, 3))
    labelled = markov.stationary_distribution(graph)
    n = graph.state_count
    assert graph.quotient_order < n
    with obs.recording() as recorder:
        unlabelled = markov._solve_linear(graph.data, markov.build_solve_plan(
            graph.indptr, graph.indices, np.arange(n)))
    assert recorder.gauges["markov.quotient_order"] == n
    assert np.abs(labelled - unlabelled).max() / labelled.max() <= 1e-11
