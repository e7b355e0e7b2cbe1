"""Tests for lazily materialized graphs and the transpose-free gate.

A build or re-time evaluates only ``P.data``; the graph builds its CSR
matrix, expected starts and initial distribution when one is first
read (:class:`repro.gtpn.reachability.ReachabilityGraph`).  The
contract under test: what a graph builds lazily is bit-identical to an
eager :func:`repro.gtpn.packed._evaluate` of the same skeleton, for
built and re-timed graphs alike; the non-local fixed point never
builds what it does not read; and the residual gate's scatter over
the plan agrees with ``pi @ P`` and still refuses a wrong plan.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.gtpn import Net, activity_pair, markov
from repro.gtpn.packed import (_evaluate, compile_packed, packed_build,
                               packed_retime)
from repro.gtpn.sweep import BoundPair, SweepSolver
from repro.models import (Architecture, build_local_net,
                          iter_nonlocal_curve)
from repro.models.nonlocal_client import build_nonlocal_client_net
from repro.models.nonlocal_server import build_nonlocal_server_net
from repro.perf import configure_cache
from tests.models.replicated import build_replicated_local_net


@pytest.fixture(autouse=True)
def _cold_store():
    configure_cache()


def _booting_replicas(mean):
    """Two interchangeable replicas, each behind a one-shot boot: the
    boot states are transient."""
    net = Net("booting-replicas")
    for i in range(2):
        start = net.place(f"Start{i}", tokens=1)
        ready = net.place(f"Ready{i}")
        done = net.place(f"Done{i}")
        net.transition(f"boot{i}", delay=1, inputs=[start],
                       outputs=[ready])
        activity_pair(net, f"serve{i}", mean, inputs=[ready],
                      outputs=[done], resource="lambda")
        net.transition(f"recycle{i}", delay=1, inputs=[done],
                       outputs=[ready])
    return net


def _eager(skeleton, net):
    """``(matrix, starts_matrix, init_vec)`` of *net* on *skeleton*,
    evaluated eagerly."""
    n_states = skeleton.state_count
    freqs = np.array([float(t.frequency) for t in net.transitions])
    data, starts, init = _evaluate(skeleton.ev, freqs, n_states,
                                   skeleton.n_transitions,
                                   len(skeleton.indices))
    matrix = sp.csr_matrix((data, skeleton.indices, skeleton.indptr),
                           shape=(n_states, n_states))
    return matrix, starts, init


def _assert_lazy_equals_eager(graph, skeleton, net):
    assert not {"matrix", "starts_matrix", "init_vec"} & set(vars(graph))
    matrix, starts, init = _eager(skeleton, net)
    assert np.array_equal(graph.data, matrix.data)
    assert np.array_equal(graph.matrix.data, matrix.data)
    assert np.array_equal(graph.matrix.indices, matrix.indices)
    assert np.array_equal(graph.matrix.indptr, matrix.indptr)
    assert graph.matrix.shape == matrix.shape
    assert np.array_equal(graph.starts_matrix, starts)
    assert np.array_equal(graph.init_vec, init)


_NETS = [
    ("booting-replicas", _booting_replicas),
    ("replicated-II-n2",
     lambda mean: build_replicated_local_net(Architecture.II, 2,
                                             compute_time=mean * 100)),
    ("local-II-n3",
     lambda mean: build_local_net(Architecture.II, 3,
                                  compute_time=mean * 100)),
    ("client-II-n2",
     lambda mean: build_nonlocal_client_net(Architecture.II, 2,
                                            mean * 1000)),
    ("server-III-n2",
     lambda mean: build_nonlocal_server_net(Architecture.III, 2,
                                            mean * 1000)),
]


#: ids end in "-none": every graph is built with no state-space
#: reduction
@pytest.mark.parametrize("name, build", _NETS,
                         ids=[f"{n}-none" for n, _ in _NETS])
def test_lazy_graph_equals_eager_evaluation(name, build):
    net = build(3.0)
    graph, skeleton = packed_build(net, max_states=200_000)
    _assert_lazy_equals_eager(graph, skeleton, net)
    later = build(7.0)
    (retimed,) = packed_retime(skeleton, later, max_states=200_000)
    assert not np.array_equal(retimed.data, graph.data)
    _assert_lazy_equals_eager(retimed, skeleton, later)


def test_fixed_point_reads_only_what_it_needs(monkeypatch):
    """No side-solve of the fixed point builds its graph's CSR matrix,
    expected starts or initial distribution: the solve reads
    ``P.data`` through the plan, the measures read in-flight counts
    and token counts."""
    results = []
    # the first round of each side analyzes its net, every later one
    # re-solves it for all points through the bound pairs
    def analyzed(self, net, _original=SweepSolver.analyze):
        results.append(_original(self, net))
        return results[-1]

    def resolved(self, means, _original=BoundPair.solve):
        results.extend(_original(self, means))
        return results[-len(means):]
    monkeypatch.setattr(SweepSolver, "analyze", analyzed)
    monkeypatch.setattr(BoundPair, "solve", resolved)
    solutions = [solution for _index, solution in iter_nonlocal_curve(
        Architecture.II, 2, (0.0, 3000.0))]
    assert len(results) == 2 * sum(s.iterations for s in solutions)
    for result in results:
        built = {"matrix", "starts_matrix", "init_vec"} \
            & set(vars(result.graph))
        assert not built


# ----------------------------------------------------------------------
# the residual gate
# ----------------------------------------------------------------------

_CHAINS = [
    *[(f"local-{a.name}-n{n}", lambda a=a, n=n: build_local_net(a, n))
      for a in (Architecture.I, Architecture.II) for n in (1, 3)],
    *[(f"client-{a.name}-n3",
       lambda a=a: build_nonlocal_client_net(a, 3, 3000.0))
      for a in Architecture],
    *[(f"server-{a.name}-n3",
       lambda a=a: build_nonlocal_server_net(a, 3, 3000.0, 500.0))
      for a in Architecture],
]


@pytest.mark.parametrize("name, build", _CHAINS,
                         ids=[n for n, _ in _CHAINS])
def test_scatter_residual_matches_the_matrix_product(name, build):
    net = build()
    graph, skeleton = packed_build(net, compile_packed(net),
                                   max_states=200_000)
    with obs.recording() as recorder:
        (pi,) = markov._solve_linear([graph.data],
                                     skeleton.solve_plan())
    assert pi is not None
    expected = np.abs(pi @ graph.matrix - pi).max()
    assert abs(recorder.gauges["markov.residual"] - expected) <= 1e-15


def test_wrong_classes_on_a_chapter_6_chain_fall_back():
    """Merging two advance classes of the arch II client chain lifts a
    vector that is not P's fixed point: the gate refuses it and the
    counted power fallback answers."""
    net = build_nonlocal_client_net(Architecture.II, 2, 3000.0)
    graph, skeleton = packed_build(net, compile_packed(net),
                                   max_states=200_000)
    (right,) = markov._solve_linear([graph.data], skeleton.solve_plan())
    classes = graph.advance_class.copy()
    first, second = (np.flatnonzero(classes == c)[0] for c in (0, 1))
    assert not np.array_equal(graph.matrix[first].toarray(),
                              graph.matrix[second].toarray())
    classes[classes == 1] = 0
    wrong = markov.build_solve_plan(graph.indptr, graph.indices, classes)
    assert markov._solve_linear([graph.data], wrong) == [None]
    with obs.recording() as recorder:
        (pi,) = markov.stationary_distribution(graph, closed_classes=1,
                                            plan=wrong)
    assert recorder.counters.get("markov.solve_fallback") == 1.0
    assert "markov.method.lu" not in recorder.counters
    assert np.abs(pi - right).max() <= 1e-8
