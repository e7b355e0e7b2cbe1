"""Regression tests for the stationary solve and its fallback.

The direct solve's ``except`` clause once caught *everything*, hiding
programming errors behind a silent (and slow) power-iteration
fallback.  It now catches only numerical failures — and counts them —
while anything else propagates.  The single deflated solve counts each
accepted vector, and agrees with the retired augmented-system solve
(the ``augmented_oracle`` fixture).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.gtpn import (Net, activity_pair, build_reachability_graph,
                        stationary_distribution)
from repro.gtpn import markov
from repro.models import Architecture, build_local_net
from tests.gtpn.conftest import chain_graph


def cycle_graph():
    net = Net("cycle")
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    activity_pair(net, "serve", 10.0, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return build_reachability_graph(net)


def test_numerical_failure_falls_back_and_counts(monkeypatch):
    def numerically_doomed(matrix, plan=None):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(markov, "_solve_linear", numerically_doomed)
    graph = cycle_graph()
    reference = markov._solve_power(graph.matrix, graph)
    with obs.recording() as recorder:
        (pi,) = stationary_distribution(graph)
    assert pi == pytest.approx(reference, abs=1e-8)
    assert recorder.counters.get("markov.solve_fallback") == 1.0


def test_non_numerical_error_propagates(monkeypatch):
    """A defect in the solver must surface, not fall back silently."""
    def buggy(matrix, plan=None):
        raise TypeError("a programming error, not a numerical one")

    monkeypatch.setattr(markov, "_solve_linear", buggy)
    with obs.recording() as recorder:
        with pytest.raises(TypeError):
            stationary_distribution(cycle_graph())
    assert "markov.solve_fallback" not in recorder.counters


def ring_graph(n):
    """A lazy biased walk on an n-cycle, duck-typed as a graph.

    The chain is doubly stochastic, so its stationary distribution is
    uniform; it is nearly banded, so even n > 10^4 states solve
    directly in well under a second.
    """
    i = np.arange(n)
    matrix = sp.csr_matrix(
        (np.repeat([0.5, 0.3, 0.2], n),
         (np.tile(i, 3), np.concatenate([i, (i + 1) % n, (i - 1) % n]))),
        shape=(n, n))
    init_vec = np.zeros(n)
    init_vec[0] = 1.0
    return chain_graph(matrix, init_vec)


def test_accepted_solve_counts_its_method_and_residual():
    with obs.recording() as recorder:
        stationary_distribution(cycle_graph())
    assert recorder.counters.get("markov.method.lu") == 1.0
    assert "markov.solve_fallback" not in recorder.counters
    assert 0.0 <= recorder.gauges["markov.residual"] <= 1e-8


def test_single_state_chain_has_an_empty_deflated_block():
    net = Net("single")
    ready = net.place("Ready", tokens=1)
    net.transition("loop", delay=1, inputs=[ready], outputs=[ready])
    graph = build_reachability_graph(net)
    assert graph.state_count == 1
    with obs.recording() as recorder:
        (pi,) = stationary_distribution(graph)
    assert pi.tolist() == [1.0]
    assert recorder.counters.get("markov.method.lu") == 1.0


_ORACLE_CHAINS = {
    **{str(n): lambda n=n: build_reachability_graph(
        build_local_net(Architecture.II, n)) for n in (1, 2, 3, 4)},
    # larger than the quotient of any model chain (5,874 classes)
    "ring-10001": lambda: ring_graph(10_001),
}


@pytest.mark.parametrize("chain", _ORACLE_CHAINS)
def test_deflated_solve_matches_augmented_oracle(chain, augmented_oracle):
    graph = _ORACLE_CHAINS[chain]()
    expected = augmented_oracle(graph.matrix)
    with obs.recording() as recorder:
        (pi,) = stationary_distribution(graph)
    assert recorder.counters.get("markov.method.lu") == 1.0
    assert "markov.solve_fallback" not in recorder.counters
    assert np.abs(pi - expected).max() <= 1e-12
