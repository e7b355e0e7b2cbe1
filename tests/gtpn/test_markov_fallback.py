"""Regression tests for the stationary solve and its fallback.

The direct solve's ``except`` clause once caught *everything*, hiding
programming errors behind a silent (and slow) power-iteration
fallback.  It now catches only numerical failures — and counts them —
while anything else propagates.  The single deflated solve reports
which branch produced each accepted vector, and agrees with the
retired augmented-system solve (the ``augmented_oracle`` fixture).
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.gtpn import (Net, activity_pair, build_reachability_graph,
                        stationary_distribution)
from repro.gtpn import markov
from repro.models import Architecture, build_local_net
from repro.obs.clock import perf_now


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
    reference = stationary_distribution(graph, method="power")
    with obs.recording() as recorder:
        pi = stationary_distribution(graph, method="auto")
    assert pi == pytest.approx(reference, abs=1e-8)
    assert recorder.counters.get("markov.solve_fallback") == 1.0


def test_linear_method_re_raises_numerical_failure(monkeypatch):
    def numerically_doomed(matrix, plan=None):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(markov, "_solve_linear", numerically_doomed)
    with pytest.raises(np.linalg.LinAlgError):
        stationary_distribution(cycle_graph(), method="linear")


def test_non_numerical_error_propagates(monkeypatch):
    """A defect in the solver must surface, not fall back silently."""
    def buggy(matrix, plan=None):
        raise TypeError("a programming error, not a numerical one")

    monkeypatch.setattr(markov, "_solve_linear", buggy)
    with obs.recording() as recorder:
        with pytest.raises(TypeError):
            stationary_distribution(cycle_graph(), method="auto")
    assert "markov.solve_fallback" not in recorder.counters


def ring_graph(n):
    """A lazy biased walk on an n-cycle, duck-typed as a graph.

    The chain is doubly stochastic, so its stationary distribution is
    uniform; it is nearly banded, so even n > ``_GMRES_THRESHOLD``
    solves in milliseconds.
    """
    i = np.arange(n)
    matrix = sp.csr_matrix(
        (np.repeat([0.5, 0.3, 0.2], n),
         (np.tile(i, 3), np.concatenate([i, (i + 1) % n, (i - 1) % n]))),
        shape=(n, n))
    init_vec = np.zeros(n)
    init_vec[0] = 1.0
    return SimpleNamespace(matrix=matrix, init_vec=init_vec)


def test_accepted_solve_counts_its_method_and_residual():
    with obs.recording() as recorder:
        stationary_distribution(cycle_graph())
    assert recorder.counters.get("markov.method.lu") == 1.0
    assert "markov.method.ilu_gmres" not in recorder.counters
    assert "markov.gmres_unconverged" not in recorder.counters
    assert "markov.solve_fallback" not in recorder.counters
    assert 0.0 <= recorder.gauges["markov.residual"] <= 1e-8


def test_single_state_chain_has_an_empty_deflated_block():
    net = Net("single")
    ready = net.place("Ready", tokens=1)
    net.transition("loop", delay=1, inputs=[ready], outputs=[ready])
    graph = build_reachability_graph(net)
    assert graph.state_count == 1
    with obs.recording() as recorder:
        pi = stationary_distribution(graph, method="linear")
    assert pi.tolist() == [1.0]
    assert recorder.counters.get("markov.method.lu") == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_deflated_solve_matches_augmented_oracle(n, augmented_oracle):
    graph = build_reachability_graph(build_local_net(Architecture.II, n))
    expected = augmented_oracle(graph.matrix)
    with obs.recording() as recorder:
        pi = stationary_distribution(graph, method="linear")
    assert recorder.counters.get("markov.method.lu") == 1.0
    assert np.abs(pi - expected).max() <= 1e-12


def test_large_chain_takes_bounded_ilu_gmres(augmented_oracle):
    graph = ring_graph(markov._GMRES_THRESHOLD + 1)
    with obs.recording() as recorder:
        pi = stationary_distribution(graph)
    assert recorder.counters.get("markov.method.ilu_gmres") == 1.0
    assert "markov.method.lu" not in recorder.counters
    assert "markov.gmres_unconverged" not in recorder.counters
    assert np.abs(pi - augmented_oracle(graph.matrix)).max() <= 1e-12


def test_unconverged_gmres_falls_through_to_lu(monkeypatch,
                                               augmented_oracle):
    """A stalled GMRES costs at most its bounded budget, then the LU
    answers; power iteration never runs."""
    budgets = []

    def stalled(a, b, **kwargs):
        budgets.append(kwargs["restart"] * kwargs["maxiter"])
        return np.zeros_like(b), 100

    monkeypatch.setattr(markov.spla, "gmres", stalled)
    graph = ring_graph(markov._GMRES_THRESHOLD + 1)
    start = perf_now()
    with obs.recording() as recorder:
        pi = stationary_distribution(graph)
    elapsed = perf_now() - start
    assert budgets and max(budgets) <= 100
    assert recorder.counters.get("markov.gmres_unconverged") == 1.0
    assert recorder.counters.get("markov.method.lu") == 1.0
    assert "markov.method.ilu_gmres" not in recorder.counters
    assert "markov.solve_fallback" not in recorder.counters
    assert np.abs(pi - augmented_oracle(graph.matrix)).max() <= 1e-12
    assert elapsed < 10.0
