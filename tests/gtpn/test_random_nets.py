"""Property tests on randomly generated GTPNs.

Generates small random conservative nets (every transition consumes
and produces the same number of tokens) and checks engine-level
invariants: probability conservation, token conservation, and
analyzer/simulator agreement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.gtpn import (Net, analyze, build_reachability_graph, markov,
                        simulate)
from tests.gtpn.conftest import (ExhaustiveResolver, TickEngine,
                                 conservative_nets)


@settings(max_examples=25, deadline=None)
@given(conservative_nets())
def test_property_branch_probabilities_sum_to_one(net):
    engine = TickEngine(net)
    resolver = ExhaustiveResolver()
    branches = engine.initial_branches(resolver)
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for branch in branches[:3]:
        successors = engine.tick(branch.state, resolver)
        assert sum(b.probability for b in successors) == \
            pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(conservative_nets())
def test_property_token_conservation(net):
    """1-in/1-out transitions conserve total tokens (marking +
    in-flight)."""
    total0 = sum(net.initial_marking)
    engine = TickEngine(net)
    resolver = ExhaustiveResolver()
    frontier = [b.state for b in engine.initial_branches(resolver)]
    seen = set()
    for _ in range(30):
        if not frontier:
            break
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        total = sum(state.marking) + len(state.inflight)
        assert total == total0
        frontier.extend(b.state for b in engine.tick(state, resolver))


@settings(max_examples=5, deadline=None)
@given(conservative_nets(), st.integers(0, 2**16))
def test_property_analyzer_simulator_agree(net, seed):
    """For every resource-free random net, mean tokens per place agree
    between exact analysis and a long simulation."""
    try:
        exact = analyze(net, max_states=5_000)
    except Exception:
        return          # state-space blowup: out of scope here
    sampled = simulate(net, ticks=25_000, warmup=2_000, seed=seed)
    for place in net.places:
        a = exact.mean_tokens(place.name)
        s = sampled.mean_tokens(place.name)
        assert s == pytest.approx(a, abs=max(0.1, 0.15 * max(a, 1.0)))


@settings(max_examples=15, deadline=None)
@given(conservative_nets())
def test_property_stationary_distribution_normalized(net):
    try:
        result = analyze(net, max_states=5_000)
    except AnalysisError:
        return          # reducible chain: no unique stationary solution
    assert result.pi.sum() == pytest.approx(1.0)
    assert (result.pi >= -1e-12).all()


@settings(max_examples=50, deadline=None)
@given(conservative_nets())
def test_property_deflated_solve_matches_augmented_oracle(
        augmented_oracle, net):
    """The deflated solve agrees with the retired augmented system
    wherever it accepts a vector; it rejects one only when the pinned
    last state is transient (its block is then singular), leaving the
    chain to the counted power-iteration fallback."""
    graph = build_reachability_graph(net, max_states=5_000)
    if markov._closed_class_count(graph.matrix) > 1:
        return          # reducible chain: no unique stationary solution
    expected = augmented_oracle(graph.matrix)
    (pi,) = markov._solve_linear([graph.data], markov.build_solve_plan(
        graph.indptr, graph.indices, np.arange(graph.state_count)))
    if pi is None:
        assert expected[-1] == 0.0
    else:
        assert np.abs(pi - expected).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(conservative_nets())
def test_property_round_major_fold_matches_the_strided_fold(
        fold_identical, net):
    fold_identical(net)


def test_reducible_chain_is_refused():
    """Two disjoint closed classes: the analyzer must refuse rather
    than return one of the infinitely many stationary solutions (a
    simulated sample path settles into a single class, so any mixture
    would silently disagree — this was a latent property-test flake)."""
    net = Net("reducible")
    start = net.place("Start", tokens=1)
    left = net.place("Left")
    right = net.place("Right")
    net.transition("TL", delay=1, frequency=0.5,
                   inputs=[start], outputs=[left])
    net.transition("TR", delay=1, frequency=0.5,
                   inputs=[start], outputs=[right])
    net.transition("LoopL", delay=1, frequency=1.0,
                   inputs=[left], outputs=[left])
    net.transition("LoopR", delay=2, frequency=1.0,
                   inputs=[right], outputs=[right])
    with pytest.raises(AnalysisError, match="reducible"):
        analyze(net, max_states=5_000)
