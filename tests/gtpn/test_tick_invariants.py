"""Invariants of the tick engine guarding the memoized fast path.

The analyzer memoizes ``TickEngine.tick`` successor branches per state
(tick is deterministic under the exhaustive resolver), so these tests
pin down the properties the memo relies on: every state's branch
probabilities form a distribution, and repeated ticks of the same
state return identical branches.
"""

import pytest

from repro.gtpn import build_reachability_graph
from repro.gtpn.state import ExhaustiveResolver, TickEngine
from repro.models import (Architecture, build_local_net,
                          build_nonlocal_client_net,
                          build_nonlocal_server_net)


def _architecture_nets():
    for arch in Architecture:
        yield build_local_net(arch, 2, 500.0)
    yield build_nonlocal_client_net(Architecture.II, 2, 900.0)
    yield build_nonlocal_server_net(Architecture.II, 2, 1200.0, 0.0)


@pytest.mark.parametrize("net", _architecture_nets(),
                         ids=lambda net: net.name)
def test_branch_probabilities_sum_to_one_everywhere(net):
    graph = build_reachability_graph(net)
    engine = TickEngine(net)
    resolver = ExhaustiveResolver()
    for state in graph.packed_layout.unpack_all(graph.packed_table):
        branches = engine.tick(state, resolver)
        total = sum(branch.probability for branch in branches)
        assert total == pytest.approx(1.0, abs=1e-9)
        for branch in branches:
            assert branch.probability > 0


@pytest.mark.parametrize("net", [build_local_net(Architecture.II, 2,
                                                 500.0)],
                         ids=lambda net: net.name)
def test_memoized_tick_reproduces_first_expansion(net):
    engine = TickEngine(net)
    resolver = ExhaustiveResolver()
    [start] = [b.state for b in engine.initial_branches(resolver)][:1]
    first = engine.tick(start, resolver)
    again = engine.tick(start, resolver)
    assert len(first) == len(again)
    for a, b in zip(first, again):
        assert a.probability == b.probability
        assert a.state == b.state
        assert a.starts == b.starts
    # memoized lists are fresh containers: mutating one copy must not
    # leak into the next caller's view
    first.clear()
    assert len(engine.tick(start, resolver)) == len(again)
