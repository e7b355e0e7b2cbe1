"""Invariants of the exhaustive tick over the model nets.

Every reachable state's successor branches, as the oracle tick engine
enumerates them, form a probability distribution.
"""

import pytest

from repro.gtpn import build_reachability_graph
from repro.models import (Architecture, build_local_net,
                          build_nonlocal_client_net,
                          build_nonlocal_server_net)
from tests.gtpn.conftest import ExhaustiveResolver, TickEngine


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
