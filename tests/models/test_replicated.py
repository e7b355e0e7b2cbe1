"""The pooled chapter-6 local net against its per-conversation form."""

import pytest

from repro.gtpn import analyze
from repro.models.local import build_local_net
from repro.models.params import Architecture
from tests.models.replicated import build_replicated_local_net


def test_replicated_net_matches_pooled_throughput():
    """The replicated form describes the same system as the pooled
    chapter-6 local model; with a single host their throughputs agree
    closely (the pooling is itself an exact counter abstraction of
    the same underlying chain)."""
    pooled = analyze(build_local_net(Architecture.I, 2))
    replicated = analyze(build_replicated_local_net(Architecture.I, 2))
    assert replicated.throughput() == pytest.approx(
        pooled.throughput(), rel=1e-12)
