"""Skeleton-store tests: warm solves must be indistinguishable from
cold ones, and the fingerprint must key on structure, not names."""

import numpy as np

from repro.gtpn import Net, analyze
from repro.models import Architecture, build_local_net
from repro.perf import AnalysisCache, fingerprint_net


def _cycle_net(name="cycle", delay=5, compute=0):
    net = Net(name)
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    net.transition("serve", delay=delay + compute, inputs=[ready],
                   outputs=[done], resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def test_warm_analyze_identical_to_cold():
    cache = AnalysisCache()
    cold = analyze(build_local_net(Architecture.I, 2, 500.0),
                   cache=cache)
    warm = analyze(build_local_net(Architecture.I, 2, 500.0),
                   cache=cache)
    assert cache.hits == 1 and cache.misses == 1
    assert warm.throughput() == cold.throughput()
    assert warm.state_count == cold.state_count
    assert np.array_equal(warm.pi, cold.pi)
    for t in cold.net.transitions:
        assert warm.firing_rate(t.name) == cold.firing_rate(t.name)
    for p in cold.net.places:
        assert warm.mean_tokens(p.name) == cold.mean_tokens(p.name)


def test_structurally_identical_nets_share_fingerprint():
    # net/place/transition names are cosmetic: they must not split keys
    a = _cycle_net(name="first")
    b = _cycle_net(name="second")
    b.name = "renamed-again"
    assert fingerprint_net(a) == fingerprint_net(b)

    # ... and a hit on the renamed net binds results to *its* names
    cache = AnalysisCache()
    ra = analyze(a, cache=cache)
    rb = analyze(b, cache=cache)
    assert cache.hits == 1
    assert rb.throughput() == ra.throughput()
    assert rb.net is b


def test_fingerprint_distinguishes_structure():
    base = fingerprint_net(_cycle_net())
    assert fingerprint_net(_cycle_net(delay=6)) != base
    extra = _cycle_net()
    extra.place("Spare", tokens=1)
    assert fingerprint_net(extra) != base


def test_fingerprint_distinguishes_initial_marking():
    net = _cycle_net()
    other = Net("other")
    ready = other.place("Ready", tokens=2)
    done = other.place("Done")
    other.transition("serve", delay=5, inputs=[ready], outputs=[done],
                     resource="lambda")
    other.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    assert fingerprint_net(net) != fingerprint_net(other)


def test_fingerprint_structure_covers_gates():
    """Two nets differing only in a gate — an inhibitor place or a
    not-firing transition — must never share a skeleton."""
    from repro.gtpn import Gate

    def gated_net(gate):
        net = Net("gated")
        ready = net.place("Ready", tokens=1)
        done = net.place("Done")
        net.place("Block")
        net.transition("go", delay=1, frequency=0.5, inputs=[ready],
                       outputs=[done], resource="lambda", gate=gate)
        net.transition("wait", delay=2, frequency=0.5, inputs=[ready],
                       outputs=[done])
        net.transition("back", delay=1, inputs=[done], outputs=[ready])
        return net

    plain = fingerprint_net(gated_net(None))
    inhibited = fingerprint_net(gated_net(Gate(inhibitors=["Block"])))
    by_place = fingerprint_net(gated_net(Gate(inhibitors=["Done"])))
    not_firing = fingerprint_net(gated_net(Gate(not_firing=["wait"])))
    by_transition = fingerprint_net(gated_net(Gate(not_firing=["back"])))
    structures = {fp.structure for fp in (plain, inhibited, by_place,
                                          not_firing, by_transition)}
    assert len(structures) == 5
    # the timing half is blind to gates: only structure tells them apart
    assert len({fp.timing for fp in (plain, inhibited, not_firing)}) == 1
    # ... and the analyzer keys on it: no cross-gate skeleton hit
    cache = AnalysisCache()
    analyze(gated_net(Gate(not_firing=["wait"])), cache=cache)
    analyze(gated_net(Gate(not_firing=["back"])), cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_lru_bound_evicts_oldest():
    # one structure per token count: three skeletons, two slots
    cache = AnalysisCache(max_entries=2)
    nets = []
    for tokens in (1, 2, 3):
        net = _cycle_net()
        net.place("Spare", tokens=tokens)
        nets.append(net)
        analyze(net, cache=cache)
    assert len(cache) == 2
    assert cache.get(fingerprint_net(nets[0]).structure) is None
    assert cache.get(fingerprint_net(nets[2]).structure) is not None
