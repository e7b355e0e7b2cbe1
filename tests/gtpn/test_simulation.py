"""Tests for the Monte Carlo GTPN simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.gtpn import (Gate, Net, activity_pair, simulate,
                        simulate_with_confidence)
from repro.gtpn.simulation import _Sampler
from repro.models import (Architecture, build_local_net,
                          build_nonlocal_client_net,
                          build_nonlocal_server_net)
from tests.gtpn.conftest import (SamplingResolver, TickEngine,
                                 conservative_nets)


def small_net():
    net = Net()
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    activity_pair(net, "serve", 5.0, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def test_simulation_reproducible_with_seed():
    a = simulate(small_net(), ticks=20_000, seed=123).throughput()
    b = simulate(small_net(), ticks=20_000, seed=123).throughput()
    assert a == b


def test_different_seeds_differ():
    a = simulate(small_net(), ticks=5_000, seed=1).throughput()
    b = simulate(small_net(), ticks=5_000, seed=2).throughput()
    assert a != b


def test_nonpositive_ticks_rejected():
    with pytest.raises(AnalysisError):
        simulate(small_net(), ticks=0)


def test_negative_warmup_rejected():
    """A negative warmup used to silently shorten the measured horizon
    (range(warmup + ticks)) while the averages still divided by the
    full tick count, biasing every measurement low."""
    with pytest.raises(AnalysisError, match="warmup"):
        simulate(small_net(), ticks=1_000, warmup=-500)


def test_throughput_close_to_renewal_value():
    result = simulate(small_net(), ticks=200_000, warmup=2_000, seed=9)
    assert result.throughput() == pytest.approx(1 / 6, rel=0.03)


def test_firing_rate_measured():
    result = simulate(small_net(), ticks=100_000, warmup=1_000, seed=5)
    assert result.firing_rate("serve") == pytest.approx(1 / 6, rel=0.05)
    assert result.firing_rate("recycle") == pytest.approx(1 / 6, rel=0.05)


def test_mean_tokens_measured():
    result = simulate(small_net(), ticks=100_000, warmup=1_000, seed=5)
    # the cycling token is in flight (serve/recycle) almost always;
    # Done is emptied the same tick it is filled, Ready likewise.
    assert result.mean_tokens("Ready") == pytest.approx(0.0, abs=1e-9)


def test_warmup_excluded_from_measurement():
    # measuring only after warmup must not crash and still be sane
    result = simulate(small_net(), ticks=10_000, warmup=10_000, seed=3)
    assert 0.1 < result.throughput() < 0.25


def test_unbounded_immediate_loop_raises():
    """The sampler keeps the settle-round cap of the tick semantics."""
    net = Net()
    a = net.place("A", tokens=1)
    net.transition("T", delay=0, inputs=[a], outputs=[a])
    with pytest.raises(AnalysisError, match="quiescence"):
        simulate(net, ticks=10, seed=0)
    with pytest.raises(AnalysisError, match="quiescence"):
        simulate_with_confidence(net, resource="lambda", batches=2,
                                 batch_ticks=10, warmup=0, seed=0)


def assert_replays_oracle(net, seed, ticks=2_000):
    """Step the sampler and the retired ``TickEngine`` under its
    ``SamplingResolver`` from one seed: after the initial settle and
    after every tick both hold the same marking, the same in-flight
    multiset and the same per-transition starts."""
    sampler = _Sampler(net, seed)
    engine = TickEngine(net)
    resolver = SamplingResolver(random.Random(seed))
    (branch,) = engine.initial_branches(resolver)
    before = [0] * len(net.transitions)
    for _ in range(ticks + 1):
        assert tuple(sampler.marking) == branch.state.marking
        assert tuple(sorted(map(tuple, sampler.inflight))) \
            == branch.state.inflight
        assert tuple(after - prior for after, prior
                     in zip(sampler.starts, before)) == branch.starts
        before = list(sampler.starts)
        sampler.tick()
        (branch,) = engine.tick(branch.state, resolver)


def _model_nets():
    for arch in Architecture:
        for n in (1, 2, 3):
            yield build_local_net(arch, n, 500.0)
    yield build_nonlocal_client_net(Architecture.II, 2, 3000.0)
    yield build_nonlocal_server_net(Architecture.II, 2, 3000.0)


def _late_gate_net():
    """``late`` is enabled one settle round after ``slow`` starts, and
    its gate must see ``slow`` in flight (as in test_semantics)."""
    net = Net("late-gate")
    a = net.place("A", tokens=1)
    c = net.place("C", tokens=1)
    d = net.place("D")
    net.transition("slow", delay=2, inputs=[a], outputs=[a])
    net.transition("hop", delay=0, inputs=[c], outputs=[d])
    net.transition("late", delay=1, inputs=[d], outputs=[c],
                   gate=Gate(not_firing=["slow"]))
    return net


@pytest.mark.parametrize("net", [*_model_nets(), _late_gate_net()],
                         ids=lambda net: net.name)
def test_sampler_replays_oracle_on_model_nets(net):
    assert_replays_oracle(net, seed=7)


@settings(max_examples=25, deadline=None)
@given(conservative_nets(), st.integers(0, 2**16))
def test_sampler_replays_oracle_on_random_nets(net, seed):
    assert_replays_oracle(net, seed)
