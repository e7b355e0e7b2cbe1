"""Tests for the exact analyzer (reachability + Markov solution)."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.gtpn import (Net, activity_pair, analyze,
                        build_reachability_graph, markov, simulate,
                        stationary_distribution)


def cycle_net(mean=10.0, tokens=1):
    """Closed cycle: Ready --serve(mean)--> Done --recycle(1)--> Ready."""
    net = Net("cycle")
    ready = net.place("Ready", tokens=tokens)
    done = net.place("Done")
    activity_pair(net, "serve", mean, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def test_cycle_throughput_matches_renewal_theory():
    # mean cycle time = mean service (10) + recycle (1) = 11 ticks
    result = analyze(cycle_net(mean=10.0))
    assert result.throughput() == pytest.approx(1 / 11, rel=1e-9)


def test_two_independent_tokens_double_throughput():
    result = analyze(cycle_net(mean=10.0, tokens=2))
    assert result.throughput() == pytest.approx(2 / 11, rel=1e-9)


def test_firing_rate_equals_usage_for_delay_one():
    result = analyze(cycle_net(mean=10.0))
    assert result.firing_rate("serve") == pytest.approx(
        result.resource_usage("lambda"), rel=1e-9)


def test_constant_delay_firing_rate_matches_geometric_mean():
    # Fig 6.7: constant delay and its geometric approximation give the
    # same throughput measured at the delay-1 recycle transition.
    geo = analyze(cycle_net(mean=10.0))
    net = Net("cycle-const")
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    net.transition("serve", delay=10, inputs=[ready], outputs=[done])
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready],
                   resource="lambda")
    const = analyze(net)
    assert const.firing_rate("serve") == pytest.approx(1 / 11, rel=1e-9)
    assert const.throughput() == pytest.approx(
        geo.firing_rate("recycle"), rel=1e-9)


def test_mean_tokens_accounts_for_inflight_removal():
    # With one token cycling, deposited tokens are re-consumed within
    # the same tick, so both places read zero in post-decision states:
    # the token is always in flight inside one of the transitions.
    result = analyze(cycle_net(mean=10.0))
    assert result.mean_tokens("Ready") == pytest.approx(0.0, abs=1e-9)
    assert result.mean_tokens("Done") == pytest.approx(0.0, abs=1e-9)
    serve_busy = result.resource_usage("lambda")     # rate of exits
    recycle_busy = result.firing_rate("recycle")
    assert serve_busy == pytest.approx(recycle_busy, rel=1e-9)


def test_state_count_small_for_cycle():
    result = analyze(cycle_net())
    assert result.state_count == 3


def test_utilization_of_constant_delay_transition():
    # delay-10 transition busy 10 of every 11 ticks
    net = Net()
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    net.transition("serve", delay=10, inputs=[ready], outputs=[done],
                   resource="busy")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    result = analyze(net)
    assert result.resource_usage("busy") == pytest.approx(10 / 11, rel=1e-9)


def test_immediate_transition_rate_counted_in_resource():
    # An immediate transition's resource usage is its firing rate.
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    net.transition("imm", delay=0, inputs=[a], outputs=[b],
                   resource="events")
    net.transition("back", delay=1, inputs=[b], outputs=[a])
    result = analyze(net)
    # each 2-tick cycle fires 'imm' once... the immediate fires in the
    # same tick the token returns, so cycle time is 1 tick of 'back'
    # plus 0 for 'imm': rate = 1 per tick? No: back takes 1 tick, imm
    # fires instantly -> one firing of each per tick.
    assert result.resource_usage("events") == pytest.approx(1.0, rel=1e-9)


def test_processor_sharing_halves_each_rate():
    # Two activities sharing one Host token: each progresses half the
    # time, so each cycle rate is half the dedicated rate.
    def shared_net():
        net = Net()
        host = net.place("Host", tokens=1)
        a = net.place("A", tokens=1)
        b = net.place("B", tokens=1)
        activity_pair(net, "workA", 4.0, inputs=[a], outputs=[a],
                      holds=[host], resource="rateA")
        activity_pair(net, "workB", 4.0, inputs=[b], outputs=[b],
                      holds=[host], resource="rateB")
        return analyze(net)

    result = shared_net()
    # dedicated rate would be 1/4; shared -> 1/8
    assert result.resource_usage("rateA") == pytest.approx(1 / 8, rel=1e-6)
    assert result.resource_usage("rateB") == pytest.approx(1 / 8, rel=1e-6)


def test_reachability_rows_are_stochastic():
    graph = build_reachability_graph(cycle_net())
    row_sums = np.asarray(graph.matrix.sum(axis=1)).ravel()
    assert row_sums == pytest.approx(np.ones(graph.state_count))


def test_transition_matrix_shape():
    graph = build_reachability_graph(cycle_net())
    matrix = graph.matrix
    assert matrix.shape == (graph.state_count, graph.state_count)


def test_max_states_guard():
    with pytest.raises(AnalysisError):
        build_reachability_graph(cycle_net(tokens=3), max_states=2)


def test_power_and_linear_methods_agree():
    graph = build_reachability_graph(cycle_net(mean=5.0, tokens=2))
    (pi_linear,) = stationary_distribution(graph)
    pi_power = markov._solve_power(graph.matrix, graph)
    assert pi_linear == pytest.approx(pi_power, abs=1e-8)


def test_analyzer_agrees_with_simulation():
    net = cycle_net(mean=7.0, tokens=2)
    exact = analyze(net).throughput()
    sim = simulate(net, ticks=300_000, warmup=5_000, seed=7).throughput()
    assert sim == pytest.approx(exact, rel=0.03)
