"""Tests for the split non-local models and their iterative solution."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ModelError
from repro.gtpn import analyze
from repro.models import (Architecture, build_nonlocal_client_net,
                          build_nonlocal_server_net, initial_server_delay,
                          iter_nonlocal_curve, server_population,
                          solve_nonlocal)
from repro.models.params import (NONLOCAL_CLIENT_PARAMS,
                                 NONLOCAL_SERVER_PARAMS)
from repro.perf import AnalysisCache


class TestClientNet:
    def test_arch1_runs_interrupts_on_host(self):
        net = build_nonlocal_client_net(Architecture.I, 1, 3000.0)
        assert not net.has_place("MP")
        assert net.has_transition("cleanup")

    def test_arch2_runs_interrupts_on_mp(self):
        net = build_nonlocal_client_net(Architecture.II, 1, 3000.0)
        assert net.has_place("MP")
        assert net.has_transition("process_send")

    def test_client_net_solves_and_cycles(self):
        net = build_nonlocal_client_net(Architecture.II, 1, 3000.0)
        result = analyze(net)
        assert result.throughput("lambda") > 0

    def test_longer_server_delay_lowers_throughput(self):
        fast = analyze(build_nonlocal_client_net(
            Architecture.II, 1, 2000.0)).throughput("lambda")
        slow = analyze(build_nonlocal_client_net(
            Architecture.II, 1, 8000.0)).throughput("lambda")
        assert slow < fast

    def test_rejects_bad_arguments(self):
        with pytest.raises(ModelError):
            build_nonlocal_client_net(Architecture.I, 0, 3000.0)
        with pytest.raises(ModelError):
            build_nonlocal_client_net(Architecture.I, 1, 0.5)


class TestServerNet:
    def test_population_and_arrivals_positive(self):
        net = build_nonlocal_server_net(Architecture.II, 2, 3000.0, 500.0)
        result = analyze(net)
        assert result.resource_usage("lambda_in") > 0
        assert server_population(result) > 0

    def test_littles_law_population_below_conversations(self):
        net = build_nonlocal_server_net(Architecture.II, 3, 3000.0)
        result = analyze(net)
        assert 0 < server_population(result) <= 3.0 + 1e-9

    def test_flow_balance_in_equals_out(self):
        net = build_nonlocal_server_net(Architecture.II, 2, 3000.0)
        result = analyze(net)
        assert result.resource_usage("lambda_in") == pytest.approx(
            result.resource_usage("lambda_out"), rel=1e-6)

    def test_compute_time_grows_population(self):
        quick = analyze(build_nonlocal_server_net(
            Architecture.II, 2, 4000.0, 0.0))
        busy = analyze(build_nonlocal_server_net(
            Architecture.II, 2, 4000.0, 4000.0))
        assert server_population(busy) > server_population(quick)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ModelError):
            build_nonlocal_server_net(Architecture.I, 1, 3000.0, -1.0)


class TestIterativeSolution:
    def test_initial_delay_includes_compute(self):
        base = initial_server_delay(Architecture.II, 0.0)
        assert initial_server_delay(Architecture.II, 1000.0) == \
            pytest.approx(base + 1000.0)

    def test_converges_for_all_architectures(self):
        for arch in Architecture:
            solution = solve_nonlocal(arch, 1, 0.0)
            assert solution.throughput > 0
            assert solution.iterations <= 60

    def test_single_conversation_communication_times_match_thesis(self):
        """C from Table 6.25 (via offered loads): I ~6.5ms, II ~6.9ms,
        III ~5.1ms, IV ~5.0ms; reproduce within 2%."""
        expected = {Architecture.I: 6555.0, Architecture.II: 6930.0,
                    Architecture.III: 5130.0, Architecture.IV: 5022.0}
        for arch, target in expected.items():
            c = 1 / solve_nonlocal(arch, 1, 0.0).throughput
            assert c == pytest.approx(target, rel=0.02), arch

    def test_throughput_grows_with_conversations(self):
        t1 = solve_nonlocal(Architecture.II, 1, 2850.0).throughput
        t2 = solve_nonlocal(Architecture.II, 2, 2850.0).throughput
        assert t2 > t1

    def test_nonlocal_saturates_slower_than_local(self):
        """Section 6.9.1: the processing load spreads across two
        nodes, so adding conversations helps more than locally."""
        from repro.gtpn import analyze as _analyze
        from repro.models import build_local_net
        local_gain = (_analyze(build_local_net(
            Architecture.I, 2)).throughput()
            / _analyze(build_local_net(Architecture.I, 1)).throughput())
        nonlocal_gain = (solve_nonlocal(Architecture.I, 2, 0.0).throughput
                         / solve_nonlocal(Architecture.I, 1, 0.0)
                         .throughput)
        assert nonlocal_gain > local_gain

    def test_history_recorded(self):
        solution = solve_nonlocal(Architecture.II, 2, 2850.0)
        assert len(solution.history) == solution.iterations
        assert solution.round_trip_time == pytest.approx(
            2 / solution.throughput)


class TestMonteCarloIdentity:
    """Seeded Monte Carlo streams of the gated nets, pinned exactly.

    The interrupt gates are evaluated by the tick engine during every
    sampled settle round; these figures were recorded before the gates
    became declarative net structure, so any change to which members a
    gate admits, or to the order of the weighted choices, shifts the
    random stream and fails here (and would move the ``repro
    validate`` Monte Carlo figures).
    """

    def test_client_stream(self):
        from repro.gtpn import simulate, simulate_with_confidence
        ci = simulate_with_confidence(
            build_nonlocal_client_net(Architecture.II, 2, 3000.0),
            resource="lambda", batches=3, batch_ticks=20_000,
            warmup=2_000, seed=7)
        assert ci.batch_means == [0.00025, 0.0003, 0.00025]
        assert ci.mean == 0.0002666666666666666
        assert ci.half_width == 7.171666666666663e-05
        run = simulate(build_nonlocal_client_net(Architecture.II, 2,
                                                 3000.0),
                       ticks=20_000, seed=7)
        assert {name: run._starts.get(run.net.transition_index(name), 0)
                for name in ("send.loop", "process_send.loop",
                             "dma_out.loop", "server_delay.loop",
                             "dma_in.loop", "cleanup.loop", "dispatch",
                             "send")} == {
            "send.loop": 4062, "process_send.loop": 11941,
            "dma_out.loop": 975, "server_delay.loop": 8176,
            "dma_in.loop": 1587, "cleanup.loop": 2976, "dispatch": 5,
            "send": 6}

    def test_server_stream(self):
        from repro.gtpn import simulate, simulate_with_confidence
        ci = simulate_with_confidence(
            build_nonlocal_server_net(Architecture.II, 2, 3000.0),
            resource="lambda_in", batches=3, batch_ticks=20_000,
            warmup=2_000, seed=7)
        assert ci.batch_means == [0.00025, 0.0003, 0.0002]
        assert ci.mean == 0.00024999999999999995
        assert ci.half_width == 0.00012421691041614795
        run = simulate(build_nonlocal_server_net(Architecture.II, 2,
                                                 3000.0),
                       ticks=20_000, seed=7)
        assert {name: run._starts.get(run.net.transition_index(name), 0)
                for name in ("receive.loop", "process_receive.loop",
                             "client_wait.loop", "match.loop",
                             "serve.loop", "process_reply.loop",
                             "process_reply")} == {
            "receive.loop": 2269, "process_receive.loop": 2325,
            "client_wait.loop": 12784, "match.loop": 6349,
            "serve.loop": 4980, "process_reply.loop": 2852,
            "process_reply": 4}


def test_fixed_point_span_carries_convergence_attributes():
    from repro import obs
    with obs.recording() as recorder:
        solution = solve_nonlocal(Architecture.II, 2, 0.0)
    (span,) = [s for s in recorder.spans
               if s.name == "models.fixed_point"]
    assert span.attrs["architecture"] == "II"
    assert span.attrs["conversations"] == 2
    assert span.attrs["points"] == 1
    assert span.attrs["rounds"] == solution.iterations
    assert span.attrs["iterations"] == [solution.iterations]
    last = solution.history[-1]
    (sd_step,) = span.attrs["sd_step"]
    assert sd_step == pytest.approx(
        abs(last.new_server_delay - last.server_delay)
        / last.server_delay)
    assert sd_step <= 1e-3
    # both sides' solves, every iteration, nest inside the fixed point
    inner = [s for s in recorder.spans if s.name == "gtpn.solve"]
    assert len(inner) == 2 * solution.iterations
    assert {s.parent_id for s in inner} == {span.span_id}


# ----------------------------------------------------------------------
# differential test: the re-timing fixed point against net rebuilding
# ----------------------------------------------------------------------

def _rebuilding_fixed_point(architecture, conversations, compute_time=0.0,
                            *, hosts=1, client_params=None,
                            server_params=None, tolerance=1e-3,
                            max_iterations=60, damping=0.5):
    """The section 6.6.3 iteration, rebuilding both nets every round.

    The oracle for ``solve_nonlocal``: each iteration builds the client
    and server nets from the model builders and solves each from
    scratch with :func:`repro.gtpn.analyze` in a private skeleton
    store.  Returns ``(throughput, server_delay, client_delay,
    iterations, history)`` with history rows as tuples, and the last
    client and server results.
    """
    if client_params is None:
        client_params = NONLOCAL_CLIENT_PARAMS[architecture]
    if server_params is None:
        server_params = NONLOCAL_SERVER_PARAMS[architecture]
    s_c = server_params.receive_path
    dma_constant = server_params.dma_in + server_params.dma_out
    server_delay = initial_server_delay(architecture, compute_time)
    history = []
    for iteration in range(1, max_iterations + 1):
        client = analyze(build_nonlocal_client_net(
            architecture, conversations, max(server_delay, 1.0),
            hosts=hosts, params=client_params), cache=AnalysisCache())
        throughput = client.throughput("lambda")
        cycle = conversations / throughput
        client_delay = max(cycle - server_delay - s_c, 1.0)
        server = analyze(build_nonlocal_server_net(
            architecture, conversations, client_delay, compute_time,
            hosts=hosts, params=server_params), cache=AnalysisCache())
        arrival_rate = server.resource_usage("lambda_in")
        population = server_population(server)
        new_server_delay = population / arrival_rate + dma_constant
        history.append((server_delay, throughput, cycle, client_delay,
                        arrival_rate, population, new_server_delay))
        if abs(new_server_delay - server_delay) \
                <= tolerance * max(server_delay, 1.0):
            return ((throughput, new_server_delay, client_delay, iteration,
                     history), (client, server))
        server_delay = (damping * new_server_delay
                        + (1.0 - damping) * server_delay)
    raise AssertionError("oracle did not converge")


def _assert_matches_rebuilding(architecture, conversations, compute_time,
                               **kwargs):
    _assert_solution_matches(
        solve_nonlocal(architecture, conversations, compute_time, **kwargs),
        **kwargs)


def _assert_solution_matches(solution, **kwargs):
    """*solution* is its point's rebuilding fixed point, bit for bit."""
    expected, rebuilt = _rebuilding_fixed_point(
        solution.architecture, solution.conversations,
        solution.compute_time, **kwargs)
    history = [dataclasses.astuple(step) for step in solution.history]
    assert (solution.throughput, solution.server_delay,
            solution.client_delay, solution.iterations, history) \
        == expected
    for mine, theirs in zip((solution.client_result,
                             solution.server_result), rebuilt):
        _assert_same_chain(mine, theirs)


def _assert_curve_matches(architecture, conversations, compute_times,
                          **kwargs):
    solutions = dict(iter_nonlocal_curve(architecture, conversations,
                                         compute_times, **kwargs))
    assert sorted(solutions) == list(range(len(compute_times)))
    for index, solution in solutions.items():
        assert solution.compute_time == compute_times[index]
        _assert_solution_matches(solution, **kwargs)


def _assert_same_chain(retimed, rebuilt):
    """The re-timed result's chain, stationary vector and lazily built
    arrays are the rebuilt result's, bit for bit."""
    assert retimed.pi.tobytes() == rebuilt.pi.tobytes()
    a, b = retimed.graph, rebuilt.graph
    assert a.data.tobytes() == b.data.tobytes()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.matrix, name),
                              getattr(b.matrix, name))
    assert a.starts_matrix.tobytes() == b.starts_matrix.tobytes()
    assert a.init_vec.tobytes() == b.init_vec.tobytes()


@pytest.mark.parametrize("architecture", list(Architecture),
                         ids=lambda a: a.name)
@pytest.mark.parametrize("conversations", [1, 2, 3, 4])
def test_fixed_point_bit_identical_to_net_rebuilding(architecture,
                                                     conversations):
    """Re-timing each side from S_d / C_d (and the server's serve pair
    from X) alone gives the same floats, iteration by iteration, as
    rebuilding and re-analyzing both nets: for a lone point, and for
    each point of a curve iterated in lockstep."""
    for compute_time in (0.0, 3000.0, 20000.0):
        _assert_matches_rebuilding(architecture, conversations,
                                   compute_time)
    _assert_curve_matches(architecture, conversations,
                          (0.0, 3000.0, 20000.0))


def test_fixed_point_bit_identical_with_two_hosts():
    _assert_matches_rebuilding(Architecture.II, 2, 3000.0, hosts=2)
    _assert_curve_matches(Architecture.II, 2, (0.0, 3000.0, 20000.0),
                          hosts=2)


def test_fixed_point_bit_identical_with_syncmodel_params():
    from repro.models.syncmodel import (nonlocal_client_params,
                                        nonlocal_server_params)
    params = dict(client_params=nonlocal_client_params("cas"),
                  server_params=nonlocal_server_params("cas"))
    _assert_matches_rebuilding(Architecture.II, 3, 3000.0, **params)
    _assert_curve_matches(Architecture.II, 3, (0.0, 3000.0, 20000.0),
                          **params)


def test_fixed_point_builds_each_net_once(monkeypatch):
    """Later iterations re-time the first iteration's nets: two net
    builds per fixed point, and every returned net carries the
    surrogate delay it was solved at."""
    from repro.gtpn.approximations import pair_frequencies
    from repro.models import iterate
    calls = []
    for name in ("build_nonlocal_client_net", "build_nonlocal_server_net"):
        original = getattr(iterate, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(iterate, name, counted)
    solution = solve_nonlocal(Architecture.II, 2, 3000.0)
    assert solution.iterations > 1
    assert len(calls) == 2
    last = solution.history[-1]
    exit_f, _loop_f = pair_frequencies(last.server_delay)
    assert solution.client_result.net.get_transition(
        "server_delay").frequency == exit_f
    exit_f, _loop_f = pair_frequencies(last.client_delay)
    assert solution.server_result.net.get_transition(
        "client_wait").frequency == exit_f


def test_curve_builds_each_net_once(monkeypatch):
    """A curve's points share both nets: each side's net is built once
    per curve, and every kept server net carries its own point's serve
    mean as well as its surrogate delay."""
    from repro.gtpn.approximations import pair_frequencies
    from repro.models import iterate
    calls = []
    for name in ("build_nonlocal_client_net", "build_nonlocal_server_net"):
        original = getattr(iterate, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(iterate, name, counted)
    compute_times = (0.0, 3000.0, 20000.0)
    solutions = dict(iter_nonlocal_curve(Architecture.II, 2, compute_times))
    assert len(calls) == 2
    serve_base = NONLOCAL_SERVER_PARAMS[Architecture.II].serve_base
    for index, solution in solutions.items():
        net = solution.server_result.net
        exit_f, _loop_f = pair_frequencies(
            serve_base + compute_times[index])
        assert net.get_transition("serve").frequency == exit_f
        exit_f, _loop_f = pair_frequencies(solution.history[-1].client_delay)
        assert net.get_transition("client_wait").frequency == exit_f


def test_curve_convergence_error_names_the_point():
    from repro.errors import ConvergenceError
    with pytest.raises(ConvergenceError, match="X=3000.0"):
        dict(iter_nonlocal_curve(Architecture.II, 2, (3000.0, 20000.0),
                                 max_iterations=2))


def test_empty_curve_yields_nothing():
    assert list(iter_nonlocal_curve(Architecture.II, 2, ())) == []
