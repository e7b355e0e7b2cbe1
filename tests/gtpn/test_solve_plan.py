"""Tests for the stationary solve plan (repro.gtpn.markov.SolvePlan).

The plan is the value-free half of the deflated solve: the block's
fill-reducing column order and the gathers that assemble it from
``P.data``.  The contract under test: it is a function of the sparsity
pattern alone, so a plan cached on a skeleton and a plan built from
another timing of the same structure give the same vector bit for
bit, on every execution path.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.errors import AnalysisError
from repro.gtpn import Net, activity_pair, analyze, build_reachability_graph
from repro.gtpn import markov
from repro.gtpn.packed import compile_packed, packed_build, packed_retime
from repro.gtpn.sweep import SweepSolver
from repro.models import Architecture, build_local_net
from repro.models.nonlocal_client import build_nonlocal_client_net
from repro.models.nonlocal_server import build_nonlocal_server_net
from repro.perf import AnalysisCache, configure_cache
from repro.perf.backends import last_map_info, map_sweep
from tests.gtpn.conftest import chain_graph


@pytest.fixture(autouse=True)
def _cold_store():
    """Every test starts from an empty process-wide skeleton store."""
    configure_cache()


def _fresh(net, **kwargs):
    """Per-point analysis in a private store: a from-scratch build with
    a throwaway plan, independent of the held plans it is compared
    against."""
    return analyze(net, cache=AnalysisCache(), **kwargs)


def _plan_arrays(plan):
    return (plan.n, plan.nnz, plan.order, plan.indptr, plan.indices,
            plan.gather, plan.diagonal, plan.rhs_index, plan.rhs_source)


def _assert_same_plan(a, b):
    for x, y in zip(_plan_arrays(a), _plan_arrays(b)):
        assert np.array_equal(x, y)


def _client(conversations, server_delay):
    return build_nonlocal_client_net(Architecture.II, conversations,
                                     server_delay)


def _server(conversations, client_delay):
    return build_nonlocal_server_net(Architecture.II, conversations,
                                     client_delay)


# ----------------------------------------------------------------------
# a pure function of the pattern
# ----------------------------------------------------------------------

def test_plans_of_one_pattern_are_interchangeable():
    slow = build_reachability_graph(_client(3, 400.0)).matrix
    fast = build_reachability_graph(_client(3, 90.0)).matrix
    assert np.array_equal(slow.indptr, fast.indptr)
    assert np.array_equal(slow.indices, fast.indices)
    assert not np.array_equal(slow.data, fast.data)
    slow_plan = markov.build_solve_plan(slow.indptr, slow.indices,
                                        np.arange(slow.shape[0]))
    fast_plan = markov.build_solve_plan(fast.indptr, fast.indices,
                                        np.arange(fast.shape[0]))
    _assert_same_plan(slow_plan, fast_plan)
    for matrix in (slow, fast):
        (by_slow,) = markov._solve_linear([matrix.data], slow_plan)
        (by_fast,) = markov._solve_linear([matrix.data], fast_plan)
        assert by_slow.tobytes() == by_fast.tobytes()


def test_plan_matches_the_block_it_gathers():
    """The plan's gathers assemble exactly (P^T - I)[:m, :m] with its
    columns in the plan's order, and -(P^T)[:m, m]."""
    matrix = build_reachability_graph(build_local_net(Architecture.II,
                                                      2)).matrix
    plan = markov.build_solve_plan(matrix.indptr, matrix.indices,
                                   np.arange(matrix.shape[0]))
    n = matrix.shape[0]
    m = n - 1
    data = np.append(matrix.data, 0.0)[plan.gather]
    data[plan.diagonal] -= 1.0
    block = sp.csc_matrix((data, plan.indices, plan.indptr), shape=(m, m))
    expected = (matrix.T - sp.identity(n)).tocsc()[:m, :m][:, plan.order]
    assert abs(block - expected).max() == 0.0
    assert sorted(plan.order) == list(range(m))
    rhs = np.zeros(m)
    rhs[plan.rhs_index] = -matrix.data[plan.rhs_source]
    assert np.array_equal(rhs, -matrix.toarray()[m, :m])


def test_plan_holds_structure_only():
    matrix = build_reachability_graph(_server(3, 200.0)).matrix
    plan = markov.build_solve_plan(matrix.indptr, matrix.indices,
                                   np.arange(matrix.shape[0]))
    held = sum(a.nbytes for a in _plan_arrays(plan)[2:])
    assert held <= 13 * matrix.nnz + 24 * matrix.shape[0]


def test_mismatched_plan_is_refused():
    small = build_reachability_graph(_client(2, 200.0)).matrix
    large = build_reachability_graph(_client(3, 200.0)).matrix
    plan = markov.build_solve_plan(small.indptr, small.indices,
                                   np.arange(small.shape[0]))
    with pytest.raises(AnalysisError):
        markov._solve_linear([large.data], plan)


# ----------------------------------------------------------------------
# one vector on every execution path, on the gated model nets
# ----------------------------------------------------------------------

def _assert_identical(a, b):
    assert a.pi.tobytes() == b.pi.tobytes()
    assert a.throughput() == b.throughput()


# eight points, so two workers clear the pool's points-per-worker floor
_CLIENT_DELAYS = (80.0, 120.0, 180.0, 250.0, 350.0, 480.0, 650.0, 900.0)
_SERVER_DELAYS = (50.0, 80.0, 120.0, 180.0, 260.0, 380.0, 520.0, 700.0)
_GATED_GRIDS = [
    (_client, 2, _CLIENT_DELAYS),
    (_client, 3, _CLIENT_DELAYS),
    (_server, 2, _SERVER_DELAYS),
    (_server, 3, _SERVER_DELAYS),
]


def _solved_pi(build, conversations, delay):
    """One top-level solve, shippable from a pool worker."""
    return analyze(build(conversations, delay)).pi


@pytest.mark.parametrize("build, conversations, delays", _GATED_GRIDS)
def test_retime_pooled_and_fresh_solves_are_bit_identical(
        build, conversations, delays):
    grid = [(conversations, delay) for delay in delays]
    solver = SweepSolver()
    swept = [solver.analyze(build(*point)) for point in grid]
    assert solver.stats.skeleton_builds == 1
    assert solver.stats.points_retimed == len(grid) - 1
    for point, a in zip(grid, swept):
        _assert_identical(a, _fresh(build(*point)))
    points = [(build, *point) for point in grid]
    serial = map_sweep(_solved_pi, points, jobs=1, star=True)
    pooled = map_sweep(_solved_pi, points, jobs=2, star=True,
                       oversubscribe=True)
    assert last_map_info().jobs_used == 2
    for a, b, fresh in zip(serial, pooled, swept):
        assert a.tobytes() == fresh.pi.tobytes()
        assert b.tobytes() == a.tobytes()


def test_skeleton_plan_agrees_with_augmented_oracle(augmented_oracle):
    solver = SweepSolver()
    for delay in (90.0, 600.0):
        result = solver.analyze(_client(3, delay))
        expected = augmented_oracle(result.graph.matrix)
        assert np.abs(result.pi - expected).max() <= 1e-12


def _warmup_net(mean):
    """A one-shot boot transition ahead of a service cycle: the boot
    states are transient, and the solve keeps them (with zero mass)."""
    net = Net("warmup")
    start = net.place("Start", tokens=1)
    ready = net.place("Ready")
    done = net.place("Done")
    net.transition("boot", delay=1, inputs=[start], outputs=[ready])
    activity_pair(net, "serve", mean, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def test_transient_plan_covers_every_state():
    store = AnalysisCache()
    solver = SweepSolver(cache=store)
    for mean in (3.0, 12.0):
        swept = solver.analyze(_warmup_net(mean))
        fresh = _fresh(_warmup_net(mean))
        _assert_identical(swept, fresh)
    assert len(store) == 1
    skeleton = store.get(swept.graph.structure)
    assert skeleton.closed_class_count() == 1
    assert skeleton.solve_plan().n == skeleton.state_count \
        == swept.graph.state_count
    assert swept.pi.min() == 0.0


# ----------------------------------------------------------------------
# edge cases and observability
# ----------------------------------------------------------------------

def test_single_state_plan_solves():
    matrix = sp.csr_matrix(np.ones((1, 1)))
    plan = markov.build_solve_plan(matrix.indptr, matrix.indices,
                                   np.arange(1))
    assert plan.n == 1 and len(plan.order) == 0
    (pi,) = markov._solve_linear([matrix.data], plan)
    assert pi.tolist() == [1.0]


def test_singular_block_falls_back_and_counts():
    """States 0 and 1 form the closed class; the pinned last state is
    transient, so the deflated block is exactly singular: the solve
    returns None and the counted power iteration answers."""
    matrix = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                     [1.0, 0.0, 0.0],
                                     [1.0, 0.0, 0.0]]))
    assert markov._solve_linear([matrix.data], markov.build_solve_plan(
        matrix.indptr, matrix.indices, np.arange(3))) == [None]
    graph = chain_graph(matrix, np.array([0.0, 0.0, 1.0]))
    with obs.recording() as recorder:
        (pi,) = markov.stationary_distribution(graph)
    assert recorder.counters.get("markov.solve_fallback") == 1.0
    assert "markov.method.lu" not in recorder.counters
    assert pi == pytest.approx([0.5, 0.5, 0.0], abs=1e-9)


def test_one_structure_sweep_builds_one_plan():
    recorder = obs.install()
    try:
        solver = SweepSolver()
        for delay in np.linspace(80.0, 800.0, 9):
            solver.analyze(_client(2, float(delay)))
    finally:
        obs.uninstall()
    assert solver.stats.skeleton_builds == 1
    assert recorder.counters.get("markov.plan.build") == 1.0
    assert recorder.counters.get("markov.method.lu") == 9.0
    assert recorder.gauges["markov.plan.order_s"] >= 0.0


def test_one_plan_solved_from_several_threads_at_once_matches_serial():
    """Skeletons, and so plans, are shared process-wide: threads
    solving one plan at the same time, at two timings, get the serial
    solves' vectors bit for bit.  Four threads (more than the CPUs a
    runner has) and a short switch interval make the solves interleave
    between wrapping the data and factoring it."""
    net = _client(4, 3000.0)
    graph, skeleton = packed_build(net, compile_packed(net),
                                   max_states=200_000)
    (other,) = packed_retime(skeleton, _client(4, 450.0),
                             max_states=200_000)
    plan = skeleton.solve_plan()
    datas = (graph.data, other.data)
    serial = [markov._solve_linear([data], plan)[0].tobytes()
              for data in datas]
    assert serial[0] != serial[1]
    rounds = 150
    start = threading.Barrier(4)
    outcomes: list[list[bool]] = [[] for _ in range(4)]

    def solve(index):
        side = index % 2
        start.wait(timeout=60)
        for _ in range(rounds):
            (pi,) = markov._solve_linear([datas[side]], plan)
            outcomes[index].append(pi.tobytes() == serial[side])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [[True] * rounds] * 4


def test_stacked_rows_pass_their_own_gates():
    """Chains of one solve share the plan and one factorization but
    each passes its own gate.  Under classes merging states 0 and 1,
    the chain whose states 0 and 1 have equal rows of P is accepted,
    bit for bit its lone solve; the chain whose rows differ is refused
    and falls back alone."""
    unequal = np.array([[0.2, 0.3, 0.5], [0.5, 0.4, 0.1], [0.6, 0.1, 0.3]])
    equal = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    pattern = sp.csr_matrix(np.ones((3, 3)))
    plan = markov.build_solve_plan(pattern.indptr, pattern.indices,
                                   np.array([0, 0, 1]))
    data = [unequal.ravel(), equal.ravel()]
    with obs.recording() as recorder:
        refused, accepted = markov._solve_linear(data, plan)
    assert refused is None
    assert recorder.counters["markov.factorizations"] == 1.0
    assert recorder.counters["markov.points_solved"] == 2.0
    assert recorder.counters["markov.method.lu"] == 1.0
    (alone,) = markov._solve_linear(data[1:], plan)
    assert accepted.tobytes() == alone.tobytes()

    graphs = [chain_graph(sp.csr_matrix(m), np.array([1.0, 0.0, 0.0]))
              for m in (unequal, equal)]
    with obs.recording() as recorder:
        pis = markov.stationary_distribution(*graphs, closed_classes=1,
                                             plan=plan)
    assert recorder.counters["markov.solve_fallback"] == 1.0
    assert recorder.counters["markov.factorizations"] == 1.0
    assert pis[1].tobytes() == accepted.tobytes()
    assert np.abs(pis[0] @ unequal - pis[0]).max() <= 1e-9
