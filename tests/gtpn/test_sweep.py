"""Tests for the structure-sharing sweep engine (repro.gtpn.sweep).

The contract under test: re-timing a cached reachability skeleton is
bit-identical to a from-scratch build, every timing change that could
alter branch resolution falls back to a full rebuild, and the split
(structure, timing) cache key never lets two different timings collide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.gtpn import Gate, Net, activity_pair, analyze
from repro.gtpn.packed import packed_build, packed_retime
from repro.gtpn.sweep import (SkeletonMismatch, SweepSolver, retime,
                              traced_build)
from repro.perf import AnalysisCache, configure_cache
from repro.perf.backends import last_map_info, map_sweep
from repro.perf.cache import fingerprint_net


@pytest.fixture(autouse=True)
def _cold_store():
    """Every test starts from an empty process-wide skeleton store."""
    configure_cache()


def _fresh(net: Net):
    """Per-point analysis in a private store: a from-scratch build,
    independent of the skeletons the solver under test holds."""
    return analyze(net, cache=AnalysisCache())


def _grid_net(f1: float, f2: float, mean: float) -> Net:
    """One structure, three timing knobs: a conflict class (f1 vs f2),
    a gated member, and a geometric activity pair."""
    net = Net("sweep-grid")
    ready = net.place("Ready", tokens=2)
    a = net.place("A")
    b = net.place("B")
    done = net.place("Done")
    net.transition("Ta", delay=1, frequency=f1,
                   inputs=[ready], outputs=[a])
    net.transition("Tb", delay=2, frequency=f2,
                   inputs=[ready], outputs=[b],
                   gate=Gate(inhibitors=["Done"], not_firing=["join"]))
    activity_pair(net, "work", mean, inputs=[a], outputs=[done])
    net.transition("join", delay=1, inputs=[b], outputs=[done])
    net.transition("loop", delay=1, inputs=[done], outputs=[ready],
                   resource="lambda")
    return net


def _assert_identical(a, b):
    assert a.throughput() == b.throughput()
    assert (a.pi == b.pi).all()
    assert a.state_count == b.state_count
    assert (a.graph.matrix != b.graph.matrix).nnz == 0
    assert np.array_equal(a.graph.matrix.data, b.graph.matrix.data)
    assert np.array_equal(a.graph.starts_matrix, b.graph.starts_matrix)
    assert np.array_equal(a.graph.init_vec, b.graph.init_vec)


def test_legacy_entry_point_names_are_the_packed_engine():
    """The old build/retime names resolve to the one engine itself —
    aliases, not wrappers, so a call through either is one call."""
    import repro.gtpn.sweep as sweep
    assert sweep.__dict__["traced_build"] is packed_build
    assert sweep.__dict__["retime"] is packed_retime


def test_sweep_grid_net_matches_object_walk(oracle_identical):
    oracle_identical(_grid_net(0.5, 0.5, 4.0))


# ----------------------------------------------------------------------
# split cache key
# ----------------------------------------------------------------------

def test_same_structure_different_timing_share_structure_key():
    fp1 = fingerprint_net(_grid_net(0.5, 0.5, 4.0))
    fp2 = fingerprint_net(_grid_net(0.25, 0.75, 9.0))
    assert fp1.structure == fp2.structure
    assert fp1.timing != fp2.timing
    assert fp1 != fp2                       # full keys never collide


def test_structure_key_tracks_structure():
    base = fingerprint_net(_grid_net(0.5, 0.5, 4.0))
    extra = _grid_net(0.5, 0.5, 4.0)
    extra.transition("spur", delay=1,
                     inputs=[extra.places[3]], outputs=[extra.places[0]])
    assert fingerprint_net(extra).structure != base.structure


# ----------------------------------------------------------------------
# retime == rebuild, property-tested over random grids
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0),
                          st.floats(2.0, 20.0)),
                min_size=2, max_size=5))
def test_property_sweep_matches_pointwise_analyze(grid):
    # a private store per example: the fixture runs once per test
    solver = SweepSolver(cache=AnalysisCache())
    for point in grid:
        net = _grid_net(*point)
        swept = solver.analyze(net)
        fresh = _fresh(_grid_net(*point))
        _assert_identical(swept, fresh)
    assert solver.stats.skeleton_builds == 1
    assert solver.stats.points_retimed == len(grid) - 1
    assert solver.stats.mismatches == 0


def test_solver_builder_grid_matches_pointwise():
    grid = [(0.5, 0.5, 4.0), (0.3, 0.7, 6.0), (0.9, 0.1, 12.0)]
    solver = SweepSolver()
    for point in grid:
        _assert_identical(solver.analyze(_grid_net(*point)),
                          _fresh(_grid_net(*point)))
    assert solver.stats.skeleton_builds == 1


def _pooled_point(point) -> tuple:
    """One grid point solved in a pool worker, through the worker's
    own process-wide store; results hold nets, so ship the arrays."""
    result = SweepSolver().analyze(_grid_net(*point))
    graph = result.graph
    return (result.pi, graph.matrix.data, graph.starts_matrix,
            graph.init_vec)


def test_pooled_solver_matches_pointwise():
    """Workers re-time their own skeletons; every value they ship back
    is bit-identical to per-point analysis in the parent."""
    grid = [(0.2 + 0.05 * i, 0.9 - 0.05 * i, 3.0 + i)
            for i in range(8)]
    pooled = map_sweep(_pooled_point, grid, jobs=2, oversubscribe=True)
    assert last_map_info().mode == "parallel"
    for point, (pi, data, starts, init) in zip(grid, pooled):
        fresh = _fresh(_grid_net(*point))
        assert np.array_equal(pi, fresh.pi)
        assert np.array_equal(data, fresh.graph.matrix.data)
        assert np.array_equal(starts, fresh.graph.starts_matrix)
        assert np.array_equal(init, fresh.graph.init_vec)


# ----------------------------------------------------------------------
# rebuild fallback: timing changes that invalidate the skeleton
# ----------------------------------------------------------------------

def _delay_net(d: int, f: float = 0.5) -> Net:
    net = Net("delays")
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    net.transition("Ta", delay=2, frequency=f,
                   inputs=[ready], outputs=[done])
    net.transition("Tb", delay=d,
                   frequency=1.0 - f if f < 1.0 else 0.5,
                   inputs=[ready], outputs=[done])
    net.transition("loop", delay=1, inputs=[done], outputs=[ready],
                   resource="lambda")
    return net


def test_retime_rejects_changed_static_delay():
    """Delays sit in the timing half of the key, but remaining-tick
    counters live inside the states: a changed delay must rebuild."""
    net = _delay_net(2)
    _graph, skeleton = traced_build(net, max_states=1_000)
    changed = _delay_net(3)
    assert fingerprint_net(changed).structure == \
        fingerprint_net(net).structure
    with pytest.raises(SkeletonMismatch):
        retime(skeleton, changed, max_states=1_000)


def test_retime_rejects_frequency_mask_flip():
    net = _grid_net(0.5, 0.5, 4.0)
    _graph, skeleton = traced_build(net, max_states=1_000)
    # Ta's frequency drops to zero: the conflict class resolves to a
    # different member set, so the recorded branches no longer apply
    with pytest.raises(SkeletonMismatch):
        retime(skeleton, _grid_net(0.0, 0.5, 4.0), max_states=1_000)


def test_solver_falls_back_to_rebuild_on_mismatch():
    solver = SweepSolver()
    first = solver.analyze(_delay_net(2))
    second = solver.analyze(_delay_net(3))     # delay changed
    assert solver.stats.mismatches == 1
    assert solver.stats.skeleton_builds == 2
    _assert_identical(first, _fresh(_delay_net(2)))
    _assert_identical(second, _fresh(_delay_net(3)))
    # the rebuilt skeleton serves later points with the new timing
    third = solver.analyze(_delay_net(3))
    assert solver.stats.points_retimed == 1
    _assert_identical(third, second)


# ----------------------------------------------------------------------
# re-timing a named activity pair of a solved result (BoundPair)
# ----------------------------------------------------------------------

def test_retime_pairs_matches_fresh_build_and_its_fingerprint():
    solver = SweepSolver()
    first = solver.analyze(_grid_net(0.5, 0.5, 4.0))
    bound = solver.bind_pair(first, "work")
    (retimed,) = bound.solve([9.0])
    fresh = _grid_net(0.5, 0.5, 9.0)
    _assert_identical(retimed, _fresh(fresh))
    # a re-solve carries the bound net; the net it was solved at is
    # built on demand
    assert retimed.net is first.net
    kept = bound.retimed(retimed, 9.0)
    assert kept.pi is retimed.pi and kept.graph.net is kept.net
    assert fingerprint_net(kept.net) == fingerprint_net(fresh)
    assert [t.frequency_label for t in kept.net.transitions] \
        == [t.frequency_label for t in fresh.transitions]
    # the solved-at net is a copy: the first result keeps its timing
    assert fingerprint_net(first.net) == \
        fingerprint_net(_grid_net(0.5, 0.5, 4.0))
    assert bound.retimed(first, 4.0) is first
    assert solver.stats.skeleton_builds == 1
    assert solver.stats.points_retimed == 1


def test_retime_pairs_to_one_tick_falls_back_to_a_build():
    """A mean of exactly one tick zeroes the loop frequency, so the
    support changes and the solver builds instead of replaying; the
    bound skeleton still serves later means."""
    solver = SweepSolver()
    first = solver.analyze(_grid_net(0.5, 0.5, 4.0))
    bound = solver.bind_pair(first, "work")
    (retimed,) = bound.solve([1.0])
    assert solver.stats.mismatches == 1
    assert solver.stats.skeleton_builds == 2
    assert retimed.net.get_transition("work.loop").frequency == 0.0
    assert bound.retimed(retimed, 1.0) is retimed
    oracle = _fresh(_grid_net(0.5, 0.5, 1.0))     # built without a loop
    assert retimed.throughput() == oracle.throughput()
    assert (retimed.pi == oracle.pi).all()
    assert np.array_equal(retimed.graph.matrix.data,
                          oracle.graph.matrix.data)
    (later,) = bound.solve([6.0])
    assert solver.stats.skeleton_builds == 2
    assert solver.stats.points_retimed == 1
    _assert_identical(later, _fresh(_grid_net(0.5, 0.5, 6.0)))


def test_retime_pairs_cannot_add_a_loop_transition():
    solver = SweepSolver()
    first = solver.analyze(_grid_net(0.5, 0.5, 1.0))
    bound = solver.bind_pair(first, "work")
    with pytest.raises(SkeletonMismatch):
        bound.solve([4.0])
    with pytest.raises(SkeletonMismatch):
        bound.solve([1.0, 4.0])
    _assert_identical(bound.solve([1.0])[0], first)


def test_retime_pairs_rejects_unknown_or_non_pair_names():
    from repro.errors import ModelError
    solver = SweepSolver()
    first = solver.analyze(_grid_net(0.5, 0.5, 4.0))
    with pytest.raises(ModelError):
        solver.bind_pair(first, "no-such-pair")
    with pytest.raises(ModelError):
        solver.bind_pair(first, "Tb")     # delay 2: no pair


def test_bound_pair_keeps_its_results_skeleton():
    """Delays are timing, not structure: when the structure's skeleton
    in the store was last built for other delays, a bound pair still
    re-times the skeleton its result was evaluated on."""
    def net_with(delay: int, mean: float) -> Net:
        net = _delay_net(delay)
        ready = net.get_place("Ready")
        activity_pair(net, "work", mean, inputs=[ready], outputs=[ready])
        return net

    solver = SweepSolver()
    first = solver.analyze(net_with(2, 4.0))
    solver.analyze(net_with(3, 4.0))            # replaces the skeleton
    (retimed,) = solver.bind_pair(first, "work").solve([6.0])
    assert solver.stats.mismatches == 1
    assert solver.stats.skeleton_builds == 2
    assert solver.stats.points_retimed == 1
    _assert_identical(retimed, _fresh(net_with(2, 6.0)))

def test_bound_pair_solves_many_means_in_lockstep():
    """One stacked re-solve of several means: one re-time and one
    factorization for all of them, each result bit-identical to its
    own fresh build.  A mean of exactly one tick is rebuilt alone (a
    counted mismatch) and the other means share the stacked solve."""
    solver = SweepSolver()
    first = solver.analyze(_grid_net(0.5, 0.5, 4.0))
    bound = solver.bind_pair(first, "work")
    means = [6.0, 1.0, 9.0, 2.5]
    with obs.recording() as recorder:
        results = bound.solve(means)
    for mean, result in zip(means, results):
        oracle = _fresh(_grid_net(0.5, 0.5, mean))
        if mean == 1.0:
            # the rebuilt net keeps a zero-frequency loop, the oracle
            # is built without one: compare what they share
            assert result.throughput() == oracle.throughput()
            assert result.pi.tobytes() == oracle.pi.tobytes()
            assert result.graph.data.tobytes() == oracle.graph.data.tobytes()
        else:
            _assert_identical(result, oracle)
        assert bound.retimed(result, mean).net.get_transition(
            "work").frequency == 1.0 / mean
    assert solver.stats.mismatches == 1
    assert solver.stats.skeleton_builds == 2
    assert solver.stats.points_retimed == 3
    assert recorder.counters["markov.factorizations"] == 2.0
    assert recorder.counters["markov.points_solved"] == 4.0
    (stacked,) = [s for s in recorder.spans
                  if s.name == "gtpn.solve" and s.attrs["points"] > 1]
    assert stacked.attrs["points"] == 3


def test_bound_pairs_retime_several_pairs_per_point():
    """Binding two pairs re-times both from each point's row of
    means, and the kept net carries both means."""
    def net_at(work: float, rest: float) -> Net:
        net = _grid_net(0.5, 0.5, work)
        ready = net.get_place("Ready")
        activity_pair(net, "rest", rest, inputs=[ready], outputs=[ready])
        return net

    solver = SweepSolver()
    bound = solver.bind_pair(solver.analyze(net_at(4.0, 3.0)),
                             "work", "rest")
    rows = [(6.0, 3.0), (9.0, 7.0)]
    for (work, rest), result in zip(rows, bound.solve(rows)):
        _assert_identical(result, _fresh(net_at(work, rest)))
        kept = bound.retimed(result, (work, rest))
        assert fingerprint_net(kept.net) == \
            fingerprint_net(net_at(work, rest))
