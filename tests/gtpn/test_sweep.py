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

from repro.gtpn import Gate, Net, activity_pair, analyze
from repro.gtpn.packed import packed_build, packed_retime
from repro.gtpn.sweep import (SkeletonMismatch, SweepSolver, retime,
                              sweep_analyze, traced_build)
from repro.perf import set_cache_enabled
from repro.perf.cache import fingerprint_net


@pytest.fixture(autouse=True)
def _cache_off():
    """Isolate from the global cache: per-point analyze must take the
    plain build path so the comparison is against independent work."""
    set_cache_enabled(False)
    yield
    set_cache_enabled(True)


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
    solver = SweepSolver(cache=None)
    for point in grid:
        net = _grid_net(*point)
        swept = solver.analyze(net)
        fresh = analyze(_grid_net(*point))
        _assert_identical(swept, fresh)
    assert solver.stats.skeleton_builds == 1
    assert solver.stats.points_retimed == len(grid) - 1
    assert solver.stats.mismatches == 0


def test_sweep_analyze_builder_grid_matches_pointwise():
    grid = [(0.5, 0.5, 4.0), (0.3, 0.7, 6.0), (0.9, 0.1, 12.0)]
    results = sweep_analyze(_grid_net, grid, cache=None)
    for point, swept in zip(grid, results):
        _assert_identical(swept, analyze(_grid_net(*point)))


def test_sweep_analyze_parallel_matches_pointwise():
    """The pooled path (workers return net-free payloads, the parent
    re-binds) must be bit-identical to per-point analysis."""
    grid = [(0.2 + 0.05 * i, 0.9 - 0.05 * i, 3.0 + i)
            for i in range(8)]
    results = sweep_analyze(_grid_net, grid, cache=None, jobs=2,
                            oversubscribe=True)
    for point, swept in zip(grid, results):
        _assert_identical(swept, analyze(_grid_net(*point)))


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
    solver = SweepSolver(cache=None)
    first = solver.analyze(_delay_net(2))
    second = solver.analyze(_delay_net(3))     # delay changed
    assert solver.stats.mismatches == 1
    assert solver.stats.skeleton_builds == 2
    _assert_identical(first, analyze(_delay_net(2)))
    _assert_identical(second, analyze(_delay_net(3)))
    # the rebuilt skeleton serves later points with the new timing
    third = solver.analyze(_delay_net(3))
    assert solver.stats.points_retimed == 1
    _assert_identical(third, second)
