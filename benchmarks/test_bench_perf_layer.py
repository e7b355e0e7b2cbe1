"""Benches for the perf layer: sweep parallelism and the skeleton store.

Records serial-vs-parallel, cold-vs-held-skeleton, and
structure-sharing sweep wall times to ``BENCH_perf.json`` (via the
``perf_record`` fixture), and asserts the headline guarantees: values
are bit-identical on every path, a skeleton-store hit delivers at
least a 1.5x wall-clock improvement over a cold build, and the
structure-sharing sweep engine beats per-point analysis on a cold
18-point grid.

The parallel timings are recorded unconditionally but only asserted
against when the machine actually has more than one CPU — on a
single-core runner the pool planner falls back to serial and the
record says so (``mode``/``reason`` from ``last_map_info``).
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs
from repro.experiments.figures import figure_6_18
from repro.gtpn import analyze
from repro.gtpn.sweep import SweepSolver
from repro.models import Architecture, build_local_net
from repro.models.solve import _solve_cached
from repro.obs.clock import perf_now
from repro.perf import AnalysisCache, configure_cache
from repro.perf.backends import last_map_info, shutdown_pool

#: Required wall-clock improvement of the winning fast path.
MIN_SPEEDUP = 1.5

#: Required cold-grid improvement of the structure-sharing sweep over
#: per-point analysis (build once + re-time beats rebuild-per-point).
#: The array-native engine compressed this gap: cold builds used to
#: cost ~10x more, making re-timing a 5.6x win; now that exploration
#: itself is vectorized the sweep's edge is ~2x and the floor guards
#: the invariant (sharing must still beat rebuilding), not the old
#: margin.
MIN_SWEEP_SPEEDUP = 1.5

_FIGURE_GRID = dict(conversations=(2, 3), loads=(0.9, 0.6, 0.3))

#: The sweep bench grid: architecture II local, 3 conversations, 18
#: compute times — one reachability structure (1658 states), 18 timings.
_SWEEP_COMPUTE_TIMES = tuple(250.0 * i for i in range(1, 19))


def _timed(fn, *args, **kwargs):
    started = perf_now()
    result = fn(*args, **kwargs)
    return result, perf_now() - started


def test_bench_sweep_vs_pointwise_analyze(perf_record):
    """Tentpole guarantee: a cold parameter sweep through
    ``SweepSolver`` builds the reachability graph once and re-times it
    per point, beating cold per-point ``analyze`` by
    ``MIN_SWEEP_SPEEDUP`` with bit-identical results.  Each pointwise
    solve gets its own fresh store and the sweep one fresh store of its
    own, so the win measured is structure sharing alone."""
    pointwise, pointwise_s = _timed(lambda: [
        analyze(build_local_net(Architecture.II, 3, x),
                cache=AnalysisCache())
        for x in _SWEEP_COMPUTE_TIMES])
    solver = SweepSolver(cache=AnalysisCache())
    swept, sweep_s = _timed(lambda: [
        solver.analyze(build_local_net(Architecture.II, 3, x))
        for x in _SWEEP_COMPUTE_TIMES])

    speedup = pointwise_s / sweep_s
    perf_record(bench="sweep-vs-pointwise-arch2-local-n3",
                grid_points=len(_SWEEP_COMPUTE_TIMES),
                state_count=pointwise[0].state_count,
                pointwise_s=pointwise_s, sweep_s=sweep_s,
                speedup=speedup, **solver.stats.as_dict())

    for a, b in zip(pointwise, swept):
        assert a.throughput() == b.throughput()
        assert np.array_equal(a.pi, b.pi)
        assert a.state_count == b.state_count
    assert solver.stats.skeleton_builds == 1
    assert solver.stats.points_retimed == len(_SWEEP_COMPUTE_TIMES) - 1
    assert speedup >= MIN_SWEEP_SPEEDUP


def test_bench_exact_analysis_cold_vs_warm(perf_record):
    """Same workload as ``test_bench_exact_analysis_arch2_local``,
    solved cold (a reachability build) and then again through the
    skeleton the first solve left in the store (a re-time)."""
    cache = AnalysisCache()
    cold_result, cold_s = _timed(
        analyze, build_local_net(Architecture.II, 3, 1000.0),
        cache=cache)
    warm_result, warm_s = _timed(
        analyze, build_local_net(Architecture.II, 3, 1000.0),
        cache=cache)
    speedup = cold_s / warm_s
    perf_record(bench="exact-analysis-arch2-local",
                state_count=cold_result.state_count,
                cold_s=cold_s, warm_s=warm_s, speedup=speedup)
    assert warm_result.throughput() == cold_result.throughput()
    assert warm_result.state_count == cold_result.state_count
    assert speedup >= MIN_SPEEDUP


def test_bench_figure_6_18_serial_parallel_warm(perf_record):
    """One realistic-workload figure timed on every execution path.

    The three runs — serial cold, parallel cold, serial over held
    skeletons — must produce bit-identical figure values; speed is the
    only degree of freedom.  Each cold leg starts from an empty
    skeleton store (and the parallel leg from a fresh pool, whose
    workers start from that empty store).
    """
    # always *request* the full fan-out; the pool planner decides
    # whether it can pay off, and the record reports its decision
    jobs = 4

    def cold():
        configure_cache()
        _solve_cached.cache_clear()

    cold()
    serial, serial_s = _timed(figure_6_18, jobs=1, **_FIGURE_GRID)
    cold()
    shutdown_pool()
    parallel, parallel_s = _timed(figure_6_18, jobs=jobs,
                                  **_FIGURE_GRID)
    pool_info = last_map_info()

    cold()
    figure_6_18(jobs=1, **_FIGURE_GRID)          # hold the skeletons
    _solve_cached.cache_clear()
    warm, warm_s = _timed(figure_6_18, jobs=1, **_FIGURE_GRID)

    parallel_speedup = serial_s / parallel_s
    warm_speedup = serial_s / warm_s
    ran_parallel = pool_info is not None and pool_info.mode == "parallel"
    perf_record(bench="figure-6.18-trimmed",
                grid_points=len(_FIGURE_GRID["conversations"])
                * len(_FIGURE_GRID["loads"]) * 3,
                jobs=jobs, serial_s=serial_s, parallel_s=parallel_s,
                warm_s=warm_s, parallel_speedup=parallel_speedup,
                warm_speedup=warm_speedup,
                mode=pool_info.mode if pool_info else None,
                reason=pool_info.reason if pool_info else None,
                jobs_used=pool_info.jobs_used if pool_info else None,
                chunk_size=pool_info.chunk_size if pool_info else None,
                groups=pool_info.groups if pool_info else None,
                pool_efficiency=(parallel_speedup / pool_info.jobs_used
                                 if ran_parallel else None))

    assert [s.y for s in serial.series] == [s.y for s in parallel.series]
    assert [s.y for s in serial.series] == [s.y for s in warm.series]
    assert warm_speedup >= MIN_SPEEDUP
    if not ran_parallel:
        # the planner declined to fan out (single CPU or a small
        # grid); the record must say why instead of reporting a
        # meaningless <1x "parallel" speedup
        assert pool_info is not None and pool_info.reason
    if jobs > 1 and (os.cpu_count() or 1) > 1:
        # with real cores available at least one fast path must win big
        assert max(parallel_speedup, warm_speedup) >= MIN_SPEEDUP


# ----------------------------------------------------------------------
# packed-engine scaling (the array-native GTPN core)
# ----------------------------------------------------------------------

#: Default scaling grid; n=7 (107k states) and n=8 (217k states) join
#: when ``REPRO_BENCH_HEAVY`` is set.
_SCALING_NS = (3, 4, 5, 6)
_SCALING_NS_HEAVY = (7, 8)

#: CI floor on the packed build rate (states interned per second of
#: reachability build).  Quiet-machine rates run 60k-90k st/s across
#: the grid; the floor only catches order-of-magnitude regressions.
MIN_STATES_PER_S = 15_000

def test_bench_packed_scaling_arch2(perf_record):
    """Scaling records for the array-native engine: one packed build +
    exact solve per conversation count, recording the build/solve split,
    the states-per-second build rate and the order of the advance-class
    quotient the solve factored; the vector must come from the direct
    LU, not the power fallback."""
    from repro.gtpn.markov import stationary_distribution
    from repro.gtpn.packed import compile_packed, packed_build

    ns = _SCALING_NS + (_SCALING_NS_HEAVY
                        if os.environ.get("REPRO_BENCH_HEAVY") else ())
    for n in ns:
        net = build_local_net(Architecture.II, n)
        pnet = compile_packed(net)
        assert pnet is not None
        (graph_and_skel), build_s = _timed(
            packed_build, net, pnet, max_states=5_000_000)
        graph, skeleton = graph_and_skel
        with obs.recording() as recorder:
            _, solve_s = _timed(stationary_distribution, graph,
                                closed_classes=skeleton.closed_class_count())
        assert "markov.solve_fallback" not in recorder.counters
        states_per_s = graph.state_count / build_s
        perf_record(bench=f"scaling-arch2-n{n}",
                    state_count=graph.state_count,
                    quotient_order=graph.quotient_order,
                    build_s=build_s, solve_s=solve_s,
                    states_per_s=states_per_s)
        assert states_per_s >= MIN_STATES_PER_S


#: The one non-local point timed by stage: figure 6.19, architecture
#: II, two conversations, offered load 0.6.
_NONLOCAL_POINT = dict(architecture=Architecture.II, conversations=2,
                       load=0.6)


def test_bench_nonlocal_fixed_point(perf_record, monkeypatch):
    """One figure-6.19 point's client/server fixed point, split by
    stage from its own trace: net builds, reachability builds, skeleton
    re-times and stationary solves.  Each side's net is built once per
    fixed point; every later iteration re-times the side's skeleton
    from the new surrogate delay alone."""
    from repro.models import Mode, iterate, solve_nonlocal
    from repro.models.solve import server_time_for_offered_load

    point = _NONLOCAL_POINT
    compute = server_time_for_offered_load(Architecture.I, Mode.NONLOCAL,
                                           point["load"])
    net_builds = []
    for name in ("build_nonlocal_client_net", "build_nonlocal_server_net"):
        def counted(*args, _build=getattr(iterate, name), **kwargs):
            net_builds.append(_build)
            return _build(*args, **kwargs)
        monkeypatch.setattr(iterate, name, counted)
    configure_cache()               # cold: both sides build once
    with obs.recording() as recorder:
        solution, total_s = _timed(
            solve_nonlocal, point["architecture"],
            point["conversations"], compute)

    def stage_s(name):
        return sum(s.duration_s for s in recorder.spans if s.name == name)

    (fixed_point,) = [s for s in recorder.spans
                      if s.name == "models.fixed_point"]
    builds = [s for s in recorder.spans if s.name == "gtpn.build"]
    retimes = [s for s in recorder.spans if s.name == "gtpn.retime"]
    retime_s, solve_s = stage_s("gtpn.retime"), stage_s("gtpn.solve")
    perf_record(bench="nonlocal-fixed-point",
                architecture=point["architecture"].name,
                conversations=point["conversations"],
                load=point["load"], compute_us=compute,
                iterations=solution.iterations,
                client_states=solution.client_result.state_count,
                server_states=solution.server_result.state_count,
                net_builds=len(net_builds),
                builds=len(builds), retimes=len(retimes),
                build_s=stage_s("gtpn.build"),
                retime_s=retime_s, solve_s=solve_s,
                # re-time plus solve of one side, averaged over both
                # sides of every iteration
                per_side_us=(retime_s + solve_s)
                / (2 * solution.iterations) * 1e6,
                total_s=total_s, throughput=solution.throughput)
    assert fixed_point.attrs["iterations"] == solution.iterations
    assert len(net_builds) == 2
    assert len(builds) == 2
    assert len(retimes) == 2 * (solution.iterations - 1)


#: Allowed disabled-tracing overhead on an exact solve, as a fraction
#: of the solve's wall time.
MAX_OBS_OVERHEAD = 0.02


def test_bench_obs_disabled_overhead(perf_record):
    """The observability layer's zero-overhead contract, quantified.

    Direct wall-clock ratios of "solve with hooks" vs "solve without"
    are noise-dominated (the hooks cost nanoseconds, the solve costs
    milliseconds), so the bound is asserted structurally: count the
    hook invocations one arch-II exact solve actually executes (by
    recording it once), measure the per-call cost of a *disabled* hook
    in isolation, and require count x cost < 2% of the measured solve
    time.
    """
    assert not obs.enabled()
    result, solve_s = _timed(
        analyze, build_local_net(Architecture.II, 3, 1000.0),
        cache=AnalysisCache())

    # replay the identical solve under a recorder purely to count how
    # many hooks fire on this path (spans + events + counter bumps)
    with obs.recording() as recorder:
        analyze(build_local_net(Architecture.II, 3, 1000.0),
                cache=AnalysisCache())
    hook_calls = (len(recorder.spans) + len(recorder.events)
                  + int(sum(recorder.counters.values())))
    assert not obs.enabled()

    # per-call cost of the disabled span hook (the most expensive
    # no-op: a global read plus a context-manager protocol round trip)
    rounds = 200_000
    _, disabled_s = _timed(
        lambda: [obs.span("bench-overhead") for _ in range(rounds)])
    per_call_s = disabled_s / rounds

    overhead_s = hook_calls * per_call_s
    overhead_fraction = overhead_s / solve_s
    perf_record(bench="obs-disabled-overhead",
                state_count=result.state_count, solve_s=solve_s,
                hook_calls=hook_calls, per_call_ns=per_call_s * 1e9,
                overhead_fraction=overhead_fraction)
    assert overhead_fraction < MAX_OBS_OVERHEAD
