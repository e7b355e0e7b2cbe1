"""Benches for the GTPN engine itself, incl. Figure 6.7."""

import pytest

from repro.experiments.figures import figure_6_7
from repro.gtpn import analyze, simulate
from repro.models import Architecture, build_local_net
from repro.obs.clock import perf_now


def test_bench_figure_6_7_delay_approximation(run_once):
    figure = run_once(figure_6_7)
    const = figure.get_series("constant")
    geo = figure.get_series("geometric")
    for a, b in zip(const.y, geo.y):
        assert a == pytest.approx(b, rel=1e-9)


def test_bench_exact_analysis_arch2_local(benchmark):
    """Exact solve of the arch II local net at three conversations."""
    net = build_local_net(Architecture.II, 3, 1000.0)
    result = benchmark.pedantic(analyze, args=(net,), rounds=1,
                                iterations=1)
    assert result.throughput() > 0


def test_bench_monte_carlo_simulation(benchmark, perf_record):
    """100k-tick Monte Carlo run of the arch I local net.

    With a ~5000-tick cycle the window holds only ~20 completions, so
    the tolerance is dominated by sampling noise (~2 sigma).  Records
    the sampler's throughput (warmup ticks included) to
    ``BENCH_perf.json``.
    """
    net = build_local_net(Architecture.I, 2, 0.0)
    ticks, warmup = 100_000, 5_000
    wall = []

    def run():
        started = perf_now()
        result = simulate(net, ticks=ticks, warmup=warmup, seed=11)
        wall.append(perf_now() - started)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    perf_record(bench="monte-carlo-arch1-local-n2",
                ticks=ticks + warmup, wall_s=wall[0],
                ticks_per_s=(ticks + warmup) / wall[0])
    assert result.throughput() == pytest.approx(1 / 4970.0, rel=0.45)
