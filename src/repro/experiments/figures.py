"""Generators for every figure of the thesis's evaluation.

Figures are returned as :class:`Figure` objects (series of x/y
points).  Grid sizes default to the thesis's (conversations 1-4), with
parameters to trim them for quick runs — the benchmark harness records
the full defaults.

Every grid is a sweep of independent exact solves, so each generator
fans its points out through :func:`repro.perf.backends.map_sweep`
(``jobs=None`` follows the CLI ``--jobs`` / ``REPRO_JOBS`` default,
serial unless configured; the pool plans each sweep and falls back to
serial when fan-out cannot pay off).  Points return in input order and
grid points sharing a net structure share one reachability build
through the structure-keyed skeleton store (:mod:`repro.gtpn.sweep`),
so the figure values are identical at any job count and store state.
"""

from __future__ import annotations

from repro.experiments.reporting import Figure, Series
from repro.gtpn import Net, activity_pair, analyze
from repro.kernel import (build_conversation_system,
                          run_conversation_experiment)
from repro.models import (Architecture, Mode, solve, solve_grid,
                          solve_nonlocal, solve_offered_load_grid,
                          server_time_for_offered_load)
from repro.perf.backends import map_sweep

#: The offered loads swept in the "realistic workload" figures.
DEFAULT_LOADS = (0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)

DEFAULT_CONVERSATIONS = (1, 2, 3, 4)


def _figure_6_7_point(mean: int) -> tuple[float, float]:
    """Throughput of the constant-delay cycle and its geometric twin."""
    net_const = Net("const")
    ready = net_const.place("Ready", tokens=1)
    done = net_const.place("Done")
    net_const.transition("delay", delay=int(mean), inputs=[ready],
                         outputs=[done])
    net_const.transition("T0", delay=1, inputs=[done],
                         outputs=[ready], resource="lambda")

    net_geo = Net("geo")
    ready_g = net_geo.place("Ready", tokens=1)
    done_g = net_geo.place("Done")
    activity_pair(net_geo, "delay", float(mean), inputs=[ready_g],
                  outputs=[done_g])
    net_geo.transition("T0", delay=1, inputs=[done_g],
                       outputs=[ready_g], resource="lambda")
    return (analyze(net_const).throughput(),
            analyze(net_geo).throughput())


def figure_6_7(mean_delay: int = 50, *, jobs: int | None = None) -> Figure:
    """Constant delay vs its geometric approximation (section 6.6.1).

    Plots the throughput of a two-stage cycle for a range of delay
    means under both models; the curves coincide.
    """
    means = [5, 10, 20, mean_delay]
    points = map_sweep(_figure_6_7_point, means, jobs=jobs)
    const_y = [const for const, _geo in points]
    geo_y = [geo for _const, geo in points]
    means_f = [float(m) for m in means]
    return Figure(
        experiment_id="figure-6.7",
        title="Modeling Large Constant Delays",
        x_label="mean delay (ticks)", y_label="throughput (per tick)",
        series=[Series("constant", means_f, const_y),
                Series("geometric", means_f, geo_y)])


def _figure_6_15_point(n: int, load: float,
                       measure_us: float) -> tuple[float, float]:
    """One validation point: GTPN model vs kernel-simulator run."""
    server_time = server_time_for_offered_load(
        Architecture.II, Mode.NONLOCAL, load)
    model = solve(Architecture.II, Mode.NONLOCAL, n, server_time)
    experiment = run_conversation_experiment(
        Architecture.II, Mode.NONLOCAL, n, server_time,
        measure_us=measure_us)
    return model.throughput_per_ms, experiment.throughput_per_ms


def figure_6_15(conversations: tuple[int, ...] = (1, 2, 3, 4),
                loads: tuple[float, ...] = (0.9, 0.6, 0.3),
                measure_us: float = 2_000_000.0, *,
                jobs: int | None = None) -> Figure:
    """Model validation: GTPN model vs kernel-simulator 'experiment'.

    The thesis validates the architecture II non-local model against
    measurements of the 925 implementation; here the discrete-event
    kernel simulator plays the experiment's role.  Agreement bands
    (thesis): within ~10% at high offered load, within ~25% at low.
    """
    points = [(n, load, measure_us)
              for n in conversations for load in loads]
    values = map_sweep(_figure_6_15_point, points, jobs=jobs, star=True)
    series = []
    it = iter(values)
    for n in conversations:
        xs, model_y, exp_y = [], [], []
        for load in loads:
            model_v, exp_v = next(it)
            xs.append(load)
            model_y.append(model_v)
            exp_y.append(exp_v)
        series.append(Series(f"model n={n}", xs, model_y))
        series.append(Series(f"experiment n={n}", xs, exp_y))
    return Figure(
        experiment_id="figure-6.15",
        title="Model Validation (architecture II, non-local)",
        x_label="offered load", y_label="throughput (msgs/ms)",
        series=series)


def _figure_6_15_faithful_point(n: int, load: float, measure_us: float,
                                warmup: float) -> tuple[float, float]:
    server_time = server_time_for_offered_load(
        Architecture.II, Mode.NONLOCAL, load)
    model = solve_nonlocal(Architecture.II, n, server_time, hosts=2)
    system, meter = build_conversation_system(
        Architecture.II, Mode.NONLOCAL, n, server_time, hosts=2)
    system.run_for(warmup + measure_us)
    return (model.throughput * 1e3,
            meter.throughput(warmup, warmup + measure_us) * 1e3)


def figure_6_15_faithful(conversations: tuple[int, ...] = (1, 2, 4),
                         loads: tuple[float, ...] = (0.9, 0.5),
                         measure_us: float = 1_500_000.0, *,
                         jobs: int | None = None) -> Figure:
    """Figure 6.15 with the thesis's exact validation configuration.

    The experimental 925 nodes had *two* hosts, and the validation
    model "had two tokens" in its Host places (section 6.8); this
    variant runs both the GTPN model and the kernel simulator with
    two hosts per node.
    """
    warmup = 200_000.0
    points = [(n, load, measure_us, warmup)
              for n in conversations for load in loads]
    values = map_sweep(_figure_6_15_faithful_point, points, jobs=jobs,
                       star=True)
    series = []
    it = iter(values)
    for n in conversations:
        xs, model_y, exp_y = [], [], []
        for load in loads:
            model_v, exp_v = next(it)
            xs.append(load)
            model_y.append(model_v)
            exp_y.append(exp_v)
        series.append(Series(f"model n={n}", xs, model_y))
        series.append(Series(f"experiment n={n}", xs, exp_y))
    return Figure(
        experiment_id="figure-6.15-faithful",
        title="Model Validation, two hosts per node (section 6.8 "
              "configuration)",
        x_label="offered load", y_label="throughput (msgs/ms)",
        series=series)


def _max_load_figure(experiment_id: str, title: str, mode: Mode,
                     architectures: tuple[Architecture, ...],
                     conversations: tuple[int, ...],
                     jobs: int | None = None) -> Figure:
    points = [(arch, mode, n, 0.0)
              for arch in architectures for n in conversations]
    results = solve_grid(points, jobs=jobs)
    series = []
    it = iter(results)
    for arch in architectures:
        xs = [float(n) for n in conversations]
        ys = [next(it).throughput_per_ms for _n in conversations]
        series.append(Series(f"arch {arch.name}", xs, ys))
    return Figure(experiment_id=experiment_id, title=title,
                  x_label="conversations",
                  y_label="throughput (msgs/ms)", series=series)


def figure_6_17a(conversations=DEFAULT_CONVERSATIONS, *,
                 jobs: int | None = None) -> Figure:
    """Maximum communication load, local conversations."""
    return _max_load_figure(
        "figure-6.17a", "Maximum Communication Load (Local)",
        Mode.LOCAL,
        (Architecture.I, Architecture.II, Architecture.III),
        tuple(conversations), jobs)


def figure_6_17b(conversations=DEFAULT_CONVERSATIONS, *,
                 jobs: int | None = None) -> Figure:
    """Maximum communication load, non-local conversations."""
    return _max_load_figure(
        "figure-6.17b", "Maximum Communication Load (Non-local)",
        Mode.NONLOCAL,
        (Architecture.I, Architecture.II, Architecture.III),
        tuple(conversations), jobs)


def _realistic_figure(experiment_id: str, title: str, mode: Mode,
                      architectures: tuple[Architecture, ...],
                      conversations: tuple[int, ...],
                      loads: tuple[float, ...],
                      jobs: int | None = None) -> Figure:
    """Throughput vs offered load (computed for architecture I)."""
    points = [(arch, mode, n, load, Architecture.I)
              for arch in architectures
              for n in conversations
              for load in loads]
    results = solve_offered_load_grid(points, jobs=jobs)
    series = []
    it = iter(results)
    for arch in architectures:
        for n in conversations:
            xs, ys = [], []
            for load in loads:
                xs.append(load)
                ys.append(next(it).throughput_per_ms)
            series.append(Series(f"arch {arch.name} n={n}", xs, ys))
    return Figure(experiment_id=experiment_id, title=title,
                  x_label="offered load (architecture I scale)",
                  y_label="throughput (msgs/ms)", series=series,
                  notes=["offered load normalized to architecture I "
                         "so equal server times line up (section "
                         "6.9.2)"])


def figure_6_18(conversations=DEFAULT_CONVERSATIONS,
                loads=DEFAULT_LOADS, *,
                jobs: int | None = None) -> Figure:
    """Realistic workload, local conversations."""
    return _realistic_figure(
        "figure-6.18", "Realistic Workload (Local)", Mode.LOCAL,
        (Architecture.I, Architecture.II, Architecture.III),
        tuple(conversations), tuple(loads), jobs)


def figure_6_19(conversations=DEFAULT_CONVERSATIONS,
                loads=DEFAULT_LOADS, *,
                jobs: int | None = None) -> Figure:
    """Realistic workload, non-local conversations."""
    return _realistic_figure(
        "figure-6.19", "Realistic Workload (Non-local)", Mode.NONLOCAL,
        (Architecture.I, Architecture.II, Architecture.III),
        tuple(conversations), tuple(loads), jobs)


def figure_6_20(conversations=DEFAULT_CONVERSATIONS, *,
                jobs: int | None = None) -> Figure:
    """Architectures III vs IV, maximum load, local."""
    return _max_load_figure(
        "figure-6.20", "Maximum Load (Architectures III & IV: Local)",
        Mode.LOCAL, (Architecture.III, Architecture.IV),
        tuple(conversations), jobs)


def figure_6_21(conversations=DEFAULT_CONVERSATIONS, *,
                jobs: int | None = None) -> Figure:
    """Architectures III vs IV, maximum load, non-local."""
    return _max_load_figure(
        "figure-6.21",
        "Maximum Load (Architectures III & IV: Non-local)",
        Mode.NONLOCAL, (Architecture.III, Architecture.IV),
        tuple(conversations), jobs)


def figure_6_22(conversations=(1, 2, 4),
                loads=(0.9, 0.7, 0.5, 0.3), *,
                jobs: int | None = None) -> Figure:
    """Architectures III vs IV, realistic load, local."""
    return _realistic_figure(
        "figure-6.22", "Realistic Load (Architectures III & IV: Local)",
        Mode.LOCAL, (Architecture.III, Architecture.IV),
        tuple(conversations), tuple(loads), jobs)


def figure_6_23(conversations=(1, 2, 4),
                loads=(0.9, 0.7, 0.5, 0.3), *,
                jobs: int | None = None) -> Figure:
    """Architectures III vs IV, realistic load, non-local."""
    return _realistic_figure(
        "figure-6.23",
        "Realistic Load (Architectures III & IV: Non-local)",
        Mode.NONLOCAL, (Architecture.III, Architecture.IV),
        tuple(conversations), tuple(loads), jobs)


def figure_chaos_degradation(*, jobs: int | None = None) -> Figure:
    """Degradation curves under packet loss (repro.faults chaos).

    Beyond the published evaluation: relaxes the section 6.6.4
    reliable-network assumption and shows the MP retransmission
    protocol degrading gracefully.  Seeded, hence deterministic.
    """
    # lazy import: repro.faults builds on the experiments reporting
    from repro.faults.chaos import degradation_figure
    return degradation_figure(seed=0, jobs=jobs)
