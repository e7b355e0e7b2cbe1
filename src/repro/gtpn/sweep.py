"""Structure-sharing sweep analysis: build the graph once, re-time it.

Chapter 6 evaluates each architecture by re-solving the *same* GTPN
over grids of component timings (Tables 6.4-6.23).  The state space of
such a sweep is invariant: timing enters the models only through
frequency weights (the delay-1 geometric activity pairs of
``approximations.activity_pair``), so every grid point shares one
reachability graph and only the branch probabilities of the embedded
Markov chain change.

This module exploits that.  A packed build (:mod:`repro.gtpn.packed`)
returns, next to the graph, a :class:`~repro.gtpn.packed.PackedSkeleton`
holding for every branch probability the *program* of
normalized-frequency factors whose products and sums produced it.
Re-timing a skeleton under a new net re-evaluates only those factors,
through the same arrays and the same floating-point operation order as
a from-scratch build, so a re-timed graph is bit-identical to the one
`analyze` would have built — the reproducibility contract (identical
figure values at any cache state or job count) survives.

Replay is only valid while the new timings keep the *support* of every
choice unchanged; if a new timing flips any frequency between zero and
positive, replay raises :class:`SkeletonMismatch` and the caller falls
back to a full build.  Delay changes also force a rebuild:
remaining-tick counters are part of the states themselves.

Entry points:

* :func:`sweep_analyze` — analyze a whole parameter grid, building the
  skeleton once per structure and re-timing per point; fans out over
  :func:`repro.perf.backends.map_sweep` when worker processes pay off.
* :class:`SweepSolver` — the underlying per-structure solver, with
  per-stage timing stats (build / re-time / solve) for the benchmarks;
  :meth:`SweepSolver.retime_pairs` re-solves one of its results with
  named activity pairs re-timed, without building a net.
* :func:`acquire_graph` — used by :func:`repro.gtpn.analyze` so even
  single-point analyses share skeletons through the analysis cache.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro import obs
from repro.errors import ModelError
from repro.gtpn.approximations import _pair_labels, pair_frequencies
from repro.gtpn.net import Net
from repro.gtpn.packed import (PackedSkeleton, SkeletonMismatch,
                               compile_packed, packed_build, packed_retime)
from repro.gtpn.reachability import DEFAULT_MAX_STATES, ReachabilityGraph
from repro.obs.clock import perf_now
from repro.perf.cache import cache_enabled, fingerprint_net, get_cache

__all__ = [
    "SkeletonMismatch", "SweepSolver", "SweepStats", "acquire_graph",
    "retime", "sweep_analyze", "traced_build",
]

# perfbench's layer tracer resolves these names: aliases, not wrappers
traced_build = packed_build
retime = packed_retime

_USE_GLOBAL = object()      # sentinel: "global cache when enabled"


def acquire_graph(net: Net, structure: str, max_states: int, store,
                  reduction: str = "none",
                  ) -> tuple[ReachabilityGraph, PackedSkeleton]:
    """Graph for *net* through the skeleton tier of *store*.

    Returns ``(graph, skeleton)``; the skeleton carries the chain's
    closed-class count and solve plan.  Used by
    :func:`repro.gtpn.analyze` so plain per-point analyses share
    structure work with sweeps through the same cache.
    """
    kind = f"packed:{reduction}"
    skeleton = store.get_structure(structure, kind=kind)
    if skeleton is not None:
        try:
            return packed_retime(skeleton, net,
                                 max_states=max_states), skeleton
        except SkeletonMismatch:
            pass
    graph, skeleton = packed_build(net, compile_packed(net, reduction),
                                   max_states=max_states,
                                   structure=structure, reduction=reduction)
    store.put_structure(structure, skeleton, kind=kind)
    return graph, skeleton


# ----------------------------------------------------------------------
# the sweep solver and grid entry point
# ----------------------------------------------------------------------

@dataclass
class SweepStats:
    """Per-stage accounting of a sweep (seconds and point counts)."""

    build_s: float = 0.0        # reachability builds
    retime_s: float = 0.0       # skeleton replays
    solve_s: float = 0.0        # stationary solves
    skeleton_builds: int = 0
    points_retimed: int = 0
    payload_hits: int = 0
    mismatches: int = 0         # replays invalidated by a timing change

    def as_dict(self) -> dict:
        return asdict(self)


class SweepSolver:
    """Analyze a stream of nets, sharing structure work across them.

    Keeps its own skeleton table (so structure sharing works even with
    the global cache disabled — a cold sweep is still one build plus
    N-1 replays) and optionally rides an :class:`AnalysisCache` for
    payload hits and cross-process skeleton sharing.  Results are
    bit-identical to per-point :func:`repro.gtpn.analyze`.
    """

    def __init__(self, *, method: str = "auto",
                 max_states: int = DEFAULT_MAX_STATES,
                 cache: Any = _USE_GLOBAL,
                 reduction: str | None = None):
        from repro import config
        from repro.gtpn import analysis as _analysis
        self._analysis = _analysis
        self.method = method
        self.max_states = max_states
        self.reduction = config.reduction() if reduction is None \
            else config.normalize_reduction(reduction)
        if cache is _USE_GLOBAL:
            cache = get_cache() if cache_enabled() else None
        self.cache = cache
        #: structure fingerprint -> skeleton (of this solver's reduction)
        self._skeletons: dict[str, Any] = {}
        self.stats = SweepStats()

    def analyze(self, net: Net):
        """Solve one net; identical contract to ``repro.gtpn.analyze``."""
        fingerprint = fingerprint_net(net)
        key = (fingerprint.structure, fingerprint.timing, self.method,
               self.reduction)
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                net.validate()
                self.stats.payload_hits += 1
                return self._analysis._rebind(net, payload)
        graph, skeleton = self._graph_for(net, fingerprint.structure)
        result = self._solve(net, graph, skeleton)
        if self.cache is not None:
            self.cache.put(key, self._analysis._payload(result))
        return result

    def retime_pairs(self, result, means: Mapping[str, float]):
        """Re-solve *result* with activity pairs re-timed to new means.

        *means* maps the name of each
        :func:`~repro.gtpn.approximations.activity_pair` of
        ``result.net`` to re-time to its new mean.  The pairs' exit and
        loop entries of the frequency vector are overwritten and the
        skeleton of *result*'s structure (this solver's, or the cache's
        structure tier) is re-timed under it: no net is built,
        validated or fingerprinted, and the payload cache is not
        consulted.  The returned result's net is a shallow copy of
        ``result.net`` carrying the new frequencies, and its values are
        bit-identical to :meth:`analyze` of a net freshly built at the
        same means.

        A mean that changes which frequencies are zero (a mean of
        exactly one tick) cannot be replayed and falls back to an
        ordinary build.  An unknown pair name raises
        :class:`~repro.errors.ModelError`.  A pair built at one tick
        has no loop transition, so re-timing it to a longer mean raises
        :class:`SkeletonMismatch`: the caller must rebuild its net.
        """
        net, freqs = _retimed_net(result.net, means)
        # re-timing keeps the structure; a graph not built under a
        # structure key gets one the ordinary way
        structure = result.graph.structure \
            or fingerprint_net(net).structure
        graph, skeleton = self._graph_for(net, structure, freqs)
        return self._solve(net, graph, skeleton)

    def _solve(self, net: Net, graph: ReachabilityGraph,
               skeleton: PackedSkeleton):
        started = perf_now()
        with obs.span("gtpn.solve", states=graph.state_count,
                      order=graph.quotient_order):
            pi = self._analysis.stationary_distribution(
                graph, method=self.method,
                closed_classes=skeleton.closed_class_count(),
                plan=skeleton.solve_plan())
        self.stats.solve_s += perf_now() - started
        return self._analysis.AnalysisResult(net=net, graph=graph, pi=pi)

    def _graph_for(self, net: Net, structure: str,
                   freqs: np.ndarray | None = None,
                   ) -> tuple[ReachabilityGraph, PackedSkeleton]:
        """Re-time the structure's skeleton under *net*, else build.

        ``freqs`` marks *net* as a frequency-only variant of a
        validated net of this structure (see :func:`packed_retime`).
        """
        skeleton = self._skeletons.get(structure)
        if skeleton is None and self.cache is not None:
            skeleton = self.cache.get_structure(
                structure, kind=f"packed:{self.reduction}")
        if skeleton is not None:
            try:
                graph = self._retime(skeleton, net, freqs)
                self._skeletons[structure] = skeleton
                return graph, skeleton
            except SkeletonMismatch:
                self.stats.mismatches += 1
        return self._build(net, structure)

    def _retime(self, skeleton: PackedSkeleton, net: Net,
                freqs: np.ndarray | None) -> ReachabilityGraph:
        started = perf_now()
        with obs.span("gtpn.retime"):
            graph = packed_retime(skeleton, net,
                                  max_states=self.max_states, freqs=freqs)
        self.stats.retime_s += perf_now() - started
        self.stats.points_retimed += 1
        return graph

    def _build(self, net: Net, structure: str,
               ) -> tuple[ReachabilityGraph, PackedSkeleton]:
        started = perf_now()
        with obs.span("gtpn.build"):
            graph, skeleton = packed_build(
                net, compile_packed(net, self.reduction),
                max_states=self.max_states, structure=structure,
                reduction=self.reduction)
        self.stats.build_s += perf_now() - started
        self.stats.skeleton_builds += 1
        self._skeletons[structure] = skeleton
        if self.cache is not None:
            self.cache.put_structure(structure, skeleton,
                                     kind=f"packed:{self.reduction}")
        return graph, skeleton


def _retimed_net(net: Net, means: Mapping[str, float],
                 ) -> tuple[Net, np.ndarray]:
    """Shallow copy of *net* with the named activity pairs re-timed.

    Returns the copy and its frequency vector.  Only the re-timed
    transitions are new objects; places, arcs, gates and the derived
    conflict classes are shared with *net*, whose structure is
    unchanged.
    """
    transitions = list(net.transitions)
    freqs = np.array([float(t.frequency) for t in transitions])
    for name, mean in means.items():
        exit_t = net.get_transition(name)       # ModelError if unknown
        if exit_t.delay != 1:
            raise ModelError(f"transition {name!r} of net {net.name!r} "
                             "is not an activity pair")
        loop_name = f"{name}.loop"
        pair = (exit_t, net.get_transition(loop_name)) \
            if net.has_transition(loop_name) else (exit_t,)
        frequencies = pair_frequencies(mean)
        if len(pair) == 1 and frequencies[1] > 0.0:
            raise SkeletonMismatch(f"pair {name!r} was built at one tick "
                                   "and has no loop transition")
        for t, frequency, label in zip(pair, frequencies,
                                       _pair_labels(mean, exit_t.gate)):
            transitions[t.index] = replace(t, frequency=frequency,
                                           frequency_label=label)
            freqs[t.index] = frequency
    retimed = copy.copy(net)
    retimed.transitions = transitions
    retimed._transition_by_name = {t.name: t for t in transitions}
    return retimed, freqs


#: per-worker-process solvers, keyed by (method, max_states,
#: reduction): skeleton reuse persists across the chunks a pooled
#: worker executes.
_WORKER_SOLVERS: dict = {}


def _worker_solver(method: str, max_states: int,
                   reduction: str = "none") -> SweepSolver:
    solver = _WORKER_SOLVERS.get((method, max_states, reduction))
    if solver is None:
        solver = SweepSolver(method=method, max_states=max_states,
                             reduction=reduction)
        _WORKER_SOLVERS[(method, max_states, reduction)] = solver
    return solver


def _sweep_task(build: Callable, point, star: bool, method: str,
                max_states: int, reduction: str = "none") -> dict:
    """One pooled grid point: build, solve, return the unbound payload.

    Runs in a worker process; results do not pickle (net
    back-references), so the worker ships the same net-free payload
    the analysis cache stores and the parent re-binds it.
    """
    net = build(*point) if star else build(point)
    result = _worker_solver(method, max_states, reduction).analyze(net)
    from repro.gtpn.analysis import _payload
    return _payload(result)


def sweep_analyze(build, grid: Iterable | None = None, *,
                  star: bool = True, method: str = "auto",
                  max_states: int = DEFAULT_MAX_STATES,
                  jobs: int | None = None, cache: Any = _USE_GLOBAL,
                  solver: SweepSolver | None = None,
                  oversubscribe: bool = False,
                  reduction: str | None = None) -> list:
    """Analyze a parameter grid, building each structure once.

    Two call shapes::

        sweep_analyze(nets)                  # iterable of built Nets
        sweep_analyze(build_fn, grid)        # builder + grid points

    With a builder, each grid point is ``build_fn(*point)`` (or
    ``build_fn(point)`` when ``star=False``) and the sweep may fan out
    over worker processes (``jobs`` / ``REPRO_JOBS``, subject to the
    pool's serial-fallback policy); workers return net-free payloads
    that are re-bound to parent-built nets, so results — and therefore
    figure and table values — are bit-identical to a serial run and to
    per-point :func:`repro.gtpn.analyze`.

    Pass ``solver`` to reuse a :class:`SweepSolver` (and read its
    per-stage stats afterwards); otherwise one is created with
    ``cache`` (default: the global analysis cache when enabled).
    """
    if solver is None:
        solver = SweepSolver(method=method, max_states=max_states,
                             cache=cache, reduction=reduction)
    if grid is None:
        return [solver.analyze(net) for net in build]
    points = list(grid)
    if not points:
        return []

    from repro.perf.backends import map_sweep, plan_jobs
    n_jobs, _reason = plan_jobs(len(points), jobs=jobs,
                                oversubscribe=oversubscribe)
    if n_jobs > 1:
        payloads = map_sweep(
            _sweep_task,
            [(build, point, star, method, max_states, solver.reduction)
             for point in points],
            jobs=jobs, star=True, oversubscribe=oversubscribe)
        results = []
        for point, payload in zip(points, payloads):
            net = build(*point) if star else build(point)
            net.validate()
            results.append(solver._analysis._rebind(net, payload))
        return results
    nets = (build(*point) if star else build(point) for point in points)
    return [solver.analyze(net) for net in nets]
