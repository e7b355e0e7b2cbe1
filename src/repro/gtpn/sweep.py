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

Every solve goes through one skeleton table: the process-wide
:class:`~repro.perf.cache.AnalysisCache`, keyed on ``(structure,
reduction)``, or a private store a caller passes.  Entry points:

* :class:`SweepSolver` — the per-structure solver behind
  :func:`repro.gtpn.analyze`, with per-stage timing stats (build /
  re-time / solve) for the benchmarks;
  :meth:`SweepSolver.retime_pairs` re-solves one of its results with
  named activity pairs re-timed, without building a net.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, replace
from typing import Mapping

import numpy as np

from repro import config, obs
from repro.errors import ModelError
from repro.gtpn.analysis import AnalysisResult
from repro.gtpn.approximations import _pair_labels, pair_frequencies
from repro.gtpn.markov import stationary_distribution
from repro.gtpn.net import Net
from repro.gtpn.packed import (PackedSkeleton, SkeletonMismatch,
                               compile_packed, packed_build, packed_retime)
from repro.gtpn.reachability import DEFAULT_MAX_STATES, ReachabilityGraph
from repro.obs.clock import perf_now
from repro.perf.cache import AnalysisCache, fingerprint_net, get_cache

__all__ = [
    "SkeletonMismatch", "SweepSolver", "SweepStats", "retime",
    "traced_build",
]

# perfbench's layer tracer resolves these names: aliases, not wrappers
traced_build = packed_build
retime = packed_retime


# ----------------------------------------------------------------------
# the sweep solver
# ----------------------------------------------------------------------

@dataclass
class SweepStats:
    """Per-stage accounting of a sweep (seconds and point counts)."""

    build_s: float = 0.0        # reachability builds
    retime_s: float = 0.0       # skeleton replays
    solve_s: float = 0.0        # stationary solves
    skeleton_builds: int = 0
    points_retimed: int = 0
    mismatches: int = 0         # replays invalidated by a timing change

    def as_dict(self) -> dict:
        return asdict(self)


class SweepSolver:
    """Analyze a stream of nets, sharing structure work across them.

    Skeletons live in *cache* (default: the process-wide store), so a
    cold sweep is one build per structure plus a replay per later
    point.  Results are bit-identical to a from-scratch build.
    """

    def __init__(self, *, method: str = "auto",
                 max_states: int = DEFAULT_MAX_STATES,
                 cache: AnalysisCache | None = None,
                 reduction: str | None = None):
        self.method = method
        self.max_states = max_states
        self.reduction = config.reduction() if reduction is None \
            else config.normalize_reduction(reduction)
        self.cache = get_cache() if cache is None else cache
        self.stats = SweepStats()

    def solve(self, net: Net):
        """Solve one net; identical contract to ``repro.gtpn.analyze``."""
        graph, skeleton = self._graph_for(net,
                                          fingerprint_net(net).structure)
        return self._solve(net, graph, skeleton)

    # perfbench's layer tracer wraps this name; ``repro.gtpn.analyze``
    # calls ``solve`` so that one solve counts as one analysis
    analyze = solve

    def retime_pairs(self, result, means: Mapping[str, float]):
        """Re-solve *result* with activity pairs re-timed to new means.

        *means* maps the name of each
        :func:`~repro.gtpn.approximations.activity_pair` of
        ``result.net`` to re-time to its new mean.  The pairs' exit and
        loop entries of the frequency vector are overwritten and the
        skeleton of *result*'s structure is re-timed under it: no net
        is built, validated or fingerprinted.  The returned result's net
        is a shallow copy of ``result.net`` carrying the new
        frequencies, and its values are bit-identical to :meth:`analyze`
        of a net freshly built at the same means.

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
            pi = stationary_distribution(
                graph, method=self.method,
                closed_classes=skeleton.closed_class_count(),
                plan=skeleton.solve_plan())
        self.stats.solve_s += perf_now() - started
        return AnalysisResult(net=net, graph=graph, pi=pi)

    def _graph_for(self, net: Net, structure: str,
                   freqs: np.ndarray | None = None,
                   ) -> tuple[ReachabilityGraph, PackedSkeleton]:
        """Re-time the structure's skeleton under *net*, else build.

        ``freqs`` marks *net* as a frequency-only variant of a
        validated net of this structure (see :func:`packed_retime`).
        """
        skeleton = self.cache.get(structure, self.reduction)
        if skeleton is not None:
            try:
                return self._retime(skeleton, net, freqs), skeleton
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
        self.cache.put(structure, self.reduction, skeleton)
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
