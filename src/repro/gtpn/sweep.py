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
:class:`~repro.perf.cache.AnalysisCache`, keyed on the structure
fingerprint, or a private store a caller passes.  Entry points:

* :class:`SweepSolver` — the per-structure solver behind
  :func:`repro.gtpn.analyze`, with per-stage timing stats (build /
  re-time / solve) for the benchmarks;
  :meth:`SweepSolver.bind_pair` binds one of its results and one or
  more named activity pairs into a :class:`BoundPair`, whose
  :meth:`~BoundPair.solve` re-solves the result at the pairs' means of
  many points at once: it writes each point's pair entries into its
  own row of the result's frequency vector and re-times the result's
  own skeleton for all rows, without building or copying a net and
  without consulting the skeleton store.

A re-timed point costs one evaluation of ``P.data`` and one planned
solve over it; B points re-timed together share one re-time call and
one factorization, of the block-diagonal matrix of their B chains.
A graph's CSR matrix, expected starts and initial distribution are
built only if a reader asks for them.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro import obs
from repro.errors import ModelError
from repro.gtpn.analysis import AnalysisResult
from repro.gtpn.approximations import _pair_labels, pair_frequencies
from repro.gtpn.markov import SolvePlan, stationary_distribution
from repro.gtpn.net import Net
from repro.gtpn.packed import (PackedSkeleton, SkeletonMismatch,
                               packed_build, packed_retime)
from repro.gtpn.reachability import DEFAULT_MAX_STATES, ReachabilityGraph
from repro.obs.clock import perf_now
from repro.perf.cache import AnalysisCache, fingerprint_net, get_cache

__all__ = [
    "BoundPair", "SkeletonMismatch", "SweepSolver", "SweepStats", "retime",
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

    def __init__(self, *, max_states: int = DEFAULT_MAX_STATES,
                 cache: AnalysisCache | None = None):
        self.max_states = max_states
        self.cache = get_cache() if cache is None else cache
        self.stats = SweepStats()

    def solve(self, net: Net):
        """Solve one net; identical contract to ``repro.gtpn.analyze``."""
        graph, skeleton = self._graph_for(net,
                                          fingerprint_net(net).structure)
        (result,) = self._solve(net, [graph], skeleton.solve_plan(),
                                skeleton.closed_class_count())
        return result

    # perfbench's layer tracer wraps this name; ``repro.gtpn.analyze``
    # calls ``solve`` so that one solve counts as one analysis
    analyze = solve

    def bind_pair(self, result: AnalysisResult, *pairs: str) -> BoundPair:
        """Bind *result* and its activity pairs *pairs* for re-solving.

        Each of *pairs* names an
        :func:`~repro.gtpn.approximations.activity_pair` of
        ``result.net``; an unknown name or a transition that is not a
        pair's exit raises :class:`~repro.errors.ModelError`.  See
        :class:`BoundPair`.
        """
        return BoundPair(self, result, pairs)

    def _solve(self, net: Net, graphs: list[ReachabilityGraph],
               plan: SolvePlan, closed_classes: int,
               ) -> list[AnalysisResult]:
        """The results of *graphs*, chains of one skeleton, whose
        stationary solve is one factorization."""
        started = perf_now()
        with obs.span("gtpn.solve", states=graphs[0].state_count,
                      order=plan.k, points=len(graphs)):
            pis = stationary_distribution(
                *graphs, closed_classes=closed_classes, plan=plan)
        self.stats.solve_s += perf_now() - started
        return [AnalysisResult(net=net, graph=graph, pi=pi)
                for graph, pi in zip(graphs, pis)]

    def _graph_for(self, net: Net, structure: str,
                   ) -> tuple[ReachabilityGraph, PackedSkeleton]:
        """Re-time the structure's skeleton under *net*, else build."""
        skeleton = self.cache.get(structure)
        if skeleton is not None:
            try:
                (graph,) = self._retime(skeleton, net)
                return graph, skeleton
            except SkeletonMismatch:
                self.stats.mismatches += 1
        return self._build(net, structure)

    def _retime(self, skeleton: PackedSkeleton, net: Net,
                freqs: np.ndarray | None = None,
                ) -> list[ReachabilityGraph]:
        """``freqs`` marks its rows as the frequencies of
        frequency-only variants of *net*, a validated net of this
        structure (see :func:`packed_retime`)."""
        started = perf_now()
        with obs.span("gtpn.retime",
                      points=1 if freqs is None else len(freqs)):
            graphs = packed_retime(skeleton, net,
                                   max_states=self.max_states, freqs=freqs)
        self.stats.retime_s += perf_now() - started
        self.stats.points_retimed += len(graphs)
        return graphs

    def _build(self, net: Net, structure: str,
               ) -> tuple[ReachabilityGraph, PackedSkeleton]:
        started = perf_now()
        with obs.span("gtpn.build"):
            graph, skeleton = packed_build(
                net, max_states=self.max_states, structure=structure)
        self.stats.build_s += perf_now() - started
        self.stats.skeleton_builds += 1
        self.cache.put(structure, skeleton)
        return graph, skeleton


class BoundPair:
    """Activity pairs of a solved result, bound for re-solving.

    Binding resolves once what every re-solve of the pairs reuses: the
    skeleton the result was evaluated on, its solve plan and closed
    class count, each pair's exit and loop transition indices, and the
    frequency vector the result was evaluated at.  :meth:`solve` takes
    the means of B points, one column per bound pair, and re-solves
    all B in lockstep: it writes each point's pair entries into one row
    of a (B, n_transitions) copy of that vector, re-times the skeleton
    for every row in one :func:`packed_retime` call and solves the B
    graphs with one :func:`stationary_distribution`, whose
    factorization serves all B chains.  No net is built, copied,
    validated or fingerprinted and the skeleton store is not
    consulted.  Each result is bit-identical to
    :meth:`SweepSolver.analyze` of a net freshly built at its means.

    A result :meth:`solve` returns carries the bound net, whose
    structure, tags and places are the re-timed net's but whose pair
    frequencies are the bound result's; every measure of
    :class:`~repro.gtpn.analysis.AnalysisResult` reads only those.
    :meth:`retimed` gives a result the net it was solved at.
    """

    def __init__(self, solver: SweepSolver, result: AnalysisResult,
                 pairs: tuple[str, ...]):
        net = result.net
        self._pairs = []                # (exit, loop or None) per pair
        for pair in pairs:
            exit_t = net.get_transition(pair)   # ModelError if unknown
            if exit_t.delay != 1:
                raise ModelError(f"transition {pair!r} of net "
                                 f"{net.name!r} is not an activity pair")
            loop_name = f"{pair}.loop"
            self._pairs.append((exit_t.index,
                                net.get_transition(loop_name).index
                                if net.has_transition(loop_name) else None))
        self.pairs = tuple(pairs)
        self._solver = solver
        self._result = result
        self._net = net
        self._freqs = result.graph.freqs
        self._skeleton = result.graph.skeleton
        self._plan = self._skeleton.solve_plan()
        self._closed = self._skeleton.closed_class_count()

    def _means(self, means) -> np.ndarray:
        """*means* as a (points, pairs) array."""
        return np.asarray(means, dtype=float).reshape(-1, len(self.pairs))

    def solve(self, means) -> list[AnalysisResult]:
        """Re-solve the bound result at each row of *means*.

        *means* holds one mean per bound pair for each point (a flat
        sequence when one pair is bound); the results come back in its
        order.  A pair built at one tick has no loop transition, so
        re-timing it to a longer mean raises :class:`SkeletonMismatch`:
        the caller must rebuild its net.  A mean of exactly one tick
        zeroes a loop frequency, which the skeleton cannot replay: the
        solver builds that point's re-timed net alone instead (a
        counted mismatch), and the bound skeleton serves the other
        points and later means.
        """
        means = self._means(means)
        freqs = np.empty((len(means), len(self._freqs)))
        freqs[:] = self._freqs
        loopless = []                   # rows with a zero loop frequency
        for row, (row_freqs, row_means) in enumerate(zip(freqs,
                                                          means.tolist())):
            zero_loop = False
            for (exit_i, loop_i), mean, pair in zip(self._pairs, row_means,
                                                    self.pairs):
                exit_f, loop_f = pair_frequencies(mean)
                if loop_i is None:
                    if loop_f > 0.0:
                        raise SkeletonMismatch(
                            f"pair {pair!r} was built at one tick and has "
                            "no loop transition")
                else:
                    row_freqs[loop_i] = loop_f
                    zero_loop = zero_loop or loop_f == 0.0
                row_freqs[exit_i] = exit_f
            if zero_loop:
                loopless.append(row)
        solver = self._solver
        replay = np.delete(freqs, loopless, axis=0) if loopless else freqs
        results = solver._solve(
            self._net, solver._retime(self._skeleton, self._net, replay),
            self._plan, self._closed) if len(replay) else []
        for row in loopless:            # ascending: each lands at its row
            results.insert(row, self._rebuilt(means[row], freqs[[row]]))
        return results

    def _rebuilt(self, means: np.ndarray,
                 freqs: np.ndarray) -> AnalysisResult:
        """The result at *means*, one per bound pair, whose frequency
        row *freqs* the skeleton cannot replay (a counted mismatch):
        solved from its re-timed net, built alone."""
        solver = self._solver
        try:
            solver._retime(self._skeleton, self._net, freqs)
        except SkeletonMismatch:
            solver.stats.mismatches += 1
        net = self._net_at(means)
        graph, skeleton = solver._build(
            net, self._skeleton.structure or fingerprint_net(net).structure)
        (result,) = solver._solve(net, [graph], skeleton.solve_plan(),
                                  skeleton.closed_class_count())
        return result

    def _net_at(self, means: np.ndarray) -> Net:
        """Shallow copy of the bound net with the pairs re-timed to
        *means*, one per bound pair.

        Only the pairs' transitions are new objects; places, arcs,
        gates, the other transitions and the derived conflict classes
        and resource terms are shared with the bound net, whose
        structure is unchanged.  Its fingerprint and frequency labels
        are those of a net freshly built at *means* (a loop-less pair
        only ever takes a mean of one tick, see :meth:`solve`).
        """
        net = self._net
        transitions = list(net.transitions)
        by_name = dict(net._transition_by_name)
        for (exit_i, loop_i), mean in zip(self._pairs, means.tolist()):
            indices = (exit_i,) if loop_i is None else (exit_i, loop_i)
            labels = _pair_labels(mean, transitions[exit_i].gate)
            for index, frequency, label in zip(
                    indices, pair_frequencies(mean), labels):
                t = replace(transitions[index], frequency=frequency,
                            frequency_label=label)
                transitions[index] = by_name[t.name] = t
        retimed = copy.copy(net)
        retimed.transitions = transitions
        retimed._transition_by_name = by_name
        return retimed

    def retimed(self, result: AnalysisResult, means) -> AnalysisResult:
        """*result*, a :meth:`solve` at *means* (one per bound pair),
        with the net it was solved at: the re-timed net is built here,
        once, for the result a caller keeps.  A result that already
        carries its own net (the bound one, or a build) is returned as
        it is."""
        if result is self._result or result.net is not self._net:
            return result
        net = self._net_at(self._means([means])[0])
        result.graph.net = net
        return replace(result, net=net)
