"""Exact GTPN analysis: resource usage and firing rates.

This is the Python counterpart of the GTPN analyzer used in chapter 6:
it builds the reachable states, solves the embedded Markov process and
returns exact steady-state estimates of resource usage.

The two output measures are:

* ``resource_usage(name)`` — the mean number of concurrent in-flight
  firings of transitions tagged with resource *name* ("the mean number
  of usages (over time) of each resource in steady state").  For a
  delay-1 transition this equals its firing rate per tick, which is how
  the models read off message throughput (resource ``lambda``).
* ``firing_rate(transition)`` — expected firing starts per tick, which
  is defined for immediate transitions as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import obs
from repro.gtpn.markov import stationary_distribution
from repro.gtpn.net import Net
from repro.gtpn.reachability import (DEFAULT_MAX_STATES, ReachabilityGraph,
                                     build_reachability_graph)
from repro.perf.cache import (AnalysisCache, cache_enabled,
                              fingerprint_net, get_cache)


@dataclass
class AnalysisResult:
    """Steady-state estimates for one GTPN."""

    net: Net
    graph: ReachabilityGraph
    pi: np.ndarray

    @property
    def state_count(self) -> int:
        return self.graph.state_count

    @cached_property
    def _mean_inflight(self) -> np.ndarray:
        """Per-transition mean number of concurrent in-flight firings.

        One vector product (deterministic per build, and both build and
        retime go through it, so sweep bit-identity holds); lumped
        graphs then average each declared transition orbit, which
        recovers the exact per-member value because canonicalization
        only permutes members within a state.
        """
        return self._fold_orbits(self.pi @ self.graph.inflight_matrix,
                                 places=False)

    @cached_property
    def _mean_starts(self) -> np.ndarray:
        """Per-transition expected firing starts per tick."""
        return self._fold_orbits(self.pi @ self.graph.starts_matrix,
                                 places=False)

    def _fold_orbits(self, vec: np.ndarray, *, places: bool) -> np.ndarray:
        """Average *vec* over each symmetry orbit of a lumped graph.

        Lumping preserves orbit sums exactly but scrambles which member
        carries which share; the members are interchangeable, so the
        orbit mean is each member's exact steady-state value.
        """
        info = self.graph.reduction
        if info is None or not info.lumped:
            return vec
        orbits = info.place_orbits if places else info.transition_orbits
        out = vec.copy()
        for orbit in orbits:
            total = 0.0
            for idx in orbit:
                total += vec[idx]
            out[list(orbit)] = total / len(orbit)
        return out

    def resource_usage(self, resource: str) -> float:
        """Mean steady-state usage of *resource* (see module docstring)."""
        usage = 0.0
        for t in self.net.transitions:
            if resource in t.all_resources:
                usage += self._mean_inflight[t.index]
                if t.immediate:
                    # immediate firings take zero time; count their rate
                    usage += self._mean_starts[t.index]
        return float(usage)

    def firing_rate(self, transition: str) -> float:
        """Expected firing starts of *transition* per tick."""
        return float(self._mean_starts[self.net.transition_index(transition)])

    @cached_property
    def _mean_marking(self) -> np.ndarray:
        """Per-place mean token count."""
        n_places = self.graph.packed_layout.n_places
        marking = self.graph.packed_table[:, :n_places].astype(float)
        return self._fold_orbits(self.pi @ marking, places=True)

    def mean_tokens(self, place: str) -> float:
        """Steady-state mean number of tokens in *place*."""
        return float(self._mean_marking[self.net.place_index(place)])

    def throughput(self, resource: str = "lambda") -> float:
        """Alias for :meth:`resource_usage` on the conventional name."""
        return self.resource_usage(resource)

    def busy_fraction(self, place: str) -> float:
        """Steady-state busy fraction of the resource pool *place*.

        The architecture nets model a processor as a place whose
        initial tokens are its servers; an activity holding the place
        removes the token for its whole duration, so the mean token
        deficit over the initial population is exactly the processor's
        utilization — directly comparable to the kernel simulator's
        per-processor busy fractions.
        """
        from repro.errors import AnalysisError
        index = self.net.place_index(place)
        tokens = self.net.places[index].initial_tokens
        if tokens <= 0:
            raise AnalysisError(
                f"place {place!r} holds no initial tokens; busy "
                "fraction is only defined for resource pools")
        return 1.0 - self.mean_tokens(place) / tokens


def analyze(net: Net, *, method: str = "auto",
            max_states: int = DEFAULT_MAX_STATES,
            cache: AnalysisCache | None = None,
            reduction: str | None = None) -> AnalysisResult:
    """Build the reachability graph of *net* and solve it exactly.

    Solves are memoized through the content-addressed analysis cache
    (:mod:`repro.perf.cache`) under the split ``(structure, timing,
    method, reduction)`` key: a full hit returns the stored graph and
    stationary vector re-bound to *net*, skipping both state-space
    exploration and the Markov solve, while a structure-only hit
    re-times the cached reachability skeleton (:mod:`repro.gtpn.sweep`)
    and re-solves just the linear system — bit-identical to a
    from-scratch build.  Pass ``cache`` to use a private store; the
    global cache honours ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` and
    the CLI flags.  Cached payloads are shared — treat results as
    read-only.

    ``reduction`` selects opt-in state-space reduction (``"lump"``,
    ``"elim"``, ``"lump+elim"``); ``None`` resolves the configured mode
    (CLI ``--reduction`` > ``REPRO_REDUCTION`` > ``"none"``).
    """
    from repro import config
    if reduction is None:
        reduction = config.reduction()
    else:
        reduction = config.normalize_reduction(reduction)
    with obs.span("gtpn.analyze", net=net.name, method=method) as root:
        store = cache if cache is not None else (
            get_cache() if cache_enabled() else None)
        closed = plan = None
        if store is not None:
            fingerprint = fingerprint_net(net)
            key = (fingerprint.structure, fingerprint.timing, method,
                   reduction)
            payload = store.get(key)
            if payload is not None:
                net.validate()      # keep error behaviour of a solve
                root.set(outcome="cache-hit")
                return _rebind(net, payload)
            # share the reachability build across every net with this
            # structure (sweeps re-time the cached skeleton; a timing
            # change that alters branch resolution rebuilds)
            from repro.gtpn.sweep import acquire_graph
            with obs.span("gtpn.build"):
                graph, skeleton = acquire_graph(net, fingerprint.structure,
                                                max_states, store,
                                                reduction=reduction)
            closed = skeleton.closed_class_count()
            plan = skeleton.solve_plan()
        else:
            with obs.span("gtpn.build"):
                graph = build_reachability_graph(net,
                                                 max_states=max_states,
                                                 reduction=reduction)
        with obs.span("gtpn.solve", states=graph.state_count):
            pi = stationary_distribution(graph, method=method,
                                         closed_classes=closed, plan=plan)
        result = AnalysisResult(net=net, graph=graph, pi=pi)
        if store is not None:
            store.put(key, _payload(result))
        root.set(outcome="solved", states=graph.state_count)
        return result


def _payload(result: AnalysisResult) -> dict:
    """Cacheable view of a result: everything except the net binding.

    Names live only on the net, so a payload computed for one net
    re-binds cleanly to any net with the same fingerprint.
    """
    graph = result.graph
    return {
        "matrix": graph.matrix,
        "starts_matrix": graph.starts_matrix,
        "init_vec": graph.init_vec,
        "inflight_matrix": graph.inflight_matrix,
        "table": graph.packed_table,
        "layout": graph.packed_layout,
        "reduction": graph.reduction,
        "structure": graph.structure,
        "pi": result.pi,
    }


def _rebind(net: Net, payload: dict) -> AnalysisResult:
    graph = ReachabilityGraph(
        net=net,
        matrix=payload["matrix"],
        starts_matrix=payload["starts_matrix"],
        init_vec=payload["init_vec"],
        inflight_matrix=payload["inflight_matrix"],
        packed_table=payload["table"],
        packed_layout=payload["layout"],
        reduction=payload["reduction"],
        structure=payload.get("structure", ""))
    return AnalysisResult(net=net, graph=graph, pi=payload["pi"])
