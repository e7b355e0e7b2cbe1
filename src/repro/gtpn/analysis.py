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
from repro.gtpn.net import Net
from repro.gtpn.reachability import DEFAULT_MAX_STATES, ReachabilityGraph
from repro.perf.cache import AnalysisCache


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
        retime go through it, so sweep bit-identity holds).
        """
        return self.pi @ self.graph.inflight_matrix

    @cached_property
    def _mean_starts(self) -> np.ndarray:
        """Per-transition expected firing starts per tick."""
        return self.pi @ self.graph.starts_matrix

    def resource_usage(self, resource: str) -> float:
        """Mean steady-state usage of *resource* (see module docstring).

        Sums, in transition order, the in-flight mean of every
        transition tagged *resource* and, for an immediate one (zero
        time), its firing rate; the expected starts are read only when
        such a transition exists.
        """
        usage = 0.0
        for index, immediate in self.net.resource_terms(resource):
            usage += self._mean_inflight[index]
            if immediate:
                usage += self._mean_starts[index]
        return float(usage)

    def firing_rate(self, transition: str) -> float:
        """Expected firing starts of *transition* per tick."""
        return float(self._mean_starts[self.net.transition_index(transition)])

    @cached_property
    def _mean_marking(self) -> np.ndarray:
        """Per-place mean token count."""
        return self.pi @ self.graph.skeleton.marking_matrix()

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


def analyze(net: Net, *, max_states: int = DEFAULT_MAX_STATES,
            cache: AnalysisCache | None = None) -> AnalysisResult:
    """Build the reachability graph of *net* and solve it exactly.

    The graph comes through the skeleton store (:mod:`repro.perf.cache`)
    under the net's structure fingerprint: the first net of a
    structure builds it, and every later one re-times the held
    skeleton (:mod:`repro.gtpn.sweep`) and re-solves just the linear
    system — bit-identical to a from-scratch build.  Pass ``cache`` to
    use a private store instead of the process-wide one.
    """
    from repro.gtpn.sweep import SweepSolver
    with obs.span("gtpn.analyze", net=net.name) as root:
        result = SweepSolver(max_states=max_states,
                             cache=cache).solve(net)
        root.set(states=result.state_count)
        return result
