"""Monte Carlo simulation of a GTPN.

Runs the tick semantics of :mod:`repro.gtpn.state` but samples one
branch per choice.  Used to cross-validate the analyzer on small nets
and to handle models whose state space is too large for exact solution.

:func:`simulate_with_confidence` adds the standard batch-means output
analysis: the measurement horizon splits into batches whose means give
a Student-t confidence interval for the throughput.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import AnalysisError
from repro.gtpn.net import Net
from repro.gtpn.state import MAX_IMMEDIATE_ROUNDS
from repro.seeding import resolve_seed

#: two-sided Student-t 97.5% quantiles for df = 1..30 (95% CIs).
_T_975 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
          2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
          2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
          2.060, 2.056, 2.052, 2.048, 2.045, 2.042)


@dataclass
class SimulationResult:
    """Time-averaged measurements over the simulated horizon."""

    net: Net
    ticks: int
    warmup: int
    _inflight_time: dict[int, float] = field(default_factory=dict)
    _starts: dict[int, int] = field(default_factory=dict)
    _place_time: dict[int, float] = field(default_factory=dict)

    def resource_usage(self, resource: str) -> float:
        """Mean concurrent usage of *resource* over the measured ticks."""
        usage = 0.0
        for t in self.net.transitions:
            if resource in t.all_resources:
                usage += self._inflight_time.get(t.index, 0.0)
                if t.immediate:
                    usage += self._starts.get(t.index, 0)
        return usage / self.ticks

    def firing_rate(self, transition: str) -> float:
        index = self.net.transition_index(transition)
        return self._starts.get(index, 0) / self.ticks

    def mean_tokens(self, place: str) -> float:
        index = self.net.place_index(place)
        return self._place_time.get(index, 0.0) / self.ticks

    def throughput(self, resource: str = "lambda") -> float:
        return self.resource_usage(resource)


@dataclass
class ConfidenceResult:
    """Batch-means estimate of a resource's usage."""

    resource: str
    mean: float
    half_width: float          # 95% confidence half-width
    batch_means: list[float]

    @property
    def interval(self) -> tuple[float, float]:
        return self.mean - self.half_width, self.mean + self.half_width

    def contains(self, value: float) -> bool:
        low, high = self.interval
        return low <= value <= high


class _Sampler:
    """One seeded sampling run of a net, one tick at a time.

    The post-decision state is flat and changes in place: ``marking``
    holds the tokens per place, ``inflight`` the ``[transition,
    remaining_ticks]`` pairs in no particular order, and ``starts`` the
    firings started per transition since the initial settle.  Each
    settle round takes one draw per conflict class with an enabled
    member, in class order: ``random() * cum[-1]`` plus ``bisect`` over
    the cumulative normalised frequencies of the enabled members.  That
    is the draw order and arithmetic of the retired ``TickEngine`` under
    its ``SamplingResolver`` (the oracle in ``tests/gtpn/conftest.py``),
    so a seed gives the same stream.
    """

    def __init__(self, net: Net, seed: int | None):
        net.validate()
        self._name = net.name
        self._rng = random.Random(resolve_seed(seed))
        self._freq = [float(t.frequency) for t in net.transitions]
        # a member of zero frequency is never enabled
        self._classes = [members for members in (
            tuple(t for t in cls if self._freq[t] > 0)
            for cls in net.conflict_classes()) if members]
        self._in_arcs = [tuple(t.inputs.items()) for t in net.transitions]
        self._out_arcs = [tuple(t.outputs.items())
                          for t in net.transitions]
        self._delay = [int(t.delay) for t in net.transitions]
        self._gates = [net.gate_indices(t) if t.gate is not None else None
                       for t in net.transitions]
        #: enabled members of a class -> their cumulative weights
        self._cum: dict[tuple[int, ...], list[float]] = {}
        self.marking = list(net.initial_marking)
        self.inflight: list[list[int]] = []
        self.starts = [0] * len(net.transitions)
        self._settle()

    def tick(self) -> None:
        """Advance every in-flight firing one tick, then settle."""
        marking, out_arcs = self.marking, self._out_arcs
        still = []
        for entry in self.inflight:
            if entry[1] > 1:
                entry[1] -= 1
                still.append(entry)
            else:
                for p, n in out_arcs[entry[0]]:
                    marking[p] += n
        self.inflight = still
        self._settle()

    def _settle(self) -> None:
        marking, inflight, starts = self.marking, self.inflight, self.starts
        for _round in range(MAX_IMMEDIATE_ROUNDS):
            chosen = self._draw()
            if not chosen:
                return
            for t_idx in chosen:
                for p, n in self._in_arcs[t_idx]:
                    marking[p] -= n
                delay = self._delay[t_idx]
                if delay:
                    inflight.append([t_idx, delay])
                else:
                    # immediate: outputs deposit within the tick
                    for p, n in self._out_arcs[t_idx]:
                        marking[p] += n
                starts[t_idx] += 1
        raise AnalysisError(
            f"net {self._name!r}: settle rounds did not reach "
            f"quiescence in {MAX_IMMEDIATE_ROUNDS} rounds "
            "(unbounded zero-time loop?)")

    def _draw(self) -> list[int]:
        """One settle round's choices, one per class that can select.

        Every class reads the marking as the round starts; a gate also
        reads the in-flight list, firings started in earlier rounds of
        this tick included.
        """
        marking, in_arcs, gates = self.marking, self._in_arcs, self._gates
        chosen = []
        busy = None
        for cls in self._classes:
            enabled = []
            for t_idx in cls:
                for p, n in in_arcs[t_idx]:
                    if marking[p] < n:
                        break
                else:
                    gate = gates[t_idx]
                    if gate is not None:
                        if busy is None:
                            busy = {t for t, _remaining in self.inflight}
                        places, fired = gate
                        if any(marking[p] for p in places) \
                                or any(u in busy for u in fired):
                            continue
                    enabled.append(t_idx)
            if not enabled:
                continue
            key = tuple(enabled)
            cum = self._cum.get(key)
            if cum is None:
                total = sum(self._freq[t] for t in key)
                cum = self._cum[key] = list(
                    accumulate(self._freq[t] / total for t in key))
            chosen.append(key[bisect(cum, self._rng.random() * cum[-1],
                                     0, len(cum) - 1)])
        return chosen


def simulate_with_confidence(net: Net, *, resource: str = "lambda",
                             batches: int = 10, batch_ticks: int = 20_000,
                             warmup: int = 5_000,
                             seed: int | None = None) -> ConfidenceResult:
    """Batch-means 95% confidence interval for a resource usage.

    Runs ``batches`` consecutive batches of ``batch_ticks`` after the
    warmup; each batch's time-average usage is one observation.
    """
    if batches < 2:
        raise AnalysisError("need at least two batches")
    if not 1 <= batches - 1 <= len(_T_975):
        raise AnalysisError(f"at most {len(_T_975) + 1} batches")
    if batch_ticks <= 0:
        raise AnalysisError(
            f"batch_ticks must be positive, got {batch_ticks}")
    if warmup < 0:
        raise AnalysisError(f"warmup must be >= 0, got {warmup}")
    sampler = _Sampler(net, seed)
    interesting = {t.index for t in net.transitions
                   if resource in t.all_resources}
    if not interesting:
        raise AnalysisError(f"no transition carries resource "
                            f"{resource!r}")
    immediates = [t.index for t in net.transitions
                  if resource in t.all_resources and t.immediate]

    def batch_mean() -> float:
        starts = sampler.starts
        usage = -sum(starts[t_idx] for t_idx in immediates)
        for _ in range(batch_ticks):
            for t_idx, _remaining in sampler.inflight:
                if t_idx in interesting:
                    usage += 1
            sampler.tick()
        usage += sum(starts[t_idx] for t_idx in immediates)
        return usage / batch_ticks

    for _ in range(warmup):
        sampler.tick()
    batch_means = [batch_mean() for _ in range(batches)]
    mean = sum(batch_means) / batches
    variance = sum((b - mean) ** 2 for b in batch_means) / (batches - 1)
    half_width = _T_975[batches - 2] * math.sqrt(variance / batches)
    return ConfidenceResult(resource=resource, mean=mean,
                            half_width=half_width,
                            batch_means=batch_means)


def simulate(net: Net, *, ticks: int, warmup: int = 0,
             seed: int | None = None) -> SimulationResult:
    """Simulate *net* for ``warmup + ticks`` ticks; measure the tail."""
    if ticks <= 0:
        raise AnalysisError("ticks must be positive")
    if warmup < 0:
        raise AnalysisError(f"warmup must be >= 0, got {warmup}")
    sampler = _Sampler(net, seed)
    for _ in range(warmup):
        sampler.tick()
    starts_before = list(sampler.starts)
    inflight_time = [0] * len(net.transitions)
    place_time = [0] * len(net.places)
    for _ in range(ticks):
        for t_idx, _remaining in sampler.inflight:
            inflight_time[t_idx] += 1
        for p_idx, count in enumerate(sampler.marking):
            place_time[p_idx] += count
        sampler.tick()
    return SimulationResult(
        net=net, ticks=ticks, warmup=warmup,
        _inflight_time={t_idx: float(total)
                        for t_idx, total in enumerate(inflight_time)
                        if total},
        _starts={t_idx: after - before for t_idx, (after, before)
                 in enumerate(zip(sampler.starts, starts_before))
                 if after != before},
        _place_time={p_idx: float(total)
                     for p_idx, total in enumerate(place_time) if total})
