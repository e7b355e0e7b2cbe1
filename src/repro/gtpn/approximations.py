"""Modeling helpers: geometric delays and queueing identities.

Section 6.6.1 of the thesis replaces large constant delays by
geometrically distributed delays with the same mean (Figure 6.7): a
constant delay of *m* ticks becomes a pair of conflicting delay-1
transitions, one "exit" with frequency ``1/m`` and one "loop" with
frequency ``1 - 1/m``.  The throughput of the surrounding net is
unchanged because the performance measure of interest is a mean.

This module provides that construction plus the Little's-law helpers
used by the iterative solution of the split non-local models
(section 6.6.3).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ModelError
from repro.gtpn.net import Gate, Net, Place, Transition


def geometric_frequency(mean: float) -> float:
    """Exit frequency of the geometric approximation of a *mean* delay."""
    if mean < 1.0:
        raise ModelError(f"mean delay must be >= 1 tick, got {mean!r}")
    return 1.0 / mean


def pair_frequencies(mean: float) -> tuple[float, float]:
    """``(exit, loop)`` frequencies of an activity pair of *mean* ticks.

    A loop frequency of zero (a mean of exactly one tick) means the
    pair has no loop transition.  :func:`activity_pair` and
    :class:`repro.gtpn.sweep.BoundPair` both time pairs through this
    function, so a re-timed pair carries bit for bit the floats a
    fresh build would.
    """
    p_exit = geometric_frequency(mean)
    return p_exit, 1.0 - p_exit


def _pair_labels(mean: float, gate: Gate | None) -> tuple[str, str]:
    labels = (f"1/{mean:g}", f"1 - 1/{mean:g}")
    if gate is None:
        return labels
    return gate.render(labels[0]), gate.render(labels[1])


def activity_pair(net: Net, name: str, mean_delay: float, *,
                  inputs: Iterable[Place] | Mapping[Place, int],
                  outputs: Iterable[Place] | Mapping[Place, int],
                  holds: Iterable[Place] = (),
                  resource: str | None = None,
                  occupancy: str | None = None,
                  gate: Gate | None = None,
                  ) -> tuple[Transition, Transition]:
    """Model an activity of geometric mean duration *mean_delay* ticks.

    Creates the thesis's standard two-transition pattern:

    * ``<name>`` — the *exit* transition, frequency ``1/mean_delay``,
      consuming ``inputs`` (+ ``holds``) and producing ``outputs``
      (+ ``holds``),
    * ``<name>.loop`` — the *loop* transition, frequency
      ``1 - 1/mean_delay``, consuming and reproducing ``inputs`` and
      ``holds`` unchanged.

    ``holds`` lists resource places (Host, MP, IoIn, ...) that the
    activity occupies for its whole duration and releases afterwards.
    ``gate`` optionally inhibits the whole pair (both act as frequency
    zero) while its :class:`~repro.gtpn.net.Gate` condition is closed —
    the thesis's inhibitor frequency expressions, declared as net
    structure.

    ``occupancy`` names an extra resource measuring the mean number of
    in-progress executions of this activity (exit + loop in-flight
    time), used for Little's-law population measurements in the split
    non-local models.

    A ``mean_delay`` of exactly 1 produces only the exit transition
    (the loop frequency would be zero).
    """
    p_exit, p_loop = pair_frequencies(mean_delay)
    holds = list(holds)
    in_arcs = _merge_arcs(inputs, holds)
    out_arcs = _merge_arcs(outputs, holds)
    extra = (occupancy,) if occupancy else ()
    exit_label, loop_label = _pair_labels(mean_delay, gate)

    exit_t = net.transition(name, delay=1, frequency=p_exit,
                            resource=resource, extra_resources=extra,
                            inputs=in_arcs, outputs=out_arcs,
                            frequency_label=exit_label, gate=gate)
    if p_loop <= 0.0:
        return exit_t, exit_t
    loop_t = net.transition(f"{name}.loop", delay=1,
                            frequency=p_loop, extra_resources=extra,
                            inputs=in_arcs, outputs=in_arcs,
                            frequency_label=loop_label, gate=gate)
    return exit_t, loop_t


def _merge_arcs(spec, holds: list[Place]) -> dict[Place, int]:
    arcs: dict[Place, int] = {}
    items = spec.items() if isinstance(spec, Mapping) else \
        [(p, 1) for p in spec]
    for p, n in items:
        arcs[p] = arcs.get(p, 0) + n
    for p in holds:
        arcs[p] = arcs.get(p, 0) + 1
    return arcs


def littles_law_population(arrival_rate: float, residence_time: float,
                           ) -> float:
    """N = lambda * T (Little's result, used for the server model)."""
    return arrival_rate * residence_time


def littles_law_residence(population: float, arrival_rate: float) -> float:
    """T = N / lambda (used to turn throughput into cycle time)."""
    if arrival_rate <= 0:
        raise ModelError("arrival rate must be positive")
    return population / arrival_rate
