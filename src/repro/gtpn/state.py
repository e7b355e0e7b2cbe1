"""GTPN execution semantics: states, ticks, and probabilistic branching.

A *state* is a post-decision snapshot of the net taken just after new
firings have been chosen for a tick:

* ``marking`` — tokens remaining in each place (inputs of in-flight
  firings already removed),
* ``inflight`` — a multiset of ``(transition, remaining_ticks)`` pairs
  for firings in progress.

One tick proceeds in two phases (DESIGN.md, "Firing semantics"):

1. **advance** — every in-flight firing counts down one tick; firings
   reaching zero deposit their output tokens.
2. **settle rounds** — repeatedly, every conflict class with enabled
   transitions (of positive frequency and open gate, see
   :class:`~repro.gtpn.net.Gate`) selects one, with probability
   proportional to its frequency.  A selected *immediate* (delay-0)
   transition fires instantly, depositing its outputs within the same
   tick; a selected *timed* transition starts firing and goes in
   flight.  Rounds repeat until no class can select.

   Immediate and timed transitions resolve their conflicts *together*
   by frequency — the thesis's nets rely on this, e.g. the completion
   choice of the contention model (Table 6.3) pits a delay-0
   "continue" against a delay-1 "complete" with frequencies
   ``1 - 1/b`` and ``1/b``.  Repeating selection until exhaustion
   gives infinite-server behaviour when no resource place serializes a
   class (several clients independently waiting out a surrogate server
   delay) and processor sharing when one does (the single Host token
   of the architecture models).

The exact analyzer (:mod:`repro.gtpn.packed`) follows every branch of
these choices with its probability, over arrays; the Monte Carlo
simulator (:mod:`repro.gtpn.simulation`) samples one.  The retired
one-state-at-a-time ``TickEngine`` lives on as the test oracle of both
in ``tests/gtpn/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Safety cap on settle rounds within a single tick (guards unbounded
#: zero-time loops and runaway models).
MAX_IMMEDIATE_ROUNDS = 1000


@dataclass(frozen=True)
class State:
    """Canonical post-decision net state."""

    marking: tuple[int, ...]
    #: sorted tuple of (transition_index, remaining_ticks) with repeats
    #: for multiplicity.
    inflight: tuple[tuple[int, int], ...]

    def inflight_counts(self, n_transitions: int) -> list[int]:
        counts = [0] * n_transitions
        for t_idx, _remaining in self.inflight:
            counts[t_idx] += 1
        return counts
