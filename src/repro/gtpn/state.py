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

This engine executes one state at a time and drives the Monte Carlo
simulator (sampling one branch per choice); under the exhaustive
:class:`Resolver` it follows every branch with its probability, which
is what the exact analyzer's batched engine (:mod:`repro.gtpn.packed`)
reproduces over arrays, bit for bit.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from repro.errors import AnalysisError
from repro.gtpn.net import Net

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


class Resolver:
    """Strategy deciding how probabilistic choices branch.

    ``choose`` receives weighted options and returns the branches to
    follow, each with the probability mass assigned to it.

    ``deterministic`` marks resolvers whose choices depend only on the
    options (not on hidden state such as an RNG); the engine memoizes
    tick successors only under deterministic resolvers.
    """

    deterministic = False

    def choose(self, options: Sequence[tuple[float, object]],
               ) -> list[tuple[float, object]]:
        raise NotImplementedError


class ExhaustiveResolver(Resolver):
    """Follow every branch with its exact probability (analyzer)."""

    deterministic = True

    def choose(self, options):
        return list(options)


class SamplingResolver(Resolver):
    """Sample a single branch (Monte Carlo simulator).

    Per-class cumulative weights are memoized across calls: the Monte
    Carlo inner loop revisits the same few weighted selections for the
    lifetime of a run, so the re-normalization that ``random.choices``
    performs on every call is paid once per distinct selection
    instead.  Sampling draws through the same ``random() * total``
    + bisect scheme as ``random.choices``, so seeded runs reproduce
    the exact pre-optimization streams.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        #: options-tuple -> (cum_weights, payloads)
        self._cum: dict[tuple, tuple[list[float], list]] = {}

    def choose(self, options):
        key = tuple(options)
        cached = self._cum.get(key)
        if cached is None:
            cum = list(accumulate(p for p, _payload in options))
            payloads = [payload for _p, payload in options]
            cached = self._cum[key] = (cum, payloads)
        cum, payloads = cached
        pick = bisect(cum, self._rng.random() * cum[-1], 0,
                      len(cum) - 1)
        return [(1.0, payloads[pick])]


@dataclass
class Branch:
    """One outcome of executing a tick: a successor with probability.

    ``starts`` counts, per transition index, how many firings started
    during the tick (used to compute firing rates of immediate
    transitions, whose activity never shows up in ``inflight``).
    """

    probability: float
    state: State
    starts: tuple[int, ...]


class TickEngine:
    """Executes GTPN ticks over a fixed net."""

    def __init__(self, net: Net):
        net.validate()
        self.net = net
        self._classes = net.conflict_classes()
        # hot-path precomputation: arc lists, delays, frequencies, gates
        self._in_arcs = [tuple(t.inputs.items()) for t in net.transitions]
        self._out_arcs = [tuple(t.outputs.items())
                          for t in net.transitions]
        self._freq = [float(t.frequency) for t in net.transitions]
        self._delay = [int(t.delay) for t in net.transitions]
        self._gates = [net.gate_indices(t) if t.gate is not None else None
                       for t in net.transitions]
        #: state -> successor branches, for deterministic resolvers
        #: (tick is a pure function of the state in that case).
        self._tick_memo: dict[State, tuple[Branch, ...]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def initial_branches(self, resolver: Resolver) -> list[Branch]:
        """Settle the initial marking into post-decision states."""
        marking = list(self.net.initial_marking)
        return self._settle(marking, [], resolver)

    def tick(self, state: State, resolver: Resolver) -> list[Branch]:
        """Execute one tick from *state*, returning successor branches.

        Under a deterministic resolver the branch list is memoized per
        state; callers must treat the returned branches as read-only.
        """
        if resolver.deterministic:
            cached = self._tick_memo.get(state)
            if cached is None:
                cached = tuple(self._tick(state, resolver))
                self._tick_memo[state] = cached
            return list(cached)
        return self._tick(state, resolver)

    def _tick(self, state: State, resolver: Resolver) -> list[Branch]:
        marking = list(state.marking)
        inflight: list[list[int]] = []
        for t_idx, remaining in state.inflight:
            if remaining <= 1:
                # firing completes: deposit outputs
                for p, n in self.net.transitions[t_idx].outputs.items():
                    marking[p] += n
            else:
                inflight.append([t_idx, remaining - 1])
        return self._settle(marking, inflight, resolver)

    # ------------------------------------------------------------------
    # phases 2 + 3
    # ------------------------------------------------------------------
    def _settle(self, marking: list[int], inflight: list[list[int]],
                resolver: Resolver) -> list[Branch]:
        n_t = len(self.net.transitions)
        work = self._run_settle_rounds(
            [(1.0, marking, inflight, [0] * n_t)], resolver)
        branches: dict[tuple, Branch] = {}
        for prob, mk, fl, starts in work:
            state = State(marking=tuple(mk),
                          inflight=tuple(sorted(map(tuple, fl))))
            key = (state.marking, state.inflight, tuple(starts))
            if key in branches:
                branches[key].probability += prob
            else:
                branches[key] = Branch(probability=prob, state=state,
                                       starts=tuple(starts))
        return list(branches.values())

    def _run_settle_rounds(self, work, resolver: Resolver):
        done = []
        rounds = 0
        while work:
            rounds += 1
            if rounds > MAX_IMMEDIATE_ROUNDS:
                raise AnalysisError(
                    f"net {self.net.name!r}: settle rounds did not reach "
                    f"quiescence in {MAX_IMMEDIATE_ROUNDS} rounds "
                    "(unbounded zero-time loop?)")
            next_work = []
            for prob, mk, fl, starts in work:
                selections = self._select_per_class(mk, fl)
                if not selections:
                    done.append((prob, mk, fl, starts))
                    continue
                for branch_prob, chosen in _cartesian(selections, resolver):
                    new_mk = list(mk)
                    new_fl = [list(entry) for entry in fl]
                    new_starts = list(starts)
                    for t_idx in chosen:
                        for p, n in self._in_arcs[t_idx]:
                            new_mk[p] -= n
                        delay = self._delay[t_idx]
                        if delay == 0:
                            # immediate: outputs deposit within the tick
                            for p, n in self._out_arcs[t_idx]:
                                new_mk[p] += n
                        else:
                            new_fl.append([t_idx, delay])
                        new_starts[t_idx] += 1
                    next_work.append(
                        (prob * branch_prob, new_mk, new_fl, new_starts))
            work = next_work
        return done

    def _select_per_class(self, marking, inflight):
        """For each conflict class, the weighted enabled choices.

        Returns a list with one entry per class that has at least one
        enabled transition of positive frequency whose gate is open;
        each entry is a list of ``(probability, transition_index)``
        choices summing to one.  Immediate and timed members of a class
        compete by frequency.  A gate reads the settle-round marking
        and the in-flight list, which holds the firings carried over
        from earlier ticks plus those started in earlier settle rounds
        of this tick; a closed gate drops its member exactly as a zero
        frequency would.
        """
        selections = []
        in_arcs = self._in_arcs
        freq_of = self._freq
        gates = self._gates
        busy = None
        for cls in self._classes:
            weighted = None
            for t_idx in cls:
                freq = freq_of[t_idx]
                if freq <= 0:
                    continue
                enabled = True
                for p, n in in_arcs[t_idx]:
                    if marking[p] < n:
                        enabled = False
                        break
                if not enabled:
                    continue
                gate = gates[t_idx]
                if gate is not None:
                    if busy is None:
                        busy = {t for t, _remaining in inflight}
                    places, fired = gate
                    if any(marking[p] for p in places) \
                            or any(u in busy for u in fired):
                        continue
                if weighted is None:
                    weighted = []
                weighted.append((freq, t_idx))
            if weighted:
                total = sum(f for f, _ in weighted)
                selections.append(
                    [(f / total, t_idx) for f, t_idx in weighted])
        return selections


def _cartesian(selections, resolver: Resolver,
               ) -> Iterator[tuple[float, list[int]]]:
    """Cross-product of per-class choices, pruned through *resolver*.

    Only one transition per class is selected per round; the engine's
    outer loop re-runs selection until no class has enabled
    transitions, which yields multi-firing (infinite-server) behaviour
    where tokens allow it.
    """
    combos: list[tuple[float, list[int]]] = [(1.0, [])]
    for options in selections:
        chosen = resolver.choose(options)
        combos = [(p * cp, picks + [t_idx])
                  for p, picks in combos
                  for cp, t_idx in chosen]
    return iter(combos)
