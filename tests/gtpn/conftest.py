"""Shared fixtures for the GTPN suite: test-only oracles.

Retired engines live on here, outside the package, as differential
oracles for the code that replaced them: the one-state-at-a-time tick
engine with its exhaustive and sampling resolvers, the augmented-system
stationary solve, the object reachability walk over those ticks and
the program-major branch-value fold.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import strategies as st

from repro.errors import AnalysisError, StateSpaceLimitError
from repro.gtpn import Net, markov
from repro.gtpn.packed import (_branch_values, compile_packed,
                               packed_build)
from repro.gtpn.state import MAX_IMMEDIATE_ROUNDS, State


class ExhaustiveResolver:
    """Follow every branch with its exact probability (analyzer)."""

    def choose(self, options):
        return list(options)


class SamplingResolver:
    """Sample a single branch (Monte Carlo simulator).

    Draws through the same ``random() * total`` + bisect scheme as
    ``random.choices``, over cumulative weights memoized per distinct
    option tuple; :mod:`repro.gtpn.simulation` must replay its stream.
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
    """The retired one-state-at-a-time GTPN tick, as an oracle.

    Executes the semantics of :mod:`repro.gtpn.state` on one
    :class:`State` at a time.  Under :class:`ExhaustiveResolver` it
    follows every branch (the packed engine reproduces that over arrays,
    bit for bit); under :class:`SamplingResolver` it follows one (the
    Monte Carlo sampler reproduces that draw for draw).
    """

    def __init__(self, net: Net):
        net.validate()
        self.net = net
        self._classes = net.conflict_classes()
        self._in_arcs = [tuple(t.inputs.items()) for t in net.transitions]
        self._out_arcs = [tuple(t.outputs.items())
                          for t in net.transitions]
        self._freq = [float(t.frequency) for t in net.transitions]
        self._delay = [int(t.delay) for t in net.transitions]
        self._gates = [net.gate_indices(t) if t.gate is not None else None
                       for t in net.transitions]

    def initial_branches(self, resolver) -> list[Branch]:
        """Settle the initial marking into post-decision states."""
        marking = list(self.net.initial_marking)
        return self._settle(marking, [], resolver)

    def tick(self, state: State, resolver) -> list[Branch]:
        """Execute one tick from *state*, returning successor branches."""
        marking = list(state.marking)
        inflight: list[list[int]] = []
        for t_idx, remaining in state.inflight:
            if remaining <= 1:
                # firing completes: deposit outputs
                for p, n in self._out_arcs[t_idx]:
                    marking[p] += n
            else:
                inflight.append([t_idx, remaining - 1])
        return self._settle(marking, inflight, resolver)

    def _settle(self, marking, inflight, resolver) -> list[Branch]:
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

    def _run_settle_rounds(self, work, resolver):
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
        """For each conflict class with an enabled member (positive
        frequency, inputs marked, gate open), the ``(probability,
        transition_index)`` choices, normalised by frequency."""
        selections = []
        busy = None
        for cls in self._classes:
            weighted = []
            for t_idx in cls:
                if self._freq[t_idx] <= 0:
                    continue
                if any(marking[p] < n for p, n in self._in_arcs[t_idx]):
                    continue
                gate = self._gates[t_idx]
                if gate is not None:
                    if busy is None:
                        busy = {t for t, _remaining in inflight}
                    places, fired = gate
                    if any(marking[p] for p in places) \
                            or any(u in busy for u in fired):
                        continue
                weighted.append((self._freq[t_idx], t_idx))
            if weighted:
                total = sum(f for f, _ in weighted)
                selections.append(
                    [(f / total, t_idx) for f, t_idx in weighted])
        return selections


def _cartesian(selections, resolver) -> list[tuple[float, list[int]]]:
    """Cross-product of per-class choices, pruned through *resolver*,
    in class order: one transition per class per settle round."""
    combos: list[tuple[float, list[int]]] = [(1.0, [])]
    for options in selections:
        chosen = resolver.choose(options)
        combos = [(p * cp, picks + [t_idx])
                  for p, picks in combos
                  for cp, t_idx in chosen]
    return combos


def augmented_solve(matrix: sp.csr_matrix) -> np.ndarray | None:
    """The retired augmented-system stationary solve, kept as an oracle.

    Balance equations (P^T - I) pi = 0 with the redundant last one
    replaced by the dense normalization row sum(pi) = 1, solved by
    ``spsolve`` and accepted under the same fixed-point residual gate
    as the production solver.  Unlike the deflated solve it pins no
    component, so it also solves chains whose last state is transient.
    """
    n = matrix.shape[0]
    coo = matrix.T.tocoo()
    keep = coo.row != n - 1
    a = sp.csr_matrix(
        (np.concatenate([coo.data[keep], -np.ones(n - 1), np.ones(n)]),
         (np.concatenate([coo.row[keep], np.arange(n - 1),
                          np.full(n, n - 1)]),
          np.concatenate([coo.col[keep], np.arange(n - 1),
                          np.arange(n)]))),
        shape=(n, n))
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = np.atleast_1d(spla.spsolve(a, b))
    if not np.all(np.isfinite(pi)):
        return None
    pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
    if np.any(pi < -1e-9):
        return None
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    if np.abs(pi @ matrix - pi).max() > 1e-8:
        return None
    return pi


@pytest.fixture(scope="session")
def augmented_oracle():
    """The augmented-system solve as a differential-test oracle."""
    return augmented_solve


def chain_graph(matrix: sp.csr_matrix, init_vec: np.ndarray):
    """A bare chain in the shape ``markov.stationary_distribution``
    reads: its CSR matrix and data, the initial vector the power
    fallback starts from, and a skeleton holding the chain's solve
    plan and closed class count."""
    matrix = matrix.copy()
    matrix.sum_duplicates()
    plan = markov.build_solve_plan(matrix.indptr, matrix.indices,
                                   np.arange(matrix.shape[0]))
    closed = markov._closed_class_count(matrix)
    skeleton = SimpleNamespace(solve_plan=lambda: plan,
                               closed_class_count=lambda: closed)
    return SimpleNamespace(matrix=matrix, data=matrix.data,
                           init_vec=init_vec, skeleton=skeleton)


class OracleGraph:
    """The embedded chain as the object walk builds it: dict rows."""

    def __init__(self, net: Net, states: list, rows: list,
                 initial: dict, starts: list):
        self.net = net
        self.states = states
        self.rows = rows
        self.initial = initial
        self.starts_matrix = np.asarray(starts, dtype=float).reshape(
            len(states), len(net.transitions))

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, indptr)``, columns ascending per row."""
        data, indices, indptr = [], [], [0]
        for row in self.rows:
            for j in sorted(row):
                indices.append(j)
                data.append(row[j])
            indptr.append(len(indices))
        return (np.array(data), np.array(indices, dtype=np.int64),
                np.array(indptr, dtype=np.int64))

    @property
    def init_vec(self) -> np.ndarray:
        vec = np.zeros(len(self.states))
        for i, p in self.initial.items():
            vec[i] = p
        return vec

    @property
    def inflight_matrix(self) -> np.ndarray:
        out = np.zeros((len(self.states), len(self.net.transitions)))
        for i, state in enumerate(self.states):
            for t_idx, _remaining in state.inflight:
                out[i, t_idx] += 1.0
        return out


def object_walk(net: Net, max_states: int = 200_000) -> OracleGraph:
    """The retired one-state-at-a-time reachability walk, as an oracle.

    Breadth-first over :class:`TickEngine` ticks with the exhaustive
    resolver: states interned in first-seen order, per-row dict
    accumulation in branch order, expected starts accumulated branch
    by branch.  The packed engine replays exactly this float order, so
    an unreduced packed build must equal it bit for bit.
    """
    engine = TickEngine(net)
    resolver = ExhaustiveResolver()
    n_transitions = len(net.transitions)
    index: dict[State, int] = {}
    states: list[State] = []
    rows: list[dict[int, float]] = []
    start_rows: list[list[float]] = []

    def intern(state: State) -> int:
        found = index.get(state)
        if found is None:
            found = index[state] = len(states)
            states.append(state)
            rows.append({})
            start_rows.append([0.0] * n_transitions)
            if len(states) > max_states:
                raise StateSpaceLimitError(net.name, len(states),
                                           len(states) - explored,
                                           max_states)
        return found

    explored = 0
    initial: dict[int, float] = {}
    for branch in engine.initial_branches(resolver):
        i = intern(branch.state)
        initial[i] = initial.get(i, 0.0) + branch.probability
    while explored < len(states):
        i = explored
        explored += 1
        row, start_row = rows[i], start_rows[i]
        for branch in engine.tick(states[i], resolver):
            j = intern(branch.state)
            row[j] = row.get(j, 0.0) + branch.probability
            for t_idx, count in enumerate(branch.starts):
                if count:
                    start_row[t_idx] += branch.probability * count
    return OracleGraph(net, states, rows, initial, start_rows)


def assert_matches_oracle(net: Net) -> None:
    """Packed build of *net* is bit-identical to :func:`object_walk`."""
    oracle = object_walk(net)
    graph, _skeleton = packed_build(net, compile_packed(net),
                                    max_states=200_000)
    assert graph.packed_layout.unpack_all(graph.packed_table) \
        == oracle.states
    data, indices, indptr = oracle.csr()
    assert np.array_equal(graph.matrix.indptr, indptr)
    assert np.array_equal(graph.matrix.indices, indices)
    assert np.array_equal(graph.matrix.data, data)
    assert np.array_equal(graph.init_vec, oracle.init_vec)
    assert np.array_equal(graph.starts_matrix, oracle.starts_matrix)
    assert np.array_equal(graph.inflight_matrix, oracle.inflight_matrix)


@pytest.fixture(scope="session")
def oracle_identical():
    """:func:`assert_matches_oracle` as a differential-test fixture."""
    return assert_matches_oracle


def strided_branch_values(ev, freqs: np.ndarray,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """The retired program-major branch-value fold, as an oracle.

    The packed engine once stored the factor ids of its programs as
    ``(programs, rounds, cols)`` and folded each round with one strided
    gather per column; this reads the stored round-major ids through
    that layout (a transposed view) and folds them the retired way.
    :func:`repro.gtpn.packed._branch_values` must equal it bit for bit.
    """
    freqs_ext = np.zeros(len(freqs) + 1)
    freqs_ext[:-1] = freqs
    n_factors = len(ev.f_chosen)
    total = np.zeros(n_factors)
    for k in range(ev.f_members.shape[1]):
        total = total + freqs_ext[ev.f_members[:, k]]
    fvals_ext = np.ones(n_factors + 1)
    np.divide(freqs_ext[ev.f_chosen], total, out=fvals_ext[:-1])

    prog_fids = ev.prog_fids.transpose(2, 0, 1)
    n_progs, n_rounds, n_cols = prog_fids.shape
    prog_values = np.ones(n_progs)
    for r in range(n_rounds):
        round_p = fvals_ext[prog_fids[:, r, 0]]
        for c in range(1, n_cols):
            round_p = round_p * fvals_ext[prog_fids[:, r, c]]
        prog_values = round_p if r == 0 else prog_values * round_p

    branch_vals = np.bincount(ev.item_branch,
                              weights=prog_values[ev.item_pid],
                              minlength=ev.n_branches)
    return prog_values, branch_vals


def assert_fold_matches_strided(net: Net):
    """The packed build of *net* folds its branch values exactly as
    :func:`strided_branch_values` does; returns the built graph."""
    graph, skeleton = packed_build(net, compile_packed(net),
                                   max_states=200_000)
    expected = strided_branch_values(skeleton.ev, graph.freqs)
    folded = _branch_values(skeleton.ev, graph.freqs)
    assert folded[0].tobytes() == expected[0].tobytes()
    assert folded[1].tobytes() == expected[1].tobytes()
    assert graph.program_values.tobytes() == expected[0].tobytes()
    return graph


@pytest.fixture(scope="session")
def fold_identical():
    """:func:`assert_fold_matches_strided` as a differential fixture."""
    return assert_fold_matches_strided


@st.composite
def conservative_nets(draw):
    """A random strongly-conservative net (1 token in, 1 token out)."""
    n_places = draw(st.integers(2, 3))
    n_transitions = draw(st.integers(1, 3))
    tokens = draw(st.lists(st.integers(0, 1), min_size=n_places,
                           max_size=n_places))
    if sum(tokens) == 0:
        tokens[0] = 1
    net = Net("random")
    places = [net.place(f"P{i}", tokens=tokens[i])
              for i in range(n_places)]
    for t in range(n_transitions):
        source = draw(st.integers(0, n_places - 1))
        target = draw(st.integers(0, n_places - 1))
        frequency = draw(st.floats(0.1, 1.0))
        net.transition(f"T{t}", delay=draw(st.integers(1, 3)),
                       frequency=frequency,
                       inputs=[places[source]],
                       outputs=[places[target]])
    return net
