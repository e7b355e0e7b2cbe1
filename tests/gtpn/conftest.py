"""Shared fixtures for the GTPN suite: test-only oracles.

Retired engines live on here, outside the package, as differential
oracles for the code that replaced them: the augmented-system
stationary solve, the one-state-at-a-time object reachability walk and
the program-major branch-value fold.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import StateSpaceLimitError
from repro.gtpn import Net
from repro.gtpn.packed import (_branch_values, compile_packed,
                               packed_build)
from repro.gtpn.state import ExhaustiveResolver, State, TickEngine


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
