"""Stationary solution of the embedded Markov chain of a GTPN.

Solves pi P = pi, sum(pi) = 1 over the reachable state space with one
deflated sparse direct solve (``_solve_linear``), which reads only
``P.data`` and the chain's :class:`SolvePlan`.  A tick first
advances the in-flight firings deterministically (completions deposit,
the rest count down) and only then draws the conflict resolutions, so
a state's row of P is a function of its *post-completion
configuration*: the states of one advance class
(``ReachabilityGraph.advance_class``) have equal rows, and P = R S
with R mapping states to classes and S holding one row per class.
The solve factors the class chain Q = S R, of order k (574 for the
6,336 states of arch II n=4): pin the last class, factor the remaining
principal block of Q^T - I, lift nu to pi = nu S, and accept pi only
if it passes a fixed-point residual gate on the full P.  The
architecture models of chapter 6 produce irreducible chains (every
conversation cycles forever); anything the gate rejects, such as a
chain whose pinned class is transient, falls back to power iteration,
which is counted (``markov.solve_fallback``).  The structural half of
that solve (the quotient map, fill-reducing column order, block
assembly gathers) is a :class:`SolvePlan`, a function of the sparsity
pattern and the advance classes, which the sweep skeleton builds once
per structure (``markov.plan.build``) and every re-timed solve reuses.
The plan also holds the row of every ``P.data`` slot, so the residual
gate scatters pi P over the plan instead of transposing P per solve,
and each thread wraps the plan's block pattern in a scipy CSC matrix
once and re-points its data per solve (``_block``), so no solve pays
for scipy's construction checks.

Chains of one skeleton at different timings solve together: their B
rows of ``P.data`` factor as one block-diagonal matrix, so one
factorization (``markov.factorizations``) serves B chains
(``markov.points_solved``), each row gated on its own.  Class chains
up to order ``_FINE_SUPERNODE_MAX_ORDER`` (every non-local chain of
chapter 6, and the local ones up to four conversations) factor with
single-column supernodes and panels (``markov.factorizations.fine``),
longer ones with SuperLU's defaults.  Each accepted
vector counts ``markov.method.lu``; a solve records its largest
residual (``markov.residual``) and the order it factored
(``markov.quotient_order``).

Chains with more than one closed communicating class are refused
(``AnalysisError``): their stationary distribution is not unique, so
any single solution would silently disagree with a simulated sample
path, which settles into exactly one of the closed classes.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from repro import obs
from repro.errors import AnalysisError
from repro.gtpn.reachability import ReachabilityGraph
from repro.obs.clock import perf_now


#: Convergence bound and iteration cap of the power-iteration fallback.
_POWER_TOL = 1e-12
_POWER_MAX_ITERATIONS = 2_000_000


def stationary_distribution(*graphs: ReachabilityGraph,
                            closed_classes: int | None = None,
                            plan: SolvePlan | None = None,
                            ) -> list[np.ndarray]:
    """Stationary distribution pi of each of *graphs*' embedded chains.

    The graphs share one skeleton (one graph is the common case; a
    sweep passes the chains of several timings), and one direct solve
    (:func:`_solve_linear`) factors all of their chains at once.  A
    vector the solve cannot produce or its residual gate refuses falls
    back to power iteration (:func:`_solve_power`, counted as
    ``markov.solve_fallback``), that chain alone.  ``closed_classes``
    and ``plan`` default to the skeleton's closed communicating class
    count and :class:`SolvePlan`, both computed once per structure and
    cached there; a caller that holds them (the sweep solver) passes
    them, and a test passes a plan with wrong classes to exercise the
    gate.  The direct solve reads only each graph's ``data``; the CSR
    ``graph.matrix`` is read (and so built, on a lazy graph) only by
    the power fallback.
    """
    skeleton = graphs[0].skeleton
    closed = skeleton.closed_class_count() \
        if closed_classes is None else closed_classes
    if closed > 1:
        raise AnalysisError(
            f"embedded chain is reducible ({closed} closed communicating "
            "classes); the stationary distribution is not unique")
    if plan is None:
        plan = skeleton.solve_plan()
    try:
        pis = _solve_linear([graph.data for graph in graphs], plan)
    except (np.linalg.LinAlgError, ValueError):
        # numerical failure of the direct solve: fall back to power
        # iteration.  Anything else is a defect and propagates — a
        # bare except here once hid real bugs behind silent (and
        # slow) fallbacks.
        pis = [None] * len(graphs)
    for b, (graph, pi) in enumerate(zip(graphs, pis)):
        if pi is None:
            obs.add("markov.solve_fallback")
            pis[b] = _solve_power(graph.matrix, graph)
    return pis


def _closed_class_count(matrix: sp.csr_matrix) -> int:
    """Number of closed communicating classes of the chain.

    A strongly connected component is closed when no edge leaves it;
    an ergodic chain (possibly with transient initial states) has
    exactly one.
    """
    n_components, labels = connected_components(
        matrix, directed=True, connection="strong")
    if n_components == 1:
        return 1
    coo = matrix.tocoo()
    leaving = (labels[coo.row] != labels[coo.col]) & (coo.data != 0)
    open_components = set(labels[coo.row[leaving]])
    return n_components - len(open_components)


@dataclass(frozen=True, eq=False)
class SolvePlan:
    """The value-free structure of one chain's deflated solve.

    Built by :func:`build_solve_plan` from the CSR pattern of P and
    the chain's advance classes, so every chain with that pattern and
    those classes (a sweep re-times one skeleton many times) shares
    it.  With P = R S (``R`` maps each state to its class, ``S`` holds
    one representative row of P per class) the solve factors the class
    chain Q = S R of order ``k`` and lifts its stationary vector nu to
    pi = nu S.  The plan holds the slots of S in ``P.data`` and where
    each lands in ``Q.data`` and in pi; the fill-reducing column order
    of Q's deflated block; and gathers that assemble the block's CSC
    data (columns already in that order) and the right-hand side
    straight from ``Q.data``; and the row and column of every slot of
    ``P.data``, over which the residual gate scatters pi P without
    transposing P.  Structure arrays only, never factors.  Identity
    classes (``k == n``) make Q = P.
    """

    n: int                      # states
    nnz: int                    # stored entries of P
    k: int                      # advance classes: the order of Q
    q_nnz: int                  # stored entries of Q
    source: np.ndarray          # P.data slots of the rows of S
    row: np.ndarray             # class of each such slot (row of S)
    column: np.ndarray          # state of each such slot (column of S)
    merge: np.ndarray           # Q.data slot of each such slot
    order: np.ndarray           # block column i is column order[i]
    indptr: np.ndarray          # CSC pattern of the ordered block
    indices: np.ndarray
    gather: np.ndarray          # block data <- Q.data, its nnz a 0 slot
    diagonal: np.ndarray        # block data slots of the -1 diagonal
    rhs_index: np.ndarray       # rhs[rhs_index] = -Q.data[rhs_source]
    rhs_source: np.ndarray
    p_row: np.ndarray           # row of P of each P.data slot
    p_col: np.ndarray           # column of P of each P.data slot


def build_solve_plan(indptr: np.ndarray, indices: np.ndarray,
                     classes: np.ndarray) -> SolvePlan:
    """Plan the deflated solve of every chain with this CSR pattern.

    ``classes`` labels each state with its advance class
    (``np.arange(n)``: every state is its own class).  Rows of P in one
    class must be equal: class c's first state represents it, and each
    entry of Q sums the entries of that row falling into one class.
    The residual gate on the full P refuses the vector of a plan whose
    classes are wrong.

    Column j of the block (Q^T - I)[:m, :m], m = k - 1, is row j of Q
    restricted to columns below m, plus the diagonal, which is
    structural even where Q has no self-loop.  The column order is
    SuperLU's MMD on A^T A (post-ordered), read off an incomplete
    factorization of a synthetic matrix with the block's pattern:
    strictly diagonally dominant, so it never meets a zero pivot, and
    free of values, so the order is a function of the pattern and the
    classes alone.  Factoring the ordered block with ``NATURAL`` then
    repeats the ``MMD_ATA`` factorization without recomputing the
    order per solve; the supernode settings it factors with (see
    :func:`_solve_linear`) change only how SuperLU groups the columns,
    and so the order of its floating-point updates, not the order of
    the columns.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    n = len(indptr) - 1
    nnz = int(indptr[-1])
    _, reps, classes = np.unique(classes, return_index=True,
                                 return_inverse=True)
    k = len(reps)
    # S: the representative rows of P, slot by slot
    lengths = np.diff(indptr)[reps]
    row = np.repeat(np.arange(k), lengths)
    source = np.arange(len(row)) + np.repeat(
        indptr[reps] - (np.cumsum(lengths) - lengths), lengths)
    column = indices[source]
    # Q = S R: one entry per (row, class of column), CSR-sorted
    entries, merge = np.unique(row * np.int64(k) + classes[column],
                               return_inverse=True)
    q_indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(entries // k, minlength=k))])
    q_indices = entries % k
    q_nnz = len(entries)

    m = k - 1
    src_row = np.repeat(np.arange(k), np.diff(q_indptr))
    inner = np.flatnonzero((src_row < m) & (q_indices < m))
    loops = inner[src_row[inner] == q_indices[inner]]
    no_loop = np.ones(m, dtype=bool)
    no_loop[src_row[loops]] = False
    missing = np.flatnonzero(no_loop)
    # block entries (row, col, Q.data slot), sorted column-major
    rows = np.concatenate([q_indices[inner], missing])
    cols = np.concatenate([src_row[inner], missing])
    slots = np.concatenate([inner, np.full(len(missing), q_nnz)])
    by_col = np.lexsort((rows, cols))
    rows, cols, slots = rows[by_col], cols[by_col], slots[by_col]
    counts = np.bincount(cols, minlength=m)
    col_ptr = np.concatenate([[0], np.cumsum(counts)])

    started = perf_now()
    synthetic = np.ones(len(rows))
    synthetic[rows == cols] = -(len(rows) + 1.0)
    pattern = sp.csc_matrix((synthetic, rows, col_ptr), shape=(m, m))
    order = np.argsort(spla.spilu(pattern, drop_tol=1.0, fill_factor=1.0,
                                  permc_spec="MMD_ATA").perm_c)
    obs.add("markov.plan.build")
    obs.gauge("markov.plan.order_s", perf_now() - started)

    lengths = counts[order]
    ordered_ptr = np.concatenate([[0], np.cumsum(lengths)])
    take = np.arange(len(rows)) + np.repeat(
        col_ptr[order] - ordered_ptr[:-1], lengths)
    last = np.arange(q_indptr[m], q_nnz)
    last = last[q_indices[last] < m]
    # every solve's block wraps these two arrays: keep them immutable
    block_ptr = ordered_ptr.astype(np.intc)
    block_rows = rows[take].astype(np.intc)
    block_ptr.flags.writeable = block_rows.flags.writeable = False
    return SolvePlan(
        n=n, nnz=nnz, k=k, q_nnz=q_nnz, source=source, row=row, column=column,
        merge=merge, order=order, indptr=block_ptr, indices=block_rows,
        gather=slots[take],
        diagonal=np.flatnonzero(rows[take] == cols[take]),
        rhs_index=q_indices[last], rhs_source=last,
        p_row=np.repeat(np.arange(n), np.diff(indptr)), p_col=indices)


# Every solve of one plan factors a block of one pattern: only its data
# differs.  So each thread wraps the plan's pattern in a CSC matrix once
# (scipy validates it then) and later solves re-point its data.  Plans
# are shared process-wide through the skeleton store, so the wrapper is
# owned per thread: concurrent solves of one plan never share it.  A
# solve of B chains factors B copies of the pattern on the diagonal;
# the thread keeps one wrapper per plan, for the last B it solved.
_blocks = threading.local()


def _block(plan: SolvePlan, data: list[np.ndarray]) -> sp.csc_matrix:
    """This thread's CSC block of B diagonal copies of *plan*'s
    pattern, holding the B block data arrays of *data*."""
    shells = getattr(_blocks, "shells", None)
    if shells is None:
        shells = _blocks.shells = weakref.WeakKeyDictionary()
    rows, m = len(data), plan.k - 1
    block = shells.get(plan)
    if block is None or block.shape[0] != rows * m:
        indptr, indices = plan.indptr, plan.indices
        if rows > 1:
            nnz = len(indices)
            indptr = np.concatenate(
                [(indptr[:-1] + np.arange(rows)[:, None] * nnz).ravel(),
                 [rows * nnz]]).astype(np.intc)
            indices = (indices + np.arange(rows)[:, None] * m) \
                .ravel().astype(np.intc)
        block = shells[plan] = sp.csc_matrix(
            (_joined(data), indices, indptr), shape=(rows * m, rows * m))
    else:
        block.data = _joined(data)
    return block


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The 1-D arrays *arrays* end to end (one is itself)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


#: Largest class-chain order factored with fine supernodes
#: (``_FINE_SUPERNODES``: single-column supernodes and panels).
#: SuperLU's default relaxed supernodes and 10-column panels are built
#: for large dense fronts; on the sparse class chains of the non-local
#: nets they cost ≈70% more factorization time.  Measured with one
#: chain per factorization (2 vCPUs, median ms, defaults → fine):
#: server II n=4, order 181: 0.23 → 0.14; local II n=4, 573: 5.2 →
#: 4.7; server II n=7, 1,253: 6.5 → 4.4; local II n=5, 1,385: 31 → 36;
#: local II n=6, 2,981: 353 → 420.  The fronts of the large local
#: chains are dense enough for the defaults to win.
_FINE_SUPERNODE_MAX_ORDER = 1_300
_FINE_SUPERNODES = {"relax": 1, "panel_size": 1}


def _solve_linear(data: list[np.ndarray],
                  plan: SolvePlan) -> list[np.ndarray | None]:
    """Deflated direct solve of pi (P - I) = 0 through the class chain.

    *data* holds B >= 1 chains' ``P.data`` over the pattern *plan* was
    built from; the solve reads nothing else of P and returns one
    vector per chain, ``None`` for a chain it refuses.  The plan's
    classes write P = R S; the class chain Q = S R has the stationary
    vector nu, and pi = nu S is exactly P's.  ``Q.data`` is a
    ``bincount`` of the representative rows' slots of ``P.data``
    (identity classes make Q = P).  Pinning nu[k-1] = 1 leaves the
    order-(k-1) principal block of Q^T - I with right-hand side
    -(Q^T)[:k-1, k-1], both gathered from ``Q.data``.  The block is as
    sparse as the chain itself and column diagonally dominant, so
    SuperLU's pivots are stable; its columns arrive in the plan's
    fill-reducing order and are factored with ``NATURAL``: with
    single-column supernodes and panels (``relax=1, panel_size=1``,
    also counted ``markov.factorizations.fine``) when the chain's order
    is at most :data:`_FINE_SUPERNODE_MAX_ORDER`, with SuperLU's
    defaults above it.  The B chains' blocks sit on the diagonal of
    one matrix, factored once (``markov.factorizations``): no pivot or
    update crosses from one block to another, and the settings follow
    the order of one chain, never B, so each chain's vector is bit for
    bit its lone solve.  Everything else runs chain by chain, as 1-D
    array operations.  A vector is accepted only if its nu is non-negative
    and its pi is a fixed point of its full P (max |pi P - pi| <=
    1e-8), so a plan with wrong classes costs a fallback, never a
    wrong answer; ``None`` hands the chain to the counted
    power-iteration fallback.  The gate's pi P is a ``bincount`` of
    ``pi[row] * data`` into each slot's column: the products scipy's
    ``pi @ P`` forms, without transposing P.
    """
    m = plan.k - 1
    fine = m <= _FINE_SUPERNODE_MAX_ORDER
    s_data, block_data, rhs = [], [], []
    for p_data in data:
        if len(p_data) != plan.nnz:
            raise AnalysisError("solve plan does not match the chain's "
                                "sparsity pattern")
        s_row = p_data[plan.source]
        # Q.data and a trailing 0.0, the slot the block's structural
        # diagonal entries gather from
        q_data = np.bincount(plan.merge, weights=s_row,
                             minlength=plan.q_nnz + 1)
        block_row = q_data[plan.gather]
        block_row[plan.diagonal] -= 1.0
        rhs_row = np.zeros(m)
        rhs_row[plan.rhs_index] = -q_data[plan.rhs_source]
        s_data.append(s_row)
        block_data.append(block_row)
        rhs.append(rhs_row)
    try:
        y = spla.splu(_block(plan, block_data), permc_spec="NATURAL",
                      **(_FINE_SUPERNODES if fine else {})
                      ).solve(_joined(rhs))
    except RuntimeError:
        # SuperLU reports an exactly singular block this way: one
        # singular chain must not refuse the others, so each chain is
        # solved alone
        if len(data) == 1:
            return [None]
        return [_solve_linear([p_data], plan)[0] for p_data in data]
    obs.add("markov.factorizations")
    if fine:
        obs.add("markov.factorizations.fine")
    obs.add("markov.points_solved", len(data))
    return [_lift(p_data, s_row, y_row, plan)
            for p_data, s_row, y_row in zip(data, s_data,
                                            y.reshape(len(data), m))]


def _lift(data: np.ndarray, s_data: np.ndarray, y: np.ndarray,
          plan: SolvePlan) -> np.ndarray | None:
    """pi of one chain from its block solution *y*, or ``None`` if the
    gate refuses it (see :func:`_solve_linear`)."""
    n, m = plan.n, plan.k - 1
    nu = np.empty(plan.k)
    nu[plan.order] = y
    nu[m] = 1.0
    total = nu.sum()
    if not math.isfinite(total) or total <= 0:
        return None
    nu /= total
    if nu.min() < -1e-9:
        return None
    np.maximum(nu, 0.0, out=nu)     # what np.clip(nu, 0.0, None) runs
    pi = np.bincount(plan.column, weights=nu[plan.row] * s_data,
                     minlength=n)
    pi /= pi.sum()
    residual = np.abs(np.bincount(plan.p_col, weights=pi[plan.p_row] * data,
                                  minlength=n) - pi).max()
    obs.gauge("markov.residual", float(residual))
    if residual > 1e-8:
        return None
    obs.gauge("markov.quotient_order", plan.k)
    obs.add("markov.method.lu")
    return pi


def _solve_power(matrix: sp.csr_matrix,
                 graph: ReachabilityGraph) -> np.ndarray:
    """Power iteration from the initial distribution.

    Periodic chains are damped by averaging successive iterates
    (equivalent to the lazy chain (P + I) / 2, which has the same
    stationary distribution).
    """
    pi = np.array(graph.init_vec, dtype=float)
    for _ in range(_POWER_MAX_ITERATIONS):
        nxt = 0.5 * (pi @ matrix) + 0.5 * pi
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta < _POWER_TOL:
            break
    else:
        raise AnalysisError(
            f"power iteration did not converge in {_POWER_MAX_ITERATIONS} "
            "iterations")
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise AnalysisError("power iteration produced a degenerate result")
    return pi / total
