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
if it passes a fixed-point residual gate on the full P.  A graph
without classes solves with k = n through the same code.  The
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
Each accepted direct solve counts its method (``markov.method.lu`` or
``markov.method.ilu_gmres``) and records its residual
(``markov.residual``) and the order it factored
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


def transition_matrix(graph: ReachabilityGraph) -> sp.csr_matrix:
    """The one-tick probability matrix P as a sparse CSR matrix."""
    return graph.matrix


def stationary_distribution(graph: ReachabilityGraph,
                            method: str = "auto",
                            tol: float = 1e-12,
                            max_iterations: int = 2_000_000,
                            closed_classes: int | None = None,
                            plan: SolvePlan | None = None,
                            ) -> np.ndarray:
    """Stationary distribution pi of the embedded chain.

    ``method`` is one of ``"auto"`` (direct solve with power-iteration
    fallback), ``"linear"`` or ``"power"``.  ``closed_classes`` lets a
    caller that already knows the chain's closed communicating class
    count (the sweep skeleton computes it once per structure) skip the
    strongly-connected-components pass; the reducibility refusal is
    identical either way.  ``plan`` is the chain's cached
    :class:`SolvePlan` (the skeleton keeps one per structure); without
    one the direct solve plans from the matrix's own pattern and the
    graph's ``advance_class``, which gives the same vector.
    With a plan the direct solve reads only ``graph.data``; the CSR
    ``graph.matrix`` is read (and so built, on a lazy graph) only by
    the closed-class count, the plan-less path and the power fallback.
    """
    if method not in ("auto", "linear", "power"):
        raise AnalysisError(f"unknown stationary method {method!r}")
    closed = _closed_class_count(graph.matrix) if closed_classes is None \
        else closed_classes
    if closed > 1:
        raise AnalysisError(
            f"embedded chain is reducible ({closed} closed communicating "
            "classes); the stationary distribution is not unique")
    if method in ("auto", "linear"):
        if plan is None:
            matrix, plan = _plan_for(
                graph.matrix, getattr(graph, "advance_class", None))
            data = matrix.data
        else:
            data = graph.data
        try:
            pi = _solve_linear(data, plan)
            if pi is not None:
                return pi
        except (np.linalg.LinAlgError, ValueError):
            # numerical failure of the direct solve: fall back to
            # power iteration on the auto path.  Anything else is a
            # defect and propagates — a bare except here once hid
            # real bugs behind silent (and slow) fallbacks.
            if method == "linear":
                raise
        if method == "linear":
            raise AnalysisError("direct stationary solve failed")
        obs.add("markov.solve_fallback")
    return _solve_power(graph.matrix, graph, tol, max_iterations)


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


# Above this many advance classes (the order of the quotient chain
# the solve factors) a bounded ILU-preconditioned GMRES attempt runs
# before the sparse LU.  Below it the LU wins outright, and on
# high-load chains (min pi below ~1e-11) GMRES stalls at the exactness
# tolerance anyway, so an unbounded attempt would only burn
# iterations.  Every chapter-6/7 chain measured so far quotients to
# far fewer classes (arch II n=7: 5,874 classes of 107,058 states), so
# the branch only serves chains solved without advance classes.
_GMRES_THRESHOLD = 10_000


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
                     classes: np.ndarray | None = None) -> SolvePlan:
    """Plan the deflated solve of every chain with this CSR pattern.

    ``classes`` labels each state with its advance class (``None``:
    every state is its own class).  Rows of P in one class must be
    equal: class c's first state represents it, and each entry of Q
    sums the entries of that row falling into one class.  The residual
    gate on the full P refuses the vector of a plan whose classes are
    wrong.

    Column j of the block (Q^T - I)[:m, :m], m = k - 1, is row j of Q
    restricted to columns below m, plus the diagonal, which is
    structural even where Q has no self-loop.  The column order is
    SuperLU's MMD on A^T A (post-ordered), read off an incomplete
    factorization of a synthetic matrix with the block's pattern:
    strictly diagonally dominant, so it never meets a zero pivot, and
    free of values, so the order is a function of the pattern and the
    classes alone.  Factoring the ordered block with ``NATURAL`` then
    repeats the ``MMD_ATA`` factorization without recomputing the
    order per solve.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    n = len(indptr) - 1
    nnz = int(indptr[-1])
    if classes is None:
        classes = np.arange(n)
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


def _plan_for(matrix: sp.csr_matrix, classes: np.ndarray | None = None,
              ) -> tuple[sp.csr_matrix, SolvePlan]:
    """A throwaway plan for *matrix*, and the matrix it applies to."""
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    return matrix, build_solve_plan(matrix.indptr, matrix.indices,
                                    classes)


# Every solve of one plan factors a block of one pattern: only its data
# differs.  So each thread wraps the plan's pattern in a CSC matrix once
# (scipy validates it then) and later solves re-point its data.  Plans
# are shared process-wide through the skeleton store, so the wrapper is
# owned per thread: concurrent solves of one plan never share it.
_blocks = threading.local()


def _block(plan: SolvePlan, data: np.ndarray) -> sp.csc_matrix:
    """This thread's CSC block of *plan*'s pattern, holding *data*."""
    shells = getattr(_blocks, "shells", None)
    if shells is None:
        shells = _blocks.shells = weakref.WeakKeyDictionary()
    block = shells.get(plan)
    if block is None:
        m = plan.k - 1
        block = shells[plan] = sp.csc_matrix(
            (data, plan.indices, plan.indptr), shape=(m, m))
    else:
        block.data = data
    return block


def _solve_linear(data: np.ndarray, plan: SolvePlan) -> np.ndarray | None:
    """Deflated direct solve of pi (P - I) = 0 through the class chain.

    *data* is ``P.data`` over the pattern *plan* was built from; the
    solve reads nothing else of P.  The plan's classes write P = R S;
    the class chain Q = S R has the stationary vector nu, and pi = nu S
    is exactly P's.  ``Q.data`` is a ``bincount`` of the representative
    rows' slots of ``P.data`` (identity classes make Q = P).  Pinning
    nu[k-1] = 1 leaves the order-(k-1) principal block of Q^T - I with
    right-hand side -(Q^T)[:k-1, k-1], both gathered from ``Q.data``.
    The block is as sparse as the chain itself and column diagonally
    dominant, so SuperLU's pivots are stable; its columns arrive in the
    plan's fill-reducing order and are factored with ``NATURAL``.
    Quotients above ``_GMRES_THRESHOLD`` classes first try ILU-GMRES on
    a bounded budget and fall through to the same LU when it does not
    converge.  The lifted vector is accepted only if nu is non-negative
    and pi is a fixed point of the full P (max |pi P - pi| <= 1e-8), so
    a plan with wrong classes costs a fallback, never a wrong answer;
    ``None`` hands the chain to the counted power-iteration fallback.
    The gate's pi P is a ``bincount`` of ``pi[row] * data`` into each
    slot's column: the products scipy's ``pi @ P`` forms, without
    transposing P.
    """
    if len(data) != plan.nnz:
        raise AnalysisError("solve plan does not match the chain's "
                            "sparsity pattern")
    n, m = plan.n, plan.k - 1
    s_data = data[plan.source]
    # Q.data and a trailing 0.0, the slot the block's structural
    # diagonal entries gather from
    q_data = np.bincount(plan.merge, weights=s_data,
                         minlength=plan.q_nnz + 1)
    block_data = q_data[plan.gather]
    block_data[plan.diagonal] -= 1.0
    block = _block(plan, block_data)
    rhs = np.zeros(m)
    rhs[plan.rhs_index] = -q_data[plan.rhs_source]
    y, method = None, "lu"
    if plan.k > _GMRES_THRESHOLD:
        try:
            ilu = spla.spilu(block, drop_tol=0.05, fill_factor=2.0)
            precond = spla.LinearOperator(block.shape, ilu.solve)
            y, info = spla.gmres(block, rhs, M=precond, rtol=1e-12,
                                 atol=0.0, restart=50, maxiter=2)
        except RuntimeError:
            # spilu raises on an exactly singular factor
            info = -1
        if info == 0:
            method = "ilu_gmres"
        else:
            y = None
            obs.add("markov.gmres_unconverged")
    if y is None:
        try:
            y = spla.splu(block, permc_spec="NATURAL").solve(rhs)
        except RuntimeError:
            # SuperLU reports an exactly singular block this way
            return None
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
    obs.add(f"markov.method.{method}")
    return pi


def _solve_power(matrix: sp.csr_matrix, graph: ReachabilityGraph,
                 tol: float, max_iterations: int) -> np.ndarray:
    """Power iteration from the initial distribution.

    Periodic chains are damped by averaging successive iterates
    (equivalent to the lazy chain (P + I) / 2, which has the same
    stationary distribution).
    """
    pi = np.array(graph.init_vec, dtype=float)
    for _ in range(max_iterations):
        nxt = 0.5 * (pi @ matrix) + 0.5 * pi
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta < tol:
            break
    else:
        raise AnalysisError(
            f"power iteration did not converge in {max_iterations} "
            "iterations")
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise AnalysisError("power iteration produced a degenerate result")
    return pi / total
