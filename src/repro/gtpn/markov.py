"""Stationary solution of the embedded Markov chain of a GTPN.

Solves pi P = pi, sum(pi) = 1 over the reachable state space with one
deflated sparse direct solve (``_solve_linear``): pin the last
component, factor the remaining principal block of P^T - I, and accept
the vector only if it passes a fixed-point residual gate.  The
architecture models of chapter 6 produce irreducible chains (every
conversation cycles forever); anything the gate rejects, such as a
chain whose pinned state is transient, falls back to power iteration,
which is counted (``markov.solve_fallback``).  Each accepted direct
solve counts its method (``markov.method.lu`` or
``markov.method.ilu_gmres``) and records its residual
(``markov.residual``).

Chains with more than one closed communicating class are refused
(``AnalysisError``): their stationary distribution is not unique, so
any single solution would silently disagree with a simulated sample
path, which settles into exactly one of the closed classes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from repro import obs
from repro.errors import AnalysisError
from repro.gtpn.reachability import ReachabilityGraph


def transition_matrix(graph: ReachabilityGraph) -> sp.csr_matrix:
    """The one-tick probability matrix P as a sparse CSR matrix."""
    return graph.matrix


def stationary_distribution(graph: ReachabilityGraph,
                            method: str = "auto",
                            tol: float = 1e-12,
                            max_iterations: int = 2_000_000,
                            closed_classes: int | None = None,
                            ) -> np.ndarray:
    """Stationary distribution pi of the embedded chain.

    ``method`` is one of ``"auto"`` (direct solve with power-iteration
    fallback), ``"linear"`` or ``"power"``.  ``closed_classes`` lets a
    caller that already knows the chain's closed communicating class
    count (the sweep skeleton computes it once per structure) skip the
    strongly-connected-components pass; the reducibility refusal is
    identical either way.
    """
    matrix = transition_matrix(graph)
    if method not in ("auto", "linear", "power"):
        raise AnalysisError(f"unknown stationary method {method!r}")
    closed = _closed_class_count(matrix) if closed_classes is None \
        else closed_classes
    if closed > 1:
        raise AnalysisError(
            f"embedded chain is reducible ({closed} closed communicating "
            "classes); the stationary distribution is not unique")
    if method in ("auto", "linear"):
        try:
            pi = _solve_linear(matrix)
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
    return _solve_power(matrix, graph, tol, max_iterations)


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


# Above this many states a bounded ILU-preconditioned GMRES attempt
# runs before the sparse LU: on the large chains of the replicated and
# n >= 5 models its incomplete factorization is much cheaper than a
# full LU.  Below it the LU wins outright, and on high-load chains
# (min pi below ~1e-11) GMRES stalls at the exactness tolerance
# anyway, so an unbounded attempt would only burn iterations.
_GMRES_THRESHOLD = 10_000


def _solve_linear(matrix: sp.csr_matrix) -> np.ndarray | None:
    """Deflated direct solve of pi (P - I) = 0.

    Pinning pi[n-1] = 1 leaves the order-(n-1) principal block of
    P^T - I with right-hand side -(P^T)[:n-1, n-1], assembled straight
    from the coordinate form of P.  The block is as sparse as the chain
    itself (no dense normalization row to wreck the fill-reducing
    ordering) and column diagonally dominant, so SuperLU's diagonal
    pivots are stable; MMD on A^T A gave the least fill on the chapter-6
    chains.  Chains above ``_GMRES_THRESHOLD`` first try ILU-GMRES on a
    bounded budget and fall through to the same LU when it does not
    converge.  The vector is accepted only if it is a non-negative
    fixed point (max |pi P - pi| <= 1e-8); ``None`` hands the chain to
    the counted power-iteration fallback.
    """
    n = matrix.shape[0]
    m = n - 1
    coo = matrix.tocoo()
    inner = (coo.row < m) & (coo.col < m)
    last = (coo.row == m) & (coo.col < m)
    # transposed entries plus a -1 diagonal; duplicate coordinates sum
    block = sp.csc_matrix(
        (np.concatenate([coo.data[inner], -np.ones(m)]),
         (np.concatenate([coo.col[inner], np.arange(m)]),
          np.concatenate([coo.row[inner], np.arange(m)]))),
        shape=(m, m))
    rhs = -np.bincount(coo.col[last], weights=coo.data[last], minlength=m)
    x, method = None, "lu"
    if n > _GMRES_THRESHOLD:
        try:
            ilu = spla.spilu(block, drop_tol=0.05, fill_factor=2.0)
            precond = spla.LinearOperator(block.shape, ilu.solve)
            x, info = spla.gmres(block, rhs, M=precond, rtol=1e-12,
                                 atol=0.0, restart=50, maxiter=2)
        except RuntimeError:
            # spilu raises on an exactly singular factor
            info = -1
        if info == 0:
            method = "ilu_gmres"
        else:
            x = None
            obs.add("markov.gmres_unconverged")
    if x is None:
        try:
            x = spla.splu(block, permc_spec="MMD_ATA").solve(rhs)
        except RuntimeError:
            # SuperLU reports an exactly singular block this way
            return None
    pi = np.append(x, 1.0)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        return None
    pi /= total
    if np.any(pi < -1e-9):
        return None
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = np.abs(pi @ matrix - pi).max()
    obs.gauge("markov.residual", float(residual))
    if residual > 1e-8:
        return None
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
