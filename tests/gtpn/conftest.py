"""Shared fixtures for the GTPN suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
