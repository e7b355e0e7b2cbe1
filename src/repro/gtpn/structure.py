"""Structural analysis of GTPNs: incidence matrix, invariants, graphs.

Classical Petri-net structure theory applied to the architecture
models, useful both for debugging nets and for asserting model
sanity in tests:

* the **incidence matrix** C (places x transitions, outputs minus
  inputs),
* **P-invariants** (left null space of C): weightings of places whose
  token count every firing conserves — e.g. the Host token of the
  architecture models, or Clients + all client-cycle stages,
* the bipartite place/transition digraph as a :mod:`scipy.sparse`
  adjacency, for connectivity and cycle analysis.

The loop transitions of the geometric-delay pairs have equal input
and output arcs, so they contribute zero columns and never break an
invariant.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.errors import ModelError
from repro.gtpn.net import Net


def incidence_matrix(net: Net) -> np.ndarray:
    """C[p, t] = outputs(t -> p) - inputs(p -> t)."""
    matrix = np.zeros((len(net.places), len(net.transitions)),
                      dtype=np.int64)
    for t in net.transitions:
        for p, n in t.inputs.items():
            matrix[p, t.index] -= n
        for p, n in t.outputs.items():
            matrix[p, t.index] += n
    return matrix


def place_invariants(net: Net) -> list[dict[str, int]]:
    """A basis of non-negative integer P-invariants (best effort).

    Computes the rational left null space of the incidence matrix and
    rescales each basis vector to integers.  Vectors with mixed signs
    are returned as-is (they are still invariants, just not
    semiflows).  Returns a list of {place name: weight} dicts with
    zero-weight places omitted.
    """
    matrix = incidence_matrix(net)
    null_basis = _rational_left_null_space(matrix)
    invariants = []
    for vector in null_basis:
        scale = _common_denominator(vector)
        integral = [int(value * scale) for value in vector]
        if all(weight <= 0 for weight in integral):
            integral = [-weight for weight in integral]
        invariants.append({net.places[i].name: weight
                           for i, weight in enumerate(integral)
                           if weight != 0})
    return invariants


def invariant_value(net: Net, weights: dict[str, int]) -> int:
    """The weighted token sum of *weights* at the initial marking."""
    total = 0
    for name, weight in weights.items():
        total += weight * net.get_place(name).initial_tokens
    return total


def check_invariant(net: Net, weights: dict[str, int]) -> bool:
    """True when every transition conserves the weighted token sum.

    In-flight firings hold their input tokens, so the conservation
    statement for the executable semantics is: each *completed* firing
    leaves the sum unchanged.
    """
    for t in net.transitions:
        delta = 0
        for p, n in t.inputs.items():
            delta -= n * weights.get(net.places[p].name, 0)
        for p, n in t.outputs.items():
            delta += n * weights.get(net.places[p].name, 0)
        if delta != 0:
            return False
    return True


def _net_graph(net: Net) -> sp.csr_matrix:
    """The net as a bipartite digraph: the adjacency matrix over the
    places (nodes ``0..P-1``) and the transitions (``P..P+T-1``), with
    an arc from each input place to its transition and from each
    transition to its output places."""
    n_places = len(net.places)
    n_nodes = n_places + len(net.transitions)
    tails, heads = [], []
    for t in net.transitions:
        node = n_places + t.index
        for p in t.inputs:
            tails.append(p)
            heads.append(node)
        for p in t.outputs:
            tails.append(node)
            heads.append(p)
    return sp.csr_matrix((np.ones(len(tails), dtype=np.int8),
                          (tails, heads)), shape=(n_nodes, n_nodes))


def is_connected(net: Net) -> bool:
    """Weak connectivity of the net graph (a sanity check: the
    architecture models are single connected systems)."""
    if not net.places and not net.transitions:
        raise ModelError("empty net")
    count, _labels = csgraph.connected_components(
        _net_graph(net), directed=True, connection="weak")
    return count == 1


def structural_deadlock_free_bound(net: Net) -> bool:
    """Necessary condition for liveness: every transition lies on a
    directed cycle through the net graph (token flow can return).

    The closed conversation cycles of the architecture models satisfy
    this; a net failing it will eventually drain some place.  The
    graph is bipartite, so a transition lies on a cycle exactly when
    its strongly connected component has another member.
    """
    _count, labels = csgraph.connected_components(
        _net_graph(net), directed=True, connection="strong")
    sizes = np.bincount(labels)
    return bool((sizes[labels[len(net.places):]] > 1).all())


# ----------------------------------------------------------------------
# exact rational linear algebra (small matrices)
# ----------------------------------------------------------------------

def _rational_left_null_space(matrix: np.ndarray) -> list[list[Fraction]]:
    """Basis of {x : x @ matrix = 0} over the rationals."""
    rows, cols = matrix.shape
    # work on matrix^T x^T = 0: reduce matrix^T (cols x rows)
    m = [[Fraction(int(matrix[r, c])) for r in range(rows)]
         for c in range(cols)]
    # Gauss-Jordan elimination
    pivot_cols: list[int] = []
    row_index = 0
    for col in range(rows):
        pivot = None
        for r in range(row_index, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row_index], m[pivot] = m[pivot], m[row_index]
        scale = m[row_index][col]
        m[row_index] = [value / scale for value in m[row_index]]
        for r in range(len(m)):
            if r != row_index and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b
                        for a, b in zip(m[r], m[row_index])]
        pivot_cols.append(col)
        row_index += 1
    free_cols = [c for c in range(rows) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vector = [Fraction(0)] * rows
        vector[free] = Fraction(1)
        for r, pivot_col in enumerate(pivot_cols):
            vector[pivot_col] = -m[r][free]
        basis.append(vector)
    return basis


def _common_denominator(vector: list[Fraction]) -> int:
    denominator = 1
    for value in vector:
        denominator = np.lcm(denominator, value.denominator)
    return int(denominator)
