"""Reachability graph construction for GTPN analysis.

Builds the discrete-time Markov chain embedded at tick boundaries: one
state per reachable post-decision snapshot, with transition
probabilities from the exhaustive branch enumeration of the tick
semantics (:mod:`repro.gtpn.state`).

The analyzer in the thesis "takes a description of the petri net,
builds the reachable states for the net, solves the embedded Markov
process, and gives exact estimates for resource usage" (section 6.5);
this module implements the first of those steps.

Every net runs the array-native engine (:mod:`repro.gtpn.packed`):
packed int rows, batched frontier expansion, direct CSR assembly.
Declared gates (:class:`repro.gtpn.net.Gate`) are part of its
enabledness test, so no net needs a separate engine.  The result is
one :class:`ReachabilityGraph` of arrays, which the sparse solver and
the measures read directly.  A graph holds only what every reader
needs (``P.data`` over its skeleton's shared pattern); the CSR matrix,
the expected starts and the initial distribution are materialized
when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.gtpn.net import Net

if TYPE_CHECKING:
    from repro.gtpn.packed import PackedLayout, PackedSkeleton

#: Default cap on explored states; architecture models stay well below.
DEFAULT_MAX_STATES = 200_000


@dataclass(eq=False)
class ReachabilityGraph:
    """The embedded chain of a GTPN, as arrays.

    * ``data``: the entries of the one-tick probability matrix P over
      the CSR pattern ``indptr`` / ``indices``, which the graph shares
      with every other graph of its skeleton.
    * ``matrix``: P as a CSR matrix; ``matrix[i, j]`` is the
      probability of moving from state i to j.
    * ``init_vec``: probability distribution over states at time zero.
    * ``starts_matrix[i, t]``: expected firings of transition t started
      during a tick spent in state i.
    * ``inflight_matrix[i, t]``: concurrent in-flight firings of t while
      the net sits in state i.
    * ``packed_table``: one packed row per state, decoded by
      ``packed_layout`` (:class:`repro.gtpn.packed.PackedLayout`).
    * ``freqs``: the transition frequencies P was evaluated at.

    Read through the skeleton the graph was evaluated from:

    * ``structure``: the skeleton's structure fingerprint.
    * ``advance_class[i]``: the advance class of state i, ``0..k-1``:
      states whose post-completion configurations (marking after
      completions, plus the slots still counting down) are equal have
      equal rows of P, so the stationary solve factors the order-k
      class chain.

    A build or re-time evaluates only ``data``.  ``matrix``,
    ``starts_matrix`` and ``init_vec`` are materialized on first read,
    by the same stage functions over the program and branch values the
    evaluation kept (:mod:`repro.gtpn.packed`), so they are
    bit-identical to an eager evaluation; a fixed point that reads
    only throughputs and token counts never builds them.
    """

    net: Net
    data: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    inflight_matrix: np.ndarray
    packed_table: np.ndarray
    packed_layout: PackedLayout
    skeleton: PackedSkeleton = field(repr=False)
    freqs: np.ndarray = field(repr=False)
    program_values: np.ndarray = field(repr=False)
    branch_values: np.ndarray = field(repr=False)

    @property
    def state_count(self) -> int:
        return len(self.packed_table)

    @property
    def structure(self) -> str:
        return self.skeleton.structure

    @property
    def advance_class(self) -> np.ndarray:
        return self.skeleton.advance_class

    @property
    def quotient_order(self) -> int:
        """Order of the chain the stationary solve factors."""
        return int(self.advance_class.max()) + 1

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        n_states = self.state_count
        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(n_states, n_states), copy=False)

    @cached_property
    def starts_matrix(self) -> np.ndarray:
        return self.skeleton.starts_matrix(self.branch_values)

    @cached_property
    def init_vec(self) -> np.ndarray:
        return self.skeleton.initial_vector(self.program_values)


def build_reachability_graph(net: Net,
                             max_states: int = DEFAULT_MAX_STATES,
                             ) -> ReachabilityGraph:
    """Explore every reachable state of *net* breadth-first.

    Runs the packed array engine (:mod:`repro.gtpn.packed`).
    """
    from repro.gtpn import packed

    graph, _skeleton = packed.packed_build(net, max_states=max_states)
    return graph
