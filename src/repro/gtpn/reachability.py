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
the measures read directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.gtpn.net import Net

if TYPE_CHECKING:
    from repro.gtpn.packed import PackedLayout

#: Default cap on explored states; architecture models stay well below.
DEFAULT_MAX_STATES = 200_000


@dataclass(frozen=True)
class ReductionInfo:
    """What state-space reduction produced a graph, and how much it cut.

    Attached to :class:`ReachabilityGraph` when ``reduction != "none"``
    was requested (even if nothing folded, so a caller can tell "lump
    did nothing" from "lump was off").  ``place_orbits`` /
    ``transition_orbits`` list the index groups whose per-member
    measures were folded together; :mod:`repro.gtpn.analysis` recovers
    exact per-member values by orbit averaging.
    """

    requested: str                  # canonical mode string
    lumped: bool                    # symmetry folding was active
    place_orbits: tuple = ()
    transition_orbits: tuple = ()
    folded_states: int = 0          # successor rows re-canonicalized
    pre_elim_states: int = 0        # states before transient removal
    transient_removed: int = 0


@dataclass(eq=False)
class ReachabilityGraph:
    """The embedded chain of a GTPN, as arrays.

    * ``matrix``: the one-tick probability matrix P (CSR);
      ``matrix[i, j]`` is the probability of moving from state i to j.
    * ``init_vec``: probability distribution over states at time zero.
    * ``starts_matrix[i, t]``: expected firings of transition t started
      during a tick spent in state i.
    * ``inflight_matrix[i, t]``: concurrent in-flight firings of t while
      the net sits in state i.
    * ``packed_table``: one packed row per state, decoded by
      ``packed_layout`` (:class:`repro.gtpn.packed.PackedLayout`).
    * ``reduction``: a :class:`ReductionInfo` when a reduction was
      requested.
    * ``structure``: the structure fingerprint of the packed skeleton
      the graph was evaluated from (empty when the build was not
      keyed).
    * ``advance_class[i]``: the advance class of state i, ``0..k-1``:
      states whose post-completion configurations (marking after
      completions, plus the slots still counting down) are equal have
      equal rows of P, so the stationary solve factors the order-k
      class chain.  ``None`` makes every state its own class.
    """

    net: Net
    matrix: sp.csr_matrix
    init_vec: np.ndarray
    starts_matrix: np.ndarray
    inflight_matrix: np.ndarray
    packed_table: np.ndarray
    packed_layout: PackedLayout
    reduction: ReductionInfo | None = None
    structure: str = ""
    advance_class: np.ndarray | None = None

    @property
    def state_count(self) -> int:
        return len(self.packed_table)

    @property
    def quotient_order(self) -> int:
        """Order of the chain the stationary solve factors."""
        if self.advance_class is None:
            return self.state_count
        return int(self.advance_class.max()) + 1


def build_reachability_graph(net: Net,
                             max_states: int = DEFAULT_MAX_STATES,
                             *, reduction: str | None = None,
                             ) -> ReachabilityGraph:
    """Explore every reachable state of *net* breadth-first.

    Runs the packed array engine (:mod:`repro.gtpn.packed`).
    ``reduction=None`` resolves the configured mode
    (:func:`repro.config.reduction`).
    """
    from repro import config
    from repro.gtpn import packed

    if reduction is None:
        reduction = config.reduction()
    else:
        reduction = config.normalize_reduction(reduction)
    graph, _skeleton = packed.packed_build(
        net, packed.compile_packed(net, reduction), max_states=max_states,
        reduction=reduction)
    return graph
