"""Array-native GTPN engine: packed states, batched expansion.

This module is the exact analyzer's reachability engine.  It runs the
tick semantics of :mod:`repro.gtpn.state` over numpy arrays, following
every branch (the Monte Carlo simulator samples one):

* **Packed states** — a state is one ``int32`` row: the marking in the
  first ``n_places`` columns, then one column per ``(transition,
  remaining_ticks)`` slot of every timed transition, holding the
  count of in-flight firings at that countdown.  Rows are hash-consed
  through :class:`_Interner` (per-wave ``np.unique`` + a byte-keyed id
  table), so state identity is a row compare, not a tuple hash.
* **Batched expansion** — the BFS frontier advances a whole wave of
  states per step.  The settle rounds of a tick run vectorized: one
  enabledness test per round for every (item, class member) pair, a
  mixed-radix expansion of the per-class choice cross product
  (class 0 is the slowest-varying digit, exactly the cross-product
  order of the oracle tick engine in ``tests/gtpn/conftest.py``), and
  sentinel-row bookkeeping so inactive classes cost a no-op row
  instead of a Python branch.  A declared
  :class:`~repro.gtpn.net.Gate` is one more column test of the same
  enabledness mask (see :class:`PackedNet`).
* **Direct CSR assembly** — branch probabilities are recorded as
  *programs* of normalized-frequency factors and evaluated once, at
  the end, straight into ``P.data`` over the skeleton's CSR pattern;
  no per-state dict is ever built.  The graph wraps that array and
  materializes the ``scipy.sparse.csr_matrix``, the expected starts
  and the initial distribution only when one is first read.

Bit-reproducibility contract: every floating-point accumulation —
factor normalization, per-round products, branch dedup sums, row and
expected-starts accumulation — replays the order of a breadth-first
walk over the ticks of the retired one-state-at-a-time ``TickEngine``
(Python left folds, first-seen branch order, additive/multiplicative
identity padding), so a packed build is **bit-identical** to that
walk (both live on as the oracle in ``tests/gtpn/conftest.py``), and a
:func:`packed_retime` re-evaluation is bit-identical to a fresh
:func:`packed_build` by construction (same arrays through the same
:func:`_materialize`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.errors import AnalysisError, StateSpaceLimitError
from repro.gtpn.markov import SolvePlan, _closed_class_count, build_solve_plan
from repro.gtpn.net import Net
from repro.gtpn.reachability import ReachabilityGraph
from repro.gtpn.state import MAX_IMMEDIATE_ROUNDS, State

#: Hard caps keeping the packed encodings honest; ``compile_packed``
#: refuses a net exceeding one.
MAX_PACKED_WIDTH = 4096         # marking + slot columns per state row
MAX_CLASS_MEMBERS = 40          # positive-frequency members per class
                                # (the factor-key mask is 40 bits)

#: Sources expanded per wave: bounds the working-set of one batched
#: settle (items × members × places) while keeping per-wave numpy
#: call overhead amortized over thousands of states.
WAVE_CHUNK = 8192


class SkeletonMismatch(Exception):
    """A new timing alters branch resolution; replay is invalid.

    Internal control flow only: callers catch it and fall back to a
    full build (which also refreshes the cached skeleton).  Raised by
    :func:`packed_retime`.
    """


# ----------------------------------------------------------------------
# packed state layout
# ----------------------------------------------------------------------

@dataclass
class PackedLayout:
    """Mapping between :class:`State` objects and packed int32 rows.

    Row layout: ``[marking (n_places cols) | slots]`` where the slots
    enumerate ``(transition, remaining)`` pairs for every transition of
    delay >= 1, transition-major with ``remaining`` ascending
    ``1..delay`` — the same ordering as a sorted ``State.inflight``
    tuple, so unpacking needs no sort.
    """

    n_places: int
    n_transitions: int
    slot_t: np.ndarray          # (n_slots,) transition index per slot
    slot_r: np.ndarray          # (n_slots,) remaining ticks per slot
    slot_base: np.ndarray       # (n_transitions,) local index of the
                                # (t, 1) slot, -1 for immediates

    @property
    def n_slots(self) -> int:
        return len(self.slot_t)

    @property
    def width(self) -> int:
        return self.n_places + self.n_slots

    def pack(self, state: State) -> np.ndarray:
        row = np.zeros(self.width, dtype=np.int32)
        row[:self.n_places] = state.marking
        for t_idx, remaining in state.inflight:
            base = self.slot_base[t_idx]
            if base < 0 or remaining < 1 or \
                    not (self.slot_t[base + remaining - 1] == t_idx):
                raise AnalysisError(
                    f"state has in-flight ({t_idx}, {remaining}) with no "
                    "packed slot; layout does not cover this net")
            row[self.n_places + base + remaining - 1] += 1
        return row

    def unpack(self, row: np.ndarray) -> State:
        marking = tuple(int(x) for x in row[:self.n_places])
        inflight = []
        slots = row[self.n_places:]
        for k in np.flatnonzero(slots):
            entry = (int(self.slot_t[k]), int(self.slot_r[k]))
            inflight.extend([entry] * int(slots[k]))
        return State(marking=marking, inflight=tuple(inflight))

    def unpack_all(self, table: np.ndarray) -> list[State]:
        return [self.unpack(row) for row in table]

    def inflight_counts(self, table: np.ndarray) -> np.ndarray:
        """Per-transition in-flight counts of packed rows, as floats.

        Each transition's count is the integer sum of its slot
        columns.  The sums are small integers, so the result equals
        the float product ``slots @ onehot(slot_t)`` bit for bit,
        without handing a float product to BLAS (see DESIGN.md,
        "pool").
        """
        counts = np.zeros((self.n_transitions, len(table)), dtype=np.int64)
        slots = table[:, self.n_places:].T
        for slot, transition in enumerate(self.slot_t.tolist()):
            counts[transition] += slots[slot]
        return counts.T.astype(float, order="C")


class PackedNet:
    """Compiled arrays for batched execution of one net.

    Built by :func:`compile_packed`; not pickled (rebuilt per process
    from the net).  The settle delta carries a sentinel row at index
    ``n_transitions`` (a no-op transition) so inactive conflict classes
    apply as zero-cost vector rows.

    Settle rounds run on *settle rows*: the marking, then one column
    per gate inhibitor place holding its negated token count, then one
    per gate not-firing target of delay >= 1 holding its negated
    in-flight count (an immediate target is never in flight, so its
    condition always holds).  A gate condition "must be zero" is then
    the enabledness test of an input arc, ``column >= requirement``,
    with requirement 0; the settle delta keeps the extra columns in
    step as transitions start.  Ungated nets have settle rows equal to
    their markings.
    """

    def __init__(self, net: Net):
        self.net = net
        n_p = self.n_places = len(net.places)
        n_t = self.n_transitions = len(net.transitions)
        self.delays = np.array([int(t.delay) for t in net.transitions],
                               dtype=np.int64)
        self.freqs = np.array([float(t.frequency)
                               for t in net.transitions], dtype=np.float64)

        # slots: transition-major, remaining ascending
        slot_t, slot_r = [], []
        slot_base = np.full(n_t, -1, dtype=np.int64)
        for t in range(n_t):
            if self.delays[t] >= 1:
                slot_base[t] = len(slot_t)
                for r in range(1, int(self.delays[t]) + 1):
                    slot_t.append(t)
                    slot_r.append(r)
        self.layout = PackedLayout(
            n_places=n_p, n_transitions=n_t,
            slot_t=np.array(slot_t, dtype=np.int64),
            slot_r=np.array(slot_r, dtype=np.int64),
            slot_base=slot_base)
        width = self.layout.width

        # gate columns of the settle rows (see the class docstring)
        gates = [net.gate_indices(t) for t in net.transitions]
        self.gate_places = np.array(
            sorted({p for places, _ in gates for p in places}),
            dtype=np.int64)
        self.gate_ts = np.array(
            sorted({u for _, fired in gates for u in fired
                    if self.delays[u] >= 1}), dtype=np.int64)
        n_g = len(self.gate_places)
        self.settle_width = n_p + n_g + len(self.gate_ts)
        gate_col = {int(p): n_p + k for k, p in enumerate(self.gate_places)}
        busy_col = {int(u): n_p + n_g + k
                    for k, u in enumerate(self.gate_ts)}

        # arc matrices with the sentinel no-op row
        in_mat = np.zeros((n_t + 1, n_p), dtype=np.int32)
        out_imm = np.zeros((n_t + 1, n_p), dtype=np.int32)
        for t in net.transitions:
            for p, n in t.inputs.items():
                in_mat[t.index, p] = n
            if self.delays[t.index] == 0:
                for p, n in t.outputs.items():
                    out_imm[t.index, p] = n
        #: one-gather settle delta: immediate outputs minus inputs,
        #: mirrored (negated) into the gate columns; a started firing of
        #: a not-firing target adds one (negated) in-flight count
        self.settle_delta = np.zeros((n_t + 1, self.settle_width),
                                     dtype=np.int32)
        self.settle_delta[:, :n_p] = out_imm - in_mat
        self.settle_delta[:, n_p:n_p + n_g] = \
            -self.settle_delta[:, self.gate_places]
        for u, col in busy_col.items():
            self.settle_delta[u, col] = -1

        # advance phase: slots at remaining == 1 complete and deposit
        complete_cols, complete_t = [], []
        for k in range(self.layout.n_slots):
            if self.layout.slot_r[k] == 1:
                complete_cols.append(n_p + k)
                complete_t.append(int(self.layout.slot_t[k]))
        self.complete_cols = np.array(complete_cols, dtype=np.int64)
        self.complete_out = np.zeros((len(complete_t), n_p),
                                     dtype=np.int32)
        for row, t_idx in enumerate(complete_t):
            for p, n in net.transitions[t_idx].outputs.items():
                self.complete_out[row, p] = n
        # countdown: slot (t, r) receives the count of (t, r + 1)
        shift_src, shift_dst = [], []
        for k in range(self.layout.n_slots):
            if self.layout.slot_r[k] >= 2:
                shift_src.append(n_p + k)
                shift_dst.append(n_p + k - 1)
        self.shift_src = np.array(shift_src, dtype=np.int64)
        self.shift_dst = np.array(shift_dst, dtype=np.int64)

        # a started firing of t lands in slot (t, delay): these gather
        # a successor's deposited in-flight counts from its start counts
        self.dep_ts = np.array(
            [t for t in range(n_t) if self.delays[t] >= 1],
            dtype=np.int64)
        self.dep_cols = np.array(
            [n_p + slot_base[t] + self.delays[t] - 1
             for t in self.dep_ts], dtype=np.int64)

        # conflict classes, restricted to positive-frequency members
        # (zero-frequency transitions never join a weighted choice)
        self.classes: list[tuple[int, ...]] = []
        self.cls_index: list[int] = []
        members_flat: list[int] = []
        class_offsets: list[int] = []
        member_bit: list[int] = []
        member_class_start: list[int] = []
        class_of_member: list[int] = []
        for ci, cls in enumerate(net.conflict_classes()):
            positive = tuple(t for t in cls if self.freqs[t] > 0)
            if not positive:
                continue
            start = len(members_flat)
            class_offsets.append(start)
            self.classes.append(positive)
            self.cls_index.append(ci)
            for rank, t in enumerate(positive):
                members_flat.append(t)
                member_bit.append(1 << rank)
                member_class_start.append(start)
                class_of_member.append(len(self.classes) - 1)
        self.members_flat = np.array(members_flat, dtype=np.int64)
        self.class_offsets = np.array(class_offsets, dtype=np.int64)
        self.member_bit = np.array(member_bit, dtype=np.int64)
        self.member_class_start = np.array(member_class_start,
                                           dtype=np.int64)
        self.class_of_member = np.array(class_of_member, dtype=np.int64)
        self.cls_ids64 = np.array(self.cls_index, dtype=np.int64)
        self.n_cls = len(self.classes)
        # sparse form of the enabledness test: one (settle column,
        # requirement) pair per input arc and per gate condition of each
        # member, in member order; a dummy always-true pair for members
        # with no conditions so every reduceat segment is non-empty
        trip_place: list[int] = []
        trip_req: list[int] = []
        trip_offsets: list[int] = []
        for t in members_flat:
            trip_offsets.append(len(trip_place))
            places, fired = gates[t]
            conditions = sorted(net.transitions[t].inputs.items()) \
                + [(gate_col[p], 0) for p in places] \
                + [(busy_col[u], 0) for u in fired if u in busy_col]
            for col, req in conditions or [(0, 0)]:
                trip_place.append(col)
                trip_req.append(req)
        self.trip_place = np.array(trip_place, dtype=np.int64)
        self.trip_req = np.array(trip_req, dtype=np.int32)
        self.trip_offsets = np.array(trip_offsets, dtype=np.int64)

        #: per transition: its gate as (place, transition) index tuples
        self.gates = tuple(gates)

    def advance(self, rows: np.ndarray) -> np.ndarray:
        """State rows -> their post-advance (post-completion) rows.

        Slots at remaining == 1 complete and deposit their outputs;
        the rest count down one tick.  A state's successors, and so
        its row of P, are a function of this row alone.
        """
        n_p = self.n_places
        adv = np.zeros((len(rows), self.layout.width), dtype=np.int32)
        adv[:, :n_p] = rows[:, :n_p] \
            + rows[:, self.complete_cols] @ self.complete_out
        adv[:, self.shift_dst] = rows[:, self.shift_src]
        return adv

    def settle_rows(self, rows: np.ndarray) -> np.ndarray:
        """Post-advance full-width rows -> their settle rows."""
        n_p = self.n_places
        if self.settle_width == n_p:
            return rows[:, :n_p]
        out = np.empty((len(rows), self.settle_width), dtype=np.int32)
        out[:, :n_p] = rows[:, :n_p]
        n_g = len(self.gate_places)
        out[:, n_p:n_p + n_g] = -rows[:, self.gate_places]
        for k, u in enumerate(self.gate_ts):
            base = n_p + self.layout.slot_base[u]
            out[:, n_p + n_g + k] = \
                -rows[:, base:base + self.delays[u]].sum(axis=1)
        return out



def compile_packed(net: Net) -> PackedNet:
    """Compile *net* for the packed engine.

    Raises :class:`AnalysisError` when the net exceeds the packed row
    or factor-mask caps.
    """
    pnet = PackedNet(net)
    if pnet.layout.width > MAX_PACKED_WIDTH:
        raise AnalysisError(
            f"net {net.name!r}: packed rows would be "
            f"{pnet.layout.width} columns wide (cap {MAX_PACKED_WIDTH})")
    if any(len(members) > MAX_CLASS_MEMBERS for members in pnet.classes):
        raise AnalysisError(
            f"net {net.name!r}: a conflict class has more than "
            f"{MAX_CLASS_MEMBERS} positive-frequency members")
    return pnet


# ----------------------------------------------------------------------
# hash-consed row interning
# ----------------------------------------------------------------------

def _row_view(arr: np.ndarray) -> np.ndarray:
    """1-D void view of a 2-D array: one comparable scalar per row."""
    arr = np.ascontiguousarray(arr)
    return arr.view(np.dtype((np.void,
                              arr.dtype.itemsize * arr.shape[1]))).ravel()


#: Fibonacci-style mixing constant for the row hash (deterministic
#: across runs and platforms; wraparound is numpy's defined uint64
#: behaviour).
_HASH_MULT = 0x9E3779B97F4A7C15
_hash_weights = np.array([], dtype=np.uint64)


def _row_hashes(arr: np.ndarray) -> np.ndarray:
    """One deterministic 64-bit hash per row.

    A weighted column sum (odd fixed weights, wrapping uint64): one
    vectorized pass instead of a fold per column.  Linear, so weaker
    than a mixing fold — but every caller verifies hash groups against
    row content and falls back to the exact byte-sort path, so a
    collision can cost speed, never correctness.
    """
    global _hash_weights
    a = np.ascontiguousarray(arr)
    a = a.view(np.uint32 if a.dtype.itemsize == 4 else np.uint64)
    w = a.shape[1]
    if len(_hash_weights) < w:
        acc, weights = 1, []
        for _ in range(max(w, 64)):
            acc = (acc * _HASH_MULT) % (1 << 64)
            weights.append(acc | 1)
        _hash_weights = np.array(weights, dtype=np.uint64)
    return a @ _hash_weights[:w]


def _unique_rows_exact(arr: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Byte-sort row dedup: the always-correct (slower) path."""
    _, first, inverse = np.unique(_row_view(arr), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return first[order], rank[inverse]


def _unique_rows_first_seen(arr: np.ndarray,
                            hashes: np.ndarray | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """``(firsts, inverse)`` with uniques ranked in first-seen order.

    ``firsts[k]`` is the row index of the first occurrence of the k-th
    distinct row *in order of appearance*; ``inverse`` maps every row
    to its first-seen rank.  (``np.unique`` alone ranks lexically,
    which would scramble the tick engine's accumulation order.)

    Dedups by 64-bit row hash — sorting scalars beats memcmp-sorting
    wide rows — then *verifies* every row equals its hash group's
    head, so a collision can only ever divert to the exact byte-sort
    path, never corrupt the grouping.  Pass *hashes* to reuse an
    already-computed ``_row_hashes(arr)``.
    """
    arr = np.ascontiguousarray(arr)
    h = _row_hashes(arr) if hashes is None else hashes
    _, first, inverse = np.unique(h, return_index=True,
                                  return_inverse=True)
    if not (arr == arr[first[inverse]]).all():
        return _unique_rows_exact(arr)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return first[order], rank[inverse]


class _Interner:
    """Grow-doubling state table with hash-probed row identity.

    Lookup is a ``searchsorted`` against the sorted hashes of every
    interned row; each hash hit is then *verified* against the stored
    row bytes (and equal-hash runs scanned exhaustively), so a 64-bit
    collision only ever costs a scan, never a wrong id.  Fresh ids are
    assigned in first-seen order, matching the historical dict walk.
    """

    def __init__(self, width: int):
        self._table = np.empty((1024, max(width, 1)), dtype=np.int32)
        self._width = width
        self._hashes = np.empty(1024, dtype=np.uint64)
        self._sorted = np.empty(0, dtype=np.uint64)
        self._perm = np.empty(0, dtype=np.int64)
        self.n = 0

    def intern(self, rows: np.ndarray) -> np.ndarray:
        """Ids for *rows*, assigning fresh ids in first-seen order."""
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        h = _row_hashes(rows)
        left = np.searchsorted(self._sorted, h, side="left")
        right = np.searchsorted(self._sorted, h, side="right")
        ids = np.full(len(rows), -1, dtype=np.int64)
        single = (right - left) == 1
        if single.any():
            cand = self._perm[left[single]]
            hit = (self._table[cand] == rows[single]).all(axis=1)
            sel = np.nonzero(single)[0][hit]
            ids[sel] = cand[hit]
        for k in np.nonzero((right - left) > 1)[0]:
            for cid in self._perm[left[k]:right[k]]:
                if (self._table[cid] == rows[k]).all():
                    ids[k] = cid
                    break
        fresh = np.nonzero(ids < 0)[0]
        if len(fresh):
            # only the unseen rows need the in-batch first-seen dedup
            fr = np.ascontiguousarray(rows[fresh])
            fh = h[fresh]
            firsts, inv = _unique_rows_first_seen(fr, fh)
            uniq = np.ascontiguousarray(fr[firsts])
            uh = fh[firsts]
            start, count = self.n, len(firsts)
            while start + count > len(self._table):
                grown = np.empty((len(self._table) * 2, self._width),
                                 dtype=np.int32)
                grown[:start] = self._table[:start]
                self._table = grown
                grown_h = np.empty(len(self._table), dtype=np.uint64)
                grown_h[:start] = self._hashes[:start]
                self._hashes = grown_h
            new_ids = start + np.arange(count, dtype=np.int64)
            self._table[start:start + count] = uniq
            self._hashes[start:start + count] = uh
            ids[fresh] = new_ids[inv]
            self.n = start + count
            order = np.argsort(uh, kind="stable")
            pos = np.searchsorted(self._sorted, uh[order])
            self._sorted = np.insert(self._sorted, pos, uh[order])
            self._perm = np.insert(self._perm, pos, new_ids[order])
        return ids

    def table(self) -> np.ndarray:
        return self._table[:self.n].copy()

    def rows_from(self, start: int) -> np.ndarray:
        """View of the rows interned at ids ``start..n`` (no copy)."""
        return self._table[start:self.n]


# ----------------------------------------------------------------------
# factor programs and their one-shot evaluation
# ----------------------------------------------------------------------

@dataclass
class _EvalData:
    """Everything the evaluation stages need; shared by build and retime.

    Factor keys pack ``(class_index << 48) | (enabled_mask << 8) |
    digit`` where the mask runs over the class's positive-frequency
    members and ``digit`` ranks the chosen member among the enabled
    ones.  Decoded here into gather-ready index arrays: ``f_members``
    rows pad with ``n_transitions`` (frequency 0.0, the additive
    identity of the left-fold total), ``prog_fids`` pads with the
    sentinel factor (value 1.0, the multiplicative identity), so padded
    vector folds reproduce the tick engine's variable-length Python
    folds bit for bit.  ``prog_fids`` is stored round-major, one
    contiguous row of every program's factor ids per (round, column),
    so a fold step multiplies whole contiguous rows.
    """

    f_chosen: np.ndarray        # (F,) transition index per factor
    f_members: np.ndarray       # (F, K) enabled members, padded n_t
    prog_fids: np.ndarray       # (R, C, n_progs) factor ids, padded F
    item_pid: np.ndarray        # per work item, its program
    item_branch: np.ndarray     # per work item, its deduped branch
    n_branches: int
    b_entry: np.ndarray         # (n_branches,) CSR entry index
    s_branch: np.ndarray        # sparse starts: branch index,
    s_cell: np.ndarray          # flat (state, transition) cell, count
    s_cnt: np.ndarray
    i_item_pid: np.ndarray      # initial-distribution items/branches
    i_item_branch: np.ndarray
    n_i_branches: int
    i_dst: np.ndarray           # (n_i_branches,) state id


def _branch_values(ev: _EvalData, freqs: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Factor values -> (program values, branch probabilities).

    Replays the tick engine's float order exactly: per-factor totals
    are left folds over enabled members, per-item probabilities are
    per-round products folded round by round, and every weighted
    ``np.bincount`` accumulates sequentially in the same first-seen
    order the dict-based build used.  The matrix data, expected starts
    and initial distribution are each one more ``bincount`` over these
    two vectors (:func:`_entry_data`, :func:`_starts_matrix`,
    :func:`_initial_vector`), which a graph runs only when it is read.
    """
    freqs_ext = np.zeros(len(freqs) + 1)
    freqs_ext[:-1] = freqs
    n_factors = len(ev.f_chosen)
    total = np.zeros(n_factors)
    for k in range(ev.f_members.shape[1]):
        total = total + freqs_ext[ev.f_members[:, k]]
    fvals_ext = np.ones(n_factors + 1)
    np.divide(freqs_ext[ev.f_chosen], total, out=fvals_ext[:-1])

    # one gather of every factor, then the per-round left folds of all
    # rounds at once, column by column, then the fold over rounds
    factors = fvals_ext[ev.prog_fids]
    rounds = factors[:, 0].copy()
    for c in range(1, factors.shape[1]):
        rounds *= factors[:, c]
    prog_values = rounds[0]
    for r in range(1, len(rounds)):
        prog_values = prog_values * rounds[r]

    branch_vals = np.bincount(ev.item_branch,
                              weights=prog_values[ev.item_pid],
                              minlength=ev.n_branches)
    return prog_values, branch_vals


def _entry_data(ev: _EvalData, branch_vals: np.ndarray,
                n_entries: int) -> np.ndarray:
    """``P.data`` over the skeleton's CSR pattern."""
    return np.bincount(ev.b_entry, weights=branch_vals,
                       minlength=n_entries)


def _starts_matrix(ev: _EvalData, branch_vals: np.ndarray,
                   n_states: int, n_transitions: int) -> np.ndarray:
    """Expected firing starts per (state, transition) during a tick."""
    return np.bincount(
        ev.s_cell, weights=branch_vals[ev.s_branch] * ev.s_cnt,
        minlength=n_states * n_transitions,
    ).reshape(n_states, n_transitions)


def _initial_vector(ev: _EvalData, prog_values: np.ndarray,
                    n_states: int) -> np.ndarray:
    """The time-zero distribution over states."""
    init_branch_vals = np.bincount(ev.i_item_branch,
                                   weights=prog_values[ev.i_item_pid],
                                   minlength=ev.n_i_branches)
    return np.bincount(ev.i_dst, weights=init_branch_vals,
                       minlength=n_states)


def _evaluate(ev: _EvalData, freqs: np.ndarray, n_states: int,
              n_transitions: int, n_entries: int,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stage at once: ``(data, starts_matrix, init_vec)``.

    The eager form of what a :class:`ReachabilityGraph` evaluates on
    first read; both run the same stage functions on the same arrays.
    """
    prog_values, branch_vals = _branch_values(ev, freqs)
    return (_entry_data(ev, branch_vals, n_entries),
            _starts_matrix(ev, branch_vals, n_states, n_transitions),
            _initial_vector(ev, prog_values, n_states))


# ----------------------------------------------------------------------
# the packed skeleton (cached per structure, shared across retimes)
# ----------------------------------------------------------------------

@dataclass
class PackedSkeleton:
    """Timing-independent bones of a packed build.

    Stores the interned state table, the CSR sparsity pattern, and the
    factor/program bookkeeping; :func:`packed_retime` re-evaluates the
    probabilities for new frequencies in-place on this structure.
    Shared through the skeleton store: treat every field as read-only.
    ``advance_class`` labels each table row with the first-seen rank
    of its post-advance row (see :meth:`PackedNet.advance`); rows of P
    in one class are equal, which is what lets the stationary solve
    factor the class chain.  The pattern has no empty row (checked at
    build).  What the graphs of every timing share, the solve plan,
    the closed-class count and the float marking matrix, is derived on
    first demand and kept here.
    """

    structure: str              # structure fingerprint
    n_places: int
    n_transitions: int
    static_delays: tuple
    freq_positive: tuple        # per transition: frequency > 0
    gates: tuple                # per transition: gate index tuples
    layout: PackedLayout
    table: np.ndarray           # (n_states, width) packed state rows
    indptr: np.ndarray
    indices: np.ndarray
    advance_class: np.ndarray   # per table row, first-seen
    ev: _EvalData
    inflight_matrix: np.ndarray
    closed_classes: int | None = None   # None until first demanded
    plan: SolvePlan | None = None       # None until first demanded
    marking: np.ndarray | None = None   # None until first read

    @property
    def state_count(self) -> int:
        return len(self.table)

    def closed_class_count(self) -> int:
        """Closed communicating classes of the chain (lazy, cached).

        The sparsity pattern (hence the reachability structure) is
        timing-invariant while the frequency support holds, so the
        class count is a skeleton fact, counted on the pattern the
        first time a solver asks.
        """
        if self.closed_classes is None:
            n_states = self.state_count
            self.closed_classes = _closed_class_count(sp.csr_matrix(
                (np.ones(len(self.indices)), self.indices, self.indptr),
                shape=(n_states, n_states)))
        return self.closed_classes

    def solve_plan(self) -> SolvePlan:
        """The stationary solve's plan for this structure (lazy, cached),
        over the chain's pattern and advance classes."""
        if self.plan is None:
            self.plan = build_solve_plan(self.indptr, self.indices,
                                         self.advance_class)
        return self.plan

    def marking_matrix(self) -> np.ndarray:
        """Token counts of the states as floats (lazy, cached)."""
        if self.marking is None:
            self.marking = self.table[:, :self.n_places].astype(float)
        return self.marking

    def starts_matrix(self, branch_vals: np.ndarray) -> np.ndarray:
        """Expected starts of the states from branch values."""
        return _starts_matrix(self.ev, branch_vals, self.state_count,
                              self.n_transitions)

    def initial_vector(self, prog_values: np.ndarray) -> np.ndarray:
        """Time-zero distribution over the states."""
        return _initial_vector(self.ev, prog_values, self.state_count)


# ----------------------------------------------------------------------
# the batched builder
# ----------------------------------------------------------------------

class _Bookkeeper:
    """Accumulates per-wave branch/program records for `_EvalData`."""

    def __init__(self) -> None:
        self.b_src: list[np.ndarray] = []
        self.b_dst: list[np.ndarray] = []
        self.s_branch: list[np.ndarray] = []
        self.s_t: list[np.ndarray] = []
        self.s_cnt: list[np.ndarray] = []
        self.item_branch: list[np.ndarray] = []
        self.item_pid: list[np.ndarray] = []
        self.n_branches = 0
        self.i_dst: np.ndarray | None = None
        self.i_item_branch: np.ndarray | None = None
        self.i_item_pid: np.ndarray | None = None
        self.n_i_branches = 0
        self.prog_rows: np.ndarray | None = None

    def intern_progs(self, prog_flat: np.ndarray,
                     n_cls: int) -> np.ndarray:
        """Program ids for the build's padded factor-key rows.

        Programs stay in their padded row form — a ``-1`` key maps to
        the sentinel factor (value 1.0) at evaluation, and multiplying
        by exactly 1.0 preserves every bit of the product — so ids are
        just first-seen row ranks; no per-row Python decode.
        """
        n_items = len(prog_flat)
        if prog_flat.shape[1] == 0:
            self.prog_rows = np.zeros((min(n_items, 1), 0),
                                      dtype=np.int64)
            return np.zeros(n_items, dtype=np.int64)
        firsts, inverse = _unique_rows_first_seen(prog_flat)
        self.prog_rows = np.ascontiguousarray(prog_flat[firsts])
        return inverse


def _settle_markings(pnet: PackedNet, markings: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """Run settle rounds for a batch of settle rows, vectorized.

    The settle phase reads the in-flight slots only through the gate
    columns of the settle row (a delayed firing started mid-settle
    deposits nothing until later ticks), so it is a function of the
    settle row alone — which is what lets :class:`_SettleMemo` run it
    once per distinct settle row.

    Returns the quiescent ``(settle rows, starts, src, prog_flat)`` with
    items restored to source-major order (each source's items
    round-major within it), matching the tick engine's per-state
    ``done`` enumeration.
    """
    n_p, n_t = pnet.n_places, pnet.n_transitions
    n_cls = pnet.n_cls
    work = np.ascontiguousarray(markings, dtype=np.int32).copy()
    src = np.arange(len(work), dtype=np.int64)
    starts = np.zeros((len(work), n_t + 1), dtype=np.int32)
    prog = np.zeros((len(work), 0), dtype=np.int64)
    done_work: list[np.ndarray] = []
    done_starts: list[np.ndarray] = []
    done_src: list[np.ndarray] = []
    done_prog: list[np.ndarray] = []
    rounds = 0
    while len(work):
        rounds += 1
        if rounds > MAX_IMMEDIATE_ROUNDS:
            raise AnalysisError(
                f"net {pnet.net.name!r}: settle rounds did not reach "
                f"quiescence in {MAX_IMMEDIATE_ROUNDS} rounds "
                "(unbounded zero-time loop?)")
        if n_cls == 0:
            alive = np.zeros(len(work), dtype=bool)
            enb = np.zeros((len(work), 0), dtype=np.int32)
            cnt = np.zeros((len(work), 0), dtype=np.int64)
        else:
            ok = (work[:, pnet.trip_place] >= pnet.trip_req[None, :]) \
                .astype(np.int32)
            enb = np.minimum.reduceat(ok, pnet.trip_offsets, axis=1)
            cnt = np.add.reduceat(enb, pnet.class_offsets,
                                  axis=1).astype(np.int64)
            alive = cnt.any(axis=1)
        if not alive.all():
            quiet = ~alive
            done_work.append(work[quiet])
            done_starts.append(starts[quiet, :n_t])
            done_src.append(src[quiet])
            done_prog.append(prog[quiet])
            work, starts, src, prog = (work[alive], starts[alive],
                                       src[alive], prog[alive])
            enb, cnt = enb[alive], cnt[alive]
        if not len(work):
            break

        # mixed-radix expansion of the per-class cross product:
        # class 0 is the slowest-varying digit (the cross-product order
        # of the oracle tick engine in tests/gtpn/conftest.py)
        c1 = np.maximum(cnt, 1)
        combos = c1.prod(axis=1)
        rep = np.repeat(np.arange(len(work)), combos)
        n_items = len(rep)
        offsets = np.cumsum(combos) - combos
        rank = np.arange(n_items, dtype=np.int64) \
            - np.repeat(offsets, combos)
        rev_cp = np.cumprod(c1[:, ::-1], axis=1)
        strides = np.concatenate(
            [rev_cp[:, -2::-1],
             np.ones((len(work), 1), dtype=np.int64)], axis=1)
        digit = (rank[:, None] // strides[rep]) % c1[rep]

        # the digit-th enabled member of each class, via prefix ranks
        enb_rep = enb[rep]
        cnt_rep = cnt[rep]
        prefix = np.cumsum(enb_rep, axis=1) - enb_rep     # exclusive
        rank_in_class = prefix - prefix[:, pnet.member_class_start]
        hot = (enb_rep == 1) \
            & (rank_in_class == digit[:, pnet.class_of_member])
        chosen = np.add.reduceat(
            hot * (pnet.members_flat + 1)[None, :],
            pnet.class_offsets, axis=1) - 1
        chosen_t = np.where(chosen >= 0, chosen, n_t)

        # factor keys: (class << 48) | (enabled mask << 8) | digit
        mask = np.add.reduceat(enb_rep * pnet.member_bit[None, :],
                               pnet.class_offsets, axis=1)
        keys = np.where(cnt_rep > 0,
                        (pnet.cls_ids64[None, :] << 48)
                        | (mask << 8) | digit,
                        np.int64(-1))

        # apply every class's choice: inputs out, immediate outputs in
        # (delayed outputs wait for completion in later ticks); record
        # the started firings — the sentinel row of settle_delta and
        # the scratch starts column swallow inactive classes
        work = work[rep]
        work += pnet.settle_delta[chosen_t, :].sum(axis=1,
                                                   dtype=np.int32)
        starts = starts[rep]
        # one fancy-index add per class: a class chooses at most one
        # transition per item, so indices are duplicate-free per row
        # (inactive classes hit the scratch sentinel column)
        rows_idx = np.arange(n_items)
        for c in range(chosen_t.shape[1]):
            starts[rows_idx, chosen_t[:, c]] += 1
        prog = np.concatenate([prog[rep], keys], axis=1)
        src = src[rep]

    total_width = max((p.shape[1] for p in done_prog), default=0)
    d_prog = np.concatenate([
        np.pad(p, ((0, 0), (0, total_width - p.shape[1])),
               constant_values=-1) for p in done_prog]) \
        if done_prog else np.zeros((0, 0), dtype=np.int64)
    d_work = np.concatenate(done_work) if done_work \
        else np.zeros((0, pnet.settle_width), dtype=np.int32)
    d_starts = np.concatenate(done_starts) if done_starts \
        else np.zeros((0, n_t), dtype=np.int32)
    d_src = np.concatenate(done_src) if done_src \
        else np.zeros(0, dtype=np.int64)
    # back to source-major order (stable: keeps round-major within a
    # source), matching the tick engine's per-state done list
    order = np.argsort(d_src, kind="stable")
    return d_work[order], d_starts[order], d_src[order], d_prog[order]


class _SettleMemo:
    """Settle-once cache: post-advance settle row -> quiescent outcomes.

    The reachable set distinguishes states by marking *and* in-flight
    slots, but the settle outcome is a function of the settle row alone
    (the marking, plus the gate columns of a gated net, see
    :class:`PackedNet`) — typically orders of magnitude fewer distinct
    values.  Each new settle row is settled once (batched with the
    wave's other new rows) and its done items, cut back to markings,
    appended to flat result arrays; ``lookup`` returns per-row
    ``[lo, hi)`` windows into them.
    """

    def __init__(self, pnet: PackedNet, books: "_Bookkeeper"):
        self._pnet = pnet
        self._books = books
        self._mark_ids = _Interner(pnet.settle_width)
        self._starts_ids = _Interner(pnet.n_transitions)
        self._prog_batches: list[np.ndarray] = []
        self._n_items = 0
        n_p, n_t = pnet.n_places, pnet.n_transitions
        self.marks = np.zeros((0, n_p), dtype=np.int32)
        self.starts = np.zeros((0, n_t), dtype=np.int32)
        self.pids: np.ndarray | None = None
        #: content id of each item's starts row — equal id iff equal
        #: start counts, which lets branch dedup key on a scalar
        self.sids = np.zeros(0, dtype=np.int64)
        self._lo = np.zeros(0, dtype=np.int64)
        self._hi = np.zeros(0, dtype=np.int64)

    def lookup(self, markings: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        known = self._mark_ids.n
        mids = self._mark_ids.intern(markings)
        n_new = self._mark_ids.n - known
        if n_new:
            # the interner appended the unseen markings in first-seen
            # order; settle exactly that batch
            d_mark, d_starts, d_src, d_prog = _settle_markings(
                self._pnet, self._mark_ids.rows_from(known))
            self._prog_batches.append(d_prog)
            sids = self._starts_ids.intern(d_starts)
            base = self._n_items
            counts = np.bincount(d_src, minlength=n_new)
            ends = base + np.cumsum(counts)
            self._lo = np.concatenate([self._lo, ends - counts])
            self._hi = np.concatenate([self._hi, ends])
            self.marks = np.concatenate(
                [self.marks, d_mark[:, :self._pnet.n_places]])
            self.starts = np.concatenate([self.starts, d_starts])
            self.sids = np.concatenate([self.sids, sids])
            self._n_items = int(ends[-1]) if len(ends) else base
        return self._lo[mids], self._hi[mids]

    def finalize_pids(self) -> np.ndarray:
        """Intern every batch's factor-key rows in one call.

        Deferred to the end of the build: program ids are only *read*
        once the wave loop is done, and a single padded batch amortizes
        the row-dedup/decode overhead.  Batch concatenation preserves
        item order, so ids are assigned in exactly the order the
        incremental per-batch interning would have used.
        """
        if self.pids is None:
            n_cols = max((b.shape[1] for b in self._prog_batches),
                         default=0)
            batches = [
                b if b.shape[1] == n_cols else
                np.pad(b, ((0, 0), (0, n_cols - b.shape[1])),
                       constant_values=-1)
                for b in self._prog_batches]
            rows = np.concatenate(batches) if batches \
                else np.zeros((0, 0), dtype=np.int64)
            self.pids = self._books.intern_progs(rows, self._pnet.n_cls)
        return self.pids


def _unique_scalars_first_seen(key: np.ndarray,
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Scalar-key counterpart of :func:`_unique_rows_first_seen`."""
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return first[order], rank[inverse]


def _dedup_branches(dst: np.ndarray, src: np.ndarray,
                    sids: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """First-seen branch dedup by ``(src, successor, starts)``.

    The tick engine merges settle outcomes with identical successor
    *and* start counts before accumulating rows; replicating the merge
    (and its order) keeps every downstream float identical.  The
    starts row is represented by the memo's content id (*sids* —
    equal id iff equal counts), so the usual case dedups on one
    injective int64 key per item.
    """
    if not len(src):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    m_dst = int(dst.max()) + 1
    m_sid = int(sids.max()) + 1
    if (int(src.max()) + 1) * m_dst * m_sid < (1 << 62):
        return _unique_scalars_first_seen(
            (src * m_dst + dst) * m_sid + sids)
    return _unique_rows_first_seen(
        np.stack([src, dst, sids], axis=1))


def packed_build(net: Net, pnet: PackedNet | None = None, *,
                 max_states: int, structure: str = "",
                 ) -> tuple[ReachabilityGraph, PackedSkeleton]:
    """Breadth-first build of the embedded chain, a wave at a time.

    Returns ``(graph, skeleton)``; the graph is bit-identical to a
    breadth-first walk over tick-engine ticks, the skeleton re-times
    under new frequencies via :func:`packed_retime`.
    """
    if pnet is None:
        pnet = compile_packed(net)
    net.validate()
    n_p, n_t = pnet.n_places, pnet.n_transitions
    width = pnet.layout.width
    interner = _Interner(width)
    books = _Bookkeeper()

    def intern_successors(rows: np.ndarray, explored: int) -> np.ndarray:
        ids = interner.intern(rows)
        if interner.n > max_states:
            raise StateSpaceLimitError(net.name, interner.n,
                                       interner.n - explored, max_states)
        return ids

    memo = _SettleMemo(pnet, books)

    def expand(adv: np.ndarray, explored: int,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Settle a batch of *distinct* advanced rows through the memo.

        *adv* holds post-advance full-width rows; the memo settles
        each distinct settle row once.  A successor's packed row is fully
        determined by the (settle item, source slots) pair — item
        marking plus the source's in-flight slots plus the deposits of
        delayed firings started during the settle — so only one
        representative row per distinct pair is materialized and
        interned; every other item maps through the pair key.
        Returns ``(dst, rep, gidx)`` in row-major, round-major item
        order, *rep* indexing into *adv*.
        """
        lo, hi = memo.lookup(pnet.settle_rows(adv))
        k = hi - lo
        total = int(k.sum())
        rep = np.repeat(np.arange(len(adv)), k)
        offsets = np.cumsum(k) - k
        gidx = lo[rep] + np.arange(total, dtype=np.int64) \
            - offsets[rep]
        _, slot_inv = _unique_rows_first_seen(adv[:, n_p:])
        pfirst, pinv = _unique_scalars_first_seen(
            gidx * np.int64(len(adv) + 1) + slot_inv[rep])
        rows = adv[rep[pfirst]]
        g_rep = gidx[pfirst]
        rows[:, :n_p] = memo.marks[g_rep]
        # a delayed firing started mid-settle lands in slot (t, delay)
        rows[:, pnet.dep_cols] += \
            memo.starts[g_rep[:, None], pnet.dep_ts[None, :]]
        return intern_successors(rows, explored)[pinv], rep, gidx

    def expand_wave(adv: np.ndarray, base: int, explored: int,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand a wave, deduping identical advanced rows first.

        Distinct states frequently advance to the same full row (the
        completions deposit erases where the tokens came from); every
        such group shares its entire expansion.  Replicating the
        deduped item streams back per source preserves the tick
        engine's source-major enumeration — and its successor
        first-seen order, because the distinct rows are ranked by
        their first source, so a successor's first appearance comes at
        the same source either way.
        """
        a_first, a_inv = _unique_rows_first_seen(adv)
        if len(a_first) == len(adv):
            dst, rep, gidx = expand(adv, explored)
            return dst, base + rep, gidx
        dst_u, rep_u, gidx_u = expand(
            np.ascontiguousarray(adv[a_first]), explored)
        ku = np.bincount(rep_u, minlength=len(a_first))
        u_off = np.cumsum(ku) - ku
        counts = ku[a_inv]
        rep_s = np.repeat(np.arange(len(adv)), counts)
        s_off = np.cumsum(counts) - counts
        idx = u_off[a_inv[rep_s]] \
            + np.arange(len(rep_s), dtype=np.int64) - s_off[rep_s]
        return dst_u[idx], base + rep_s, gidx_u[idx]

    # initial settle: the pseudo-source feeding the time-zero
    # distribution (no starts are recorded for it)
    init_adv = np.zeros((1, width), dtype=np.int32)
    init_adv[0, :n_p] = net.initial_marking
    dst, src, gidx = expand_wave(init_adv, 0, 0)
    firsts, item_branch = _dedup_branches(dst, src, memo.sids[gidx])
    books.i_dst = dst[firsts]
    books.i_item_branch = item_branch
    i_gidx = gidx
    books.n_i_branches = len(firsts)
    wave_gidx: list[np.ndarray] = []

    explored = 0
    while explored < interner.n:
        hi = min(interner.n, explored + WAVE_CHUNK)
        obs.add("gtpn.frontier", hi - explored)
        adv = pnet.advance(interner._table[explored:hi])
        dst, src, gidx = expand_wave(adv, explored, hi)
        explored = hi
        firsts, item_branch = _dedup_branches(dst, src,
                                              memo.sids[gidx])
        b_starts = memo.starts[gidx[firsts]]
        s_b, s_t = np.nonzero(b_starts)
        books.b_src.append(src[firsts])
        books.b_dst.append(dst[firsts])
        books.s_branch.append(s_b + books.n_branches)
        books.s_t.append(s_t)
        books.s_cnt.append(b_starts[s_b, s_t].astype(np.int64))
        books.item_branch.append(item_branch + books.n_branches)
        wave_gidx.append(gidx)
        books.n_branches += len(firsts)
    pids = memo.finalize_pids()
    books.i_item_pid = pids[i_gidx]
    books.item_pid = [pids[g] for g in wave_gidx]
    skeleton = _finalize_skeleton(net, pnet, interner, books, structure)
    graph = _materialize(skeleton, net, pnet.freqs)
    return graph, skeleton


def _finalize_skeleton(net: Net, pnet: PackedNet, interner: _Interner,
                       books: _Bookkeeper, structure: str) -> PackedSkeleton:
    n_states, n_t = interner.n, pnet.n_transitions

    # factor table straight from the padded program rows: a row-major
    # scan skipping -1 visits keys in exactly the order the canonical
    # per-round walk would, so first-seen factor ids are unchanged
    rows = books.prog_rows if books.prog_rows is not None \
        else np.zeros((0, 0), dtype=np.int64)
    flat = rows.reshape(-1)
    real = flat != -1
    keys = flat[real]
    if len(keys):
        kfirsts, kinv = _unique_scalars_first_seen(keys)
        ukeys = keys[kfirsts].tolist()
    else:
        kinv = np.zeros(0, dtype=np.int64)
        ukeys = []
    n_factors = len(ukeys)
    f_chosen = np.zeros(n_factors, dtype=np.int64)
    members_len = 0
    decoded = []
    for key in ukeys:
        ci = key >> 48
        mask = (key >> 8) & ((1 << MAX_CLASS_MEMBERS) - 1)
        digit = key & 0xff
        members = pnet.classes[pnet.cls_index.index(ci)]
        enabled = [m for k, m in enumerate(members) if (mask >> k) & 1]
        f_chosen[len(decoded)] = enabled[digit]
        decoded.append(enabled)
        members_len = max(members_len, len(enabled))
    f_members = np.full((n_factors, max(members_len, 1)), n_t,
                        dtype=np.int64)
    for fid, enabled in enumerate(decoded):
        f_members[fid, :len(enabled)] = enabled

    # padded -1 keys become the sentinel factor (1.0): multiplying by
    # exactly 1.0 is bit-exact, so no per-round compaction is needed
    fid_flat = np.full(len(flat), n_factors, dtype=np.int64)
    fid_flat[real] = kinv
    n_cols = rows.shape[1]
    n_cls = max(pnet.n_cls, 1)
    if n_cols:
        prog_fids = np.ascontiguousarray(fid_flat.reshape(
            len(rows), n_cols // n_cls, n_cls).transpose(1, 2, 0))
    else:
        prog_fids = np.full((1, 1, len(rows)), n_factors,
                            dtype=np.int64)

    b_src = np.concatenate(books.b_src) if books.b_src \
        else np.zeros(0, dtype=np.int64)
    b_dst = np.concatenate(books.b_dst) if books.b_dst \
        else np.zeros(0, dtype=np.int64)
    # entry ids sorted by (src, dst) give the CSR pattern directly;
    # branch streams are already source-major so `inverse` respects
    # the tick engine's per-row accumulation order
    ekey = b_src * np.int64(n_states + 1) + b_dst
    entries, b_entry = np.unique(ekey, return_inverse=True)
    e_src = entries // (n_states + 1)
    # in the index dtype scipy would pick, so every re-timed matrix
    # wraps these arrays instead of converting a copy
    idx_dtype = np.int32 if len(entries) <= np.iinfo(np.int32).max \
        else np.int64
    indices = (entries % (n_states + 1)).astype(idx_dtype)
    indptr = np.cumsum(np.bincount(e_src + 1, minlength=n_states + 1),
                       dtype=idx_dtype)
    indices.flags.writeable = indptr.flags.writeable = False
    empty = np.flatnonzero(np.diff(indptr) == 0)
    if len(empty):
        raise AnalysisError(
            f"net {net.name!r}: state {int(empty[0])} is absorbing "
            "with no successors; the embedded chain is not well formed")

    s_branch = np.concatenate(books.s_branch) if books.s_branch \
        else np.zeros(0, dtype=np.int64)
    s_t = np.concatenate(books.s_t) if books.s_t \
        else np.zeros(0, dtype=np.int64)
    ev = _EvalData(
        f_chosen=f_chosen, f_members=f_members, prog_fids=prog_fids,
        item_pid=np.concatenate(books.item_pid) if books.item_pid
        else np.zeros(0, dtype=np.int64),
        item_branch=np.concatenate(books.item_branch)
        if books.item_branch else np.zeros(0, dtype=np.int64),
        n_branches=books.n_branches, b_entry=b_entry,
        s_branch=s_branch, s_cell=b_src[s_branch] * n_t + s_t,
        s_cnt=np.concatenate(books.s_cnt) if books.s_cnt
        else np.zeros(0, dtype=np.int64),
        i_item_pid=books.i_item_pid, i_item_branch=books.i_item_branch,
        n_i_branches=books.n_i_branches, i_dst=books.i_dst)

    table = interner.table()
    inflight_matrix = pnet.layout.inflight_counts(table)
    # states with one post-advance row have one expansion, hence equal
    # rows of P: label them by the row the wave loop expanded
    _, advance_class = _unique_rows_first_seen(pnet.advance(table))

    skeleton = PackedSkeleton(
        structure=structure,
        n_places=pnet.n_places, n_transitions=n_t,
        static_delays=tuple(int(d) for d in pnet.delays),
        freq_positive=tuple(bool(f > 0) for f in pnet.freqs),
        gates=pnet.gates,
        layout=pnet.layout, table=table, indptr=indptr,
        indices=indices, advance_class=advance_class, ev=ev,
        inflight_matrix=inflight_matrix)
    return skeleton


def _materialize(skeleton: PackedSkeleton, net: Net,
                 freqs: np.ndarray) -> ReachabilityGraph:
    """Evaluate ``P.data`` on a skeleton and wrap it in a graph.

    The one materialization path of builds and re-times.  Only the
    branch probabilities and ``P.data`` are computed here; the graph
    builds its CSR matrix, expected starts and initial distribution
    from the same stage functions when they are first read.
    """
    prog_values, branch_vals = _branch_values(skeleton.ev, freqs)
    data = _entry_data(skeleton.ev, branch_vals, len(skeleton.indices))
    _check_row_sums(net, data, skeleton.indptr)
    return ReachabilityGraph(
        net=net, data=data, indptr=skeleton.indptr,
        indices=skeleton.indices,
        inflight_matrix=skeleton.inflight_matrix,
        packed_table=skeleton.table, packed_layout=skeleton.layout,
        skeleton=skeleton, freqs=freqs, program_values=prog_values,
        branch_values=branch_vals)


def packed_retime(skeleton: PackedSkeleton, net: Net, *,
                  max_states: int, freqs: np.ndarray | None = None,
                  ) -> ReachabilityGraph:
    """Re-evaluate a packed skeleton under *net*'s frequencies.

    Bit-identical to a fresh :func:`packed_build` of *net* (both end in
    the same :func:`_materialize` over the same arrays).  Raises
    :class:`SkeletonMismatch` when the skeleton does not apply; the
    caller falls back to a full build.

    ``freqs`` is *net*'s frequency vector, passed when *net* is a
    frequency-only variant of a validated net of the skeleton's
    structure: validation and the gate check, which a frequency change
    cannot fail, are skipped; the shape, delay and support checks
    still run.
    """
    if (len(net.places) != skeleton.n_places
            or len(net.transitions) != skeleton.n_transitions):
        raise SkeletonMismatch("net shape differs")
    if skeleton.state_count > max_states:
        raise SkeletonMismatch("skeleton exceeds max_states")
    if freqs is None:
        net.validate()
        if tuple(net.gate_indices(t) for t in net.transitions) \
                != skeleton.gates:
            raise SkeletonMismatch("gates differ")
        freqs = np.array([float(t.frequency) for t in net.transitions])
    delays = tuple(int(t.delay) for t in net.transitions)
    if delays != skeleton.static_delays:
        raise SkeletonMismatch("static delays differ")
    if tuple((freqs > 0).tolist()) != skeleton.freq_positive:
        raise SkeletonMismatch("frequency support changed")
    return _materialize(skeleton, net, freqs)


def _check_row_sums(net: Net, data: np.ndarray,
                    indptr: np.ndarray) -> None:
    """Every state's outgoing probabilities sum to one.

    Runs on every evaluation; that every state has a successor is a
    fact of the pattern, checked once when the skeleton is built.
    """
    sums = np.add.reduceat(data, indptr[:-1])
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if len(bad):
        i = int(bad[0])
        raise AnalysisError(
            f"net {net.name!r}: outgoing probabilities of state {i} "
            f"sum to {sums[i]!r}, expected 1.0")
