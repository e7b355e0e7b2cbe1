"""Shared metrics primitives: busy-time accounting and quantile sketches.

Before this module, the kernel's processors (``busy_by_label``), the
bus monitor's per-unit tenures, and the fabric's utilisation each
implemented their own accumulate-and-divide arithmetic.  They now all
run through :class:`BusyLedger` (label -> busy time accumulation) and
:func:`busy_fraction` (busy / elapsed, server-pool aware), so a busy
fraction means the same thing whether it came from a host processor, a
DMA engine, or a bus unit — and ``repro stats`` can reconcile them
against the trace's per-item records.

:class:`QuantileSketch` is the streaming latency-distribution
primitive behind :mod:`repro.traffic`: log-binned counts with a
declared relative error bound, so a million-message open-arrival run
reports p50/p99/p999 without retaining a single sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ReproError


def busy_fraction(busy: float, elapsed: float, servers: int = 1) -> float:
    """Mean fraction of *servers* busy over *elapsed* time units.

    Zero (not an error) on an empty interval, matching the historical
    behaviour of every call site.
    """
    if elapsed <= 0:
        return 0.0
    return busy / (elapsed * servers)


@dataclass
class BusyLedger:
    """Busy-time totals split by label, with an exact running sum.

    ``charge`` is the accounting entry point: the bus monitor charges
    unit names, and the kernel's processors charge work-item labels
    with the same addition inlined on their completion path.  The order
    of charges is the order of completions, so ledger totals reproduce
    the historical accumulation bit-for-bit.
    """

    by_label: dict[str, float] = field(default_factory=dict)

    def charge(self, label: str, duration: float) -> None:
        self.by_label[label] = self.by_label.get(label, 0.0) + duration

    @property
    def total(self) -> float:
        return sum(self.by_label.values())

    def labeled_time(self, prefix: str) -> float:
        """Total time of labels starting with *prefix*."""
        return sum(time for label, time in self.by_label.items()
                   if label.startswith(prefix))

    def fraction(self, elapsed: float, servers: int = 1) -> float:
        return busy_fraction(self.total, elapsed, servers)


class QuantileSketch:
    """Streaming quantiles over log-spaced bins, bounded memory.

    A DDSketch-style estimator: positive values land in geometric bins
    ``[gamma**i, gamma**(i+1))`` with ``gamma = (1 + eps) / (1 - eps)``
    and are reported as the bin's geometric midpoint, so every quantile
    estimate is within relative error *eps* of the exact sample
    quantile.  Memory is bounded by the number of *distinct* log bins
    the data touches (a few hundred over twelve decades at the default
    1 % error), never by the sample count — the property that lets an
    open-arrival run observe millions of message latencies without
    retaining them.

    Deterministic and mergeable: two sketches with equal parameters fed
    the same values in any order have equal :meth:`signature`, and
    ``merge`` is exact (bin counts add).  Values at or below zero are
    counted in a dedicated zero bin (reported as 0.0), so a zero-cost
    round trip cannot silently distort the distribution.
    """

    __slots__ = ("eps", "_gamma", "_log_gamma", "_bins", "_zero",
                 "_count", "_min", "_max", "_sum")

    def __init__(self, relative_error: float = 0.01):
        if not 0.0 < relative_error < 1.0:
            raise ReproError(
                f"relative_error must be in (0, 1), got "
                f"{relative_error!r}")
        self.eps = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._bins: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
            return
        index = math.floor(math.log(value) / self._log_gamma)
        self._bins[index] = self._bins.get(index, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other*'s counts into this sketch (exact)."""
        if other.eps != self.eps:
            raise ReproError(
                f"cannot merge sketches with different error bounds "
                f"({self.eps} vs {other.eps})")
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def bin_count(self) -> int:
        """Distinct bins in use — the memory bound."""
        return len(self._bins) + (1 if self._zero else 0)

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise ReproError("empty sketch has no minimum")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise ReproError("empty sketch has no maximum")
        return self._max

    def mean(self) -> float:
        """Exact running mean (the sum is kept exactly)."""
        if self._count == 0:
            raise ReproError("empty sketch has no mean")
        return self._sum / self._count

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0..1), within ``eps`` relative error.

        ``q=0``/``q=1`` return the exact tracked min/max; interior
        quantiles return the geometric midpoint of the bin holding the
        rank-``ceil(q * count)`` observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q!r}")
        if self._count == 0:
            raise ReproError("empty sketch has no quantiles")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        target = max(1, math.ceil(q * self._count))
        cumulative = self._zero
        if target <= cumulative:
            return 0.0
        representative = 2.0 * self._gamma / (self._gamma + 1.0)
        for index in sorted(self._bins):
            cumulative += self._bins[index]
            if target <= cumulative:
                # the point of [gamma**i, gamma**(i+1)) whose relative
                # distance to both ends is exactly eps
                return math.exp(index * self._log_gamma) \
                    * representative
        return self._max      # pragma: no cover - float guard

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0..100); see :meth:`quantile`."""
        if not 0.0 <= p <= 100.0:
            raise ReproError(
                f"percentile must be in [0, 100], got {p!r}")
        return self.quantile(p / 100.0)

    def signature(self) -> tuple:
        """Exact digest: equal iff the recorded multiset of bins is."""
        return (self.eps, self._count, self._zero,
                tuple(sorted(self._bins.items())))

    def __repr__(self) -> str:
        return (f"QuantileSketch(eps={self.eps}, count={self._count}, "
                f"bins={self.bin_count})")
