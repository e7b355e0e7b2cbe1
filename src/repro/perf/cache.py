"""Process-wide store of reachability skeletons, keyed by net structure.

A net is fingerprinted by a *split key* (:class:`NetFingerprint`):

* the **structure fingerprint** covers everything that shapes the
  reachable state space — place count, initial marking, arcs, gates
  and resource tags — and is invariant across a timing sweep, while
* the **timing fingerprint** covers the numeric attribute values
  (firing times and frequency weights).

Names (of the net, its places, and its transitions) stay out of both
halves, so two structurally identical nets share one skeleton.  The
analyzer (:mod:`repro.gtpn.sweep`) keys reachability skeletons on the
structure fingerprint: a parameter grid builds the graph once per
structure and re-times it for every other point.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, NamedTuple

from repro import obs

#: Default bound on held skeletons (each carries a packed state table
#: and branch program; architecture models run a few MB apiece).
DEFAULT_MAX_ENTRIES = 256


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------

class NetFingerprint(NamedTuple):
    """Split content hash of a net.

    ``structure`` is invariant across a timing sweep (places, arcs,
    gates, initial marking, resource tags);
    ``timing`` hashes the numeric attribute values (delays, frequency
    weights).  Compares as a plain tuple, so ``fingerprint_net(a) ==
    fingerprint_net(b)`` means identical full keys and equal
    ``.structure`` means "same state space shape".
    """

    structure: str
    timing: str


def fingerprint_net(net) -> NetFingerprint:
    """Split content hash of a net.

    Covers everything the analyzer's numbers depend on — places,
    initial marking, arcs, gates, delays, frequencies, resources — and
    nothing cosmetic (names, labels), so renamed-but-identical nets
    share a fingerprint.  Numeric attribute values land in the
    ``timing`` half only; everything shaping the state space lands in
    ``structure``.
    """
    structure: list = [len(net.places), tuple(net.initial_marking)]
    timing: list = []
    for t in net.transitions:
        structure.append((tuple(sorted(t.inputs.items())),
                          tuple(sorted(t.outputs.items())),
                          net.gate_indices(t), t.resource,
                          tuple(t.extra_resources)))
        timing.append((repr(t.delay), repr(t.frequency)))

    def _hash(parts) -> str:
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
    return NetFingerprint(_hash(structure), _hash(timing))


# ----------------------------------------------------------------------
# the store proper
# ----------------------------------------------------------------------

class AnalysisCache:
    """Thread-safe LRU of reachability skeletons.

    Keyed on the structure fingerprint.  ``hits`` and
    ``misses`` count :meth:`get` outcomes: a hit means the caller can
    re-time instead of exploring the state space.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self._mem: OrderedDict[str, Any] = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._mem)

    def get(self, structure: str):
        """The held skeleton of *structure*, or ``None``."""
        with self._lock:
            skeleton = self._mem.get(structure)
            if skeleton is None:
                self.misses += 1
                obs.add("cache.miss")
                return None
            self._mem.move_to_end(structure)
            self.hits += 1
            obs.add("cache.hit")
            return skeleton

    def put(self, structure: str, skeleton: Any) -> None:
        with self._lock:
            self._mem[structure] = skeleton
            self._mem.move_to_end(structure)
            while len(self._mem) > self._max_entries:
                self._mem.popitem(last=False)


_global_cache: AnalysisCache | None = None
_global_lock = threading.Lock()


def get_cache() -> AnalysisCache:
    """The process-wide skeleton store (created on first use)."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = AnalysisCache()
        return _global_cache


def configure_cache() -> AnalysisCache:
    """Replace the process-wide store with an empty one (tests,
    benchmarks) and return it."""
    global _global_cache
    with _global_lock:
        _global_cache = AnalysisCache()
        return _global_cache
