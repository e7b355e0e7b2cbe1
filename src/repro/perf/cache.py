"""Content-addressed cache for exact GTPN analyses.

A net is fingerprinted by a *split key* (:class:`NetFingerprint`):

* the **structure fingerprint** covers everything that shapes the
  reachable state space — place count, initial marking, arcs, gates,
  resource tags and symmetry declarations — and is invariant across a
  timing sweep, while
* the **timing fingerprint** covers the numeric attribute values
  (firing times and frequency weights).

Names (of the net, its places, and its transitions) stay out of both
halves: two structurally identical nets share one solve, and the
cached payload is re-bound to whichever net asked.  The analyzer keys
full payloads on ``(structure, timing, method)`` and the reusable
reachability skeleton (:mod:`repro.gtpn.sweep`) on the structure half
alone, which is what lets a parameter grid rebuild the graph once.

The cache is in-memory (bounded LRU) by default.  Setting the
``REPRO_CACHE_DIR`` environment variable — or passing ``directory`` to
:class:`AnalysisCache` — adds an on-disk pickle store so repeated
benchmark processes share solves.  ``REPRO_NO_CACHE=1`` or
:func:`set_cache_enabled` turns the layer off globally (the CLI's
``--no-cache``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, NamedTuple

from repro import config, obs

#: Default bound on in-memory cached analyses (each holds a full
#: reachability graph; architecture models run a few MB apiece).
DEFAULT_MAX_ENTRIES = 256


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable analysis caching (CLI ``--no-cache``)."""
    config.set_cache_enabled(enabled)


def cache_enabled() -> bool:
    """Resolved cache switch: either disable (CLI or env) wins."""
    return config.cache_enabled()


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------

class NetFingerprint(NamedTuple):
    """Split content hash of a net.

    ``structure`` is invariant across a timing sweep (places, arcs,
    gates, initial marking, resource tags, symmetry declarations);
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
    # declared symmetry groups shape the packed engine's lumping
    # quotient, so they are structural: two nets that differ only in
    # declarations must not share a lumped skeleton
    for group in net.symmetries:
        structure.append(("sym", tuple(
            (tuple(p_idx), tuple(t_idx)) for p_idx, t_idx
            in group.members)))
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
# the cache proper
# ----------------------------------------------------------------------

class AnalysisCache:
    """Thread-safe LRU of analysis payloads, with optional disk tier.

    Keys are opaque hashables (the analyzer uses ``(fingerprint,
    method)``); payloads are opaque picklable objects.  ``directory``
    (or ``REPRO_CACHE_DIR`` for the global cache) enables the on-disk
    tier; unreadable or corrupt disk entries are treated as misses.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        self._mem: OrderedDict[Any, Any] = OrderedDict()
        self._max_entries = max_entries
        self._dir = Path(directory) if directory else None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._mem)

    def clear(self) -> None:
        with self._lock:
            self._mem.clear()
            self.hits = 0
            self.misses = 0

    def _disk_path(self, key: Any) -> Path | None:
        if self._dir is None:
            return None
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self._dir / f"analysis-{digest}.pkl"

    def get(self, key: Any, *, record_stats: bool = True):
        """The cached payload for *key*, or ``None`` on a miss."""
        with self._lock:
            if key in self._mem:
                self._mem.move_to_end(key)
                if record_stats:
                    self.hits += 1
                    obs.add("cache.hit")
                return self._mem[key]
        path = self._disk_path(key)
        if path is not None:
            try:
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError,
                    ValueError, TypeError, KeyError):
                # corrupted/truncated entries are a miss, never an error
                payload = None
            if payload is not None:
                with self._lock:
                    if record_stats:
                        self.hits += 1
                        obs.add("cache.hit")
                    self._store_mem(key, payload)
                return payload
        if record_stats:
            with self._lock:
                self.misses += 1
                obs.add("cache.miss")
        return None

    def put(self, key: Any, payload: Any) -> None:
        with self._lock:
            self._store_mem(key, payload)
        self._write_disk(key, payload)

    def get_structure(self, structure_fp: str, kind: str):
        """Cached sweep skeleton for a structure fingerprint, if any.

        ``kind`` (``"packed:<reduction>"``) separates the skeletons of
        one structure built under different reduction modes.

        Skeleton lookups ride the same LRU/disk tiers as payloads but
        stay out of ``hits``/``misses`` — those stats count *solves
        avoided*, and a skeleton hit still re-times and re-solves.
        """
        return self.get(self._structure_key(structure_fp, kind),
                        record_stats=False)

    def put_structure(self, structure_fp: str, skeleton: Any,
                      kind: str) -> None:
        self.put(self._structure_key(structure_fp, kind), skeleton)

    @staticmethod
    def _structure_key(structure_fp: str, kind: str):
        return ("skeleton", structure_fp, kind)

    def attach_directory(self, directory: str | os.PathLike) -> None:
        """Add (or retarget) the disk tier without dropping memory.

        Existing in-memory entries are flushed to the new directory so
        freshly-forked pool workers can prime from what the parent has
        already solved (the sweep pool's shared-disk priming).
        """
        with self._lock:
            self._dir = Path(directory)
            entries = list(self._mem.items())
        for key, payload in entries:
            self._write_disk(key, payload)

    @property
    def directory(self) -> Path | None:
        return self._dir

    def _write_disk(self, key: Any, payload: Any) -> None:
        path = self._disk_path(key)
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".tmp-{os.getpid()}")
                with open(tmp, "wb") as fh:
                    pickle.dump(payload, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)     # atomic for concurrent writers
            except (OSError, pickle.PicklingError, TypeError):
                pass                      # disk tier is best-effort

    def _store_mem(self, key: Any, payload: Any) -> None:
        self._mem[key] = payload
        self._mem.move_to_end(key)
        while len(self._mem) > self._max_entries:
            self._mem.popitem(last=False)


_global_cache: AnalysisCache | None = None
_global_lock = threading.Lock()


def get_cache() -> AnalysisCache:
    """The process-wide analysis cache (created on first use)."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = AnalysisCache(directory=config.cache_dir())
        return _global_cache


def configure_cache(directory: str | os.PathLike | None = None,
                    max_entries: int = DEFAULT_MAX_ENTRIES,
                    ) -> AnalysisCache:
    """Replace the process-wide cache (tests, CLI) and return it."""
    global _global_cache
    with _global_lock:
        _global_cache = AnalysisCache(directory=directory,
                                      max_entries=max_entries)
        return _global_cache
