"""Content-addressed result store: memory LRU over an optional disk
tier.

The service-tier sibling of :class:`~repro.perf.cache.AnalysisCache`:
where the analysis cache memoizes *solver* outputs keyed on a net
fingerprint, :class:`ResultStore` memoizes whole
:class:`~repro.api.ExperimentResult` objects keyed on the
:class:`~repro.service.jobs.JobKey` digest — so a re-submitted
evaluation is answered without queueing at all.

Tiering follows the cache's idiom: a bounded in-memory LRU in front,
and (when a directory is configured — ``REPRO_RESULT_DIR`` or an
explicit argument) a pickle-per-entry disk tier behind it, written
atomically (temp file + :func:`os.replace`) so a crashed or killed
process never leaves a torn entry.  The disk tier is what survives
restarts: a fresh service pointed at the same directory answers
warm-start submissions from disk.  Entries that fail to pickle (an
experiment can attach arbitrary extras) simply stay memory-only;
entries that fail to *unpickle* are deleted and treated as misses —
the store is a cache, never an authority.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

from repro import obs
from repro.service.jobs import JobKey


class ResultStore:
    """Bounded LRU of experiment results with an optional disk tier."""

    def __init__(self, directory: str | os.PathLike | None = None,
                 memory_limit: int = 128):
        self._memory: OrderedDict[str, object] = OrderedDict()
        self._limit = max(1, int(memory_limit))
        self.directory = Path(directory) if directory is not None \
            else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.spill_failures = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: JobKey):
        """The stored result for *key*, or ``None`` (counted a miss)."""
        digest = key.digest
        with self._lock:
            if digest in self._memory:
                self._memory.move_to_end(digest)
                self.hits += 1
                return self._memory[digest]
            result = self._load_disk(digest)
            if result is not None:
                self.hits += 1
                self._remember(digest, result)
                return result
            self.misses += 1
            return None

    def put(self, key: JobKey, result) -> None:
        digest = key.digest
        with self._lock:
            self._remember(digest, result)
            self._spill_disk(digest, result)

    def _remember(self, digest: str, result) -> None:
        self._memory[digest] = result
        self._memory.move_to_end(digest)
        while len(self._memory) > self._limit:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _entry_path(self, digest: str) -> Path:
        return self.directory / f"{digest}.pkl"

    def _load_disk(self, digest: str):
        if self.directory is None:
            return None
        path = self._entry_path(digest)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, OSError):
            # torn or stale entry: delete and treat as a miss.
            # Anything else (a programming error in a stored object's
            # __setstate__, a missing class) propagates — the cache
            # must not paper over defects.
            path.unlink(missing_ok=True)
            return None

    def _spill_disk(self, digest: str, result) -> None:
        if self.directory is None:
            return
        path = self._entry_path(digest)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory,
                                        prefix=f".{digest}-")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except (pickle.PicklingError, TypeError, AttributeError,
                OSError):
            # unpicklable extras or a full disk: the entry stays
            # memory-only, but the degradation is counted so a store
            # silently running without its disk tier shows up in
            # ``stats()`` / ``repro serve --stats``.
            self.spill_failures += 1
            obs.add("store.spill_failure")
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def disk_entries(self) -> int:
        if self.directory is None:
            return 0
        return sum(1 for p in self.directory.glob("*.pkl"))

    def clear(self) -> None:
        """Drop every entry, both tiers (tests)."""
        with self._lock:
            self._memory.clear()
            if self.directory is not None:
                for path in self.directory.glob("*.pkl"):
                    path.unlink(missing_ok=True)

    def stats(self) -> dict:
        with self._lock:
            return {"entries": len(self._memory),
                    "disk_entries": self.disk_entries(),
                    "hits": self.hits, "misses": self.misses,
                    "spill_failures": self.spill_failures,
                    "directory": str(self.directory)
                    if self.directory is not None else None}
