"""Content-addressed result store: a bounded in-memory LRU.

The service-tier sibling of :class:`~repro.perf.cache.AnalysisCache`:
where the analysis cache memoizes *solver* outputs keyed on a net
fingerprint, :class:`ResultStore` memoizes whole
:class:`~repro.api.ExperimentResult` objects keyed on the
:class:`~repro.service.jobs.JobKey` digest — so a re-submitted
evaluation is answered without queueing at all.

The store lives and dies with its service.  Nothing is written to
disk: a :class:`JobKey` names the knobs, not the code version, so a
store that outlived the process could keep serving values computed by
older code without any warning.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.service.jobs import JobKey


class ResultStore:
    """Bounded LRU of experiment results, keyed by job digest."""

    def __init__(self, memory_limit: int = 128):
        self._memory: OrderedDict[str, object] = OrderedDict()
        self._limit = max(1, int(memory_limit))
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def get(self, key: JobKey):
        """The stored result for *key*, or ``None`` (counted a miss)."""
        digest = key.digest
        with self._lock:
            if digest not in self._memory:
                self.misses += 1
                return None
            self._memory.move_to_end(digest)
            self.hits += 1
            return self._memory[digest]

    def put(self, key: JobKey, result) -> None:
        digest = key.digest
        with self._lock:
            self._memory[digest] = result
            self._memory.move_to_end(digest)
            while len(self._memory) > self._limit:
                self._memory.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def stats(self) -> dict:
        with self._lock:
            return {"entries": len(self._memory), "limit": self._limit,
                    "hits": self.hits, "misses": self.misses}
