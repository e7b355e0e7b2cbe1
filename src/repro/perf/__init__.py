"""Performance layer: pluggable sweep executors and analysis caching.

The chapter-6 evaluation is grid-shaped — conversations x offered
loads x architectures, each point an independent exact GTPN solve — so
the two scalable-offload levers are

* :func:`map_sweep` (:mod:`repro.perf.backends`) — fan independent
  grid points out over a configurable executor backend (``serial`` /
  ``local`` persistent pool / ``sharded`` work stealing, selected by
  ``--backend`` / ``REPRO_BACKEND``), with ordered results and a
  graceful serial fallback, and
* :class:`AnalysisCache` (:mod:`repro.perf.cache`) — content-addressed
  memoization of exact solves keyed by a canonical net fingerprint, so
  structurally identical nets across figures and benchmarks solve
  once (opt-in on-disk persistence via ``REPRO_CACHE_DIR``).

Both are policy-free utilities: they know nothing about GTPN
internals beyond the duck-typed net attributes the fingerprint reads.
"""

from repro.perf.backends import (ExecutorBackend, MapInfo,
                                 default_jobs, get_backend,
                                 last_map_info, map_sweep, plan_jobs,
                                 set_default_jobs, shutdown_pool)
from repro.perf.cache import (AnalysisCache, cache_enabled,
                              configure_cache, fingerprint_net,
                              get_cache, set_cache_enabled)

__all__ = [
    "AnalysisCache",
    "ExecutorBackend",
    "MapInfo",
    "cache_enabled",
    "configure_cache",
    "default_jobs",
    "fingerprint_net",
    "get_backend",
    "get_cache",
    "last_map_info",
    "map_sweep",
    "plan_jobs",
    "set_cache_enabled",
    "set_default_jobs",
    "shutdown_pool",
]
