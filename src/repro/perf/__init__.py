"""Performance layer: the sweep executor and the skeleton store.

The chapter-6 evaluation is grid-shaped — conversations x offered
loads x architectures, each point an independent exact GTPN solve — so
the two levers are

* :func:`map_sweep` (:mod:`repro.perf.backends`) — fan independent
  grid points out over the persistent local process pool, with
  ordered results and a graceful serial fallback, and
* :class:`AnalysisCache` (:mod:`repro.perf.cache`) — the process-wide
  store of reachability skeletons keyed by a canonical structure
  fingerprint, so every grid point after the first of a structure
  re-times its graph instead of rebuilding it.

Both are policy-free utilities: they know nothing about GTPN
internals beyond the duck-typed net attributes the fingerprint reads.
"""

from repro.perf.backends import (MapInfo, default_jobs, last_map_info,
                                 map_sweep, plan_jobs, set_default_jobs,
                                 shutdown_pool)
from repro.perf.cache import (AnalysisCache, configure_cache,
                              fingerprint_net, get_cache)

__all__ = [
    "AnalysisCache",
    "MapInfo",
    "configure_cache",
    "default_jobs",
    "fingerprint_net",
    "get_cache",
    "last_map_info",
    "map_sweep",
    "plan_jobs",
    "set_default_jobs",
    "shutdown_pool",
]
