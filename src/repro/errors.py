"""Exception hierarchy for the repro package.

Every subsystem raises errors derived from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelError(ReproError):
    """A GTPN model is structurally invalid (bad arcs, negative delay...)."""


class AnalysisError(ReproError):
    """The analyzer could not solve a model (state explosion, divergence)."""


class StateSpaceLimitError(AnalysisError):
    """Reachability exploration hit the ``max_states`` cap.

    Carries where the build stood when it gave up so callers can size a
    retry: ``state_count`` states interned, ``frontier_size`` of them
    still unexpanded, against a ``max_states`` cap.
    """

    def __init__(self, net_name: str, state_count: int,
                 frontier_size: int, max_states: int):
        self.net_name = net_name
        self.state_count = state_count
        self.frontier_size = frontier_size
        self.max_states = max_states
        super().__init__(
            f"net {net_name!r}: more than {max_states} reachable states "
            f"({state_count} interned, {frontier_size} still on the "
            "frontier); raise max_states, simplify the model, or enable "
            "symmetry lumping (reduction='lump') if the net declares "
            "symmetric subnets")


class BusError(ReproError):
    """Smart-bus protocol violation (bad command, tag mismatch...)."""


class MemoryError_(ReproError):
    """Smart shared-memory controller error (see thesis section A.5)."""


class KernelError(ReproError):
    """Message-kernel simulator misuse (bad task state, unknown service)."""


class WorkloadError(ReproError):
    """Invalid workload specification (negative compute time...)."""


class TrafficError(ReproError):
    """Invalid open-arrival traffic specification (negative rate,
    Pareto tail index <= 1, unknown admission policy...)."""


class ConvergenceError(AnalysisError):
    """The iterative client/server fixed point failed to converge."""


class ConfigError(ReproError, ValueError):
    """Invalid runtime configuration (``--jobs``, ``REPRO_JOBS``...).

    Also a :class:`ValueError` so argument-validation call sites keep
    their historical contract.
    """


class ServiceError(ReproError):
    """Experiment-service failure (job queue, result store, handles)."""
