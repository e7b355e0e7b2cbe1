"""High-level solution API: throughput and offered load per architecture.

This is the public face of the chapter 6 evaluation: one call returns
the message throughput of any architecture, conversation count, and
server computation time, for local or non-local conversations —
exactly the quantity plotted in Figures 6.17-6.23.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial

from repro.errors import ModelError
from repro.gtpn import analyze
from repro.models.iterate import (NonlocalSolution, iter_nonlocal_curve,
                                  solve_nonlocal)
from repro.models.local import build_local_net
from repro.models.params import (OFFERED_LOAD_SERVER_TIMES_MS,
                                 Architecture, Mode)
from repro.perf.backends import map_sweep
from repro.perf.cache import fingerprint_net


@dataclass(frozen=True)
class ThroughputResult:
    """Solved operating point of one architecture."""

    architecture: Architecture
    mode: Mode
    conversations: int
    compute_time: float       # X, microseconds
    throughput: float         # round trips per microsecond (Lambda)
    #: synchronization primitive the software queue path was costed
    #: with (architecture II only; others always report "tas")
    sync: str = "tas"

    @property
    def throughput_per_ms(self) -> float:
        return self.throughput * 1e3

    @property
    def round_trip_time(self) -> float:
        """Mean cycle time per conversation (Little's result)."""
        return self.conversations / self.throughput


def solve(architecture: Architecture, mode: Mode, conversations: int,
          compute_time: float = 0.0,
          sync: str | None = None) -> ThroughputResult:
    """Solve one architecture model at one workload point.

    ``sync`` selects the synchronization primitive costing the
    architecture II software queue path (``tas``/``cas``/``llsc``/
    ``htm``, see :mod:`repro.models.syncmodel`); ``None`` resolves the
    ambient ``--sync`` / ``REPRO_SYNC`` configuration.  Architectures
    I/III/IV have no software queue path, so the knob normalizes to
    the ``tas`` baseline there and the results are unchanged.
    """
    key = _point_key(architecture, mode, conversations, compute_time, sync)
    return ThroughputResult(architecture=architecture, mode=mode,
                            conversations=conversations,
                            compute_time=compute_time,
                            throughput=_solve_cached(*key), sync=key[4])


def _point_key(architecture: Architecture, mode: Mode, conversations: int,
               compute_time: float, sync: str | None) -> tuple:
    """The memo key of one checked point: its compute time a float and
    its primitive resolved."""
    if conversations < 1:
        raise ModelError("need at least one conversation")
    if compute_time < 0:
        raise ModelError("compute time must be non-negative")
    return (architecture, mode, conversations, float(compute_time),
            _resolve_sync(architecture, sync))


def _resolve_sync(architecture: Architecture,
                  sync: str | None) -> str:
    """Normalize the primitive; only architecture II is sensitive."""
    from repro import config
    name = config.get("sync") if sync is None else \
        config.normalize_sync(sync, source="sync")
    return name if architecture is Architecture.II else "tas"


def _local_net(architecture: Architecture, conversations: int,
               compute_time: float, sync: str):
    """The local net of one point, priced for a resolved primitive."""
    params = None
    if sync != "tas":
        from repro.models import syncmodel
        params = syncmodel.local_params(sync)
    return build_local_net(architecture, conversations, compute_time,
                           params=params)


def _nonlocal_params(sync: str) -> dict:
    """The split nets' parameter overrides for a resolved primitive."""
    if sync == "tas":
        return {}
    from repro.models import syncmodel
    return dict(client_params=syncmodel.nonlocal_client_params(sync),
                server_params=syncmodel.nonlocal_server_params(sync))


def _solve_point(architecture: Architecture, mode: Mode,
                 conversations: int, compute_time: float,
                 sync: str = "tas") -> float:
    if mode is Mode.LOCAL:
        net = _local_net(architecture, conversations, compute_time, sync)
        return analyze(net).throughput()
    solution: NonlocalSolution = solve_nonlocal(
        architecture, conversations, compute_time, **_nonlocal_params(sync))
    return solution.throughput


class _PointMemo:
    """Throughput per point key (see :func:`_point_key`): the one point
    memo of :func:`solve`, the least recently used key evicted past
    *maxsize*.  A miss solves its point alone; :func:`_solve_curve`
    enters every point of a curve it solved in lockstep."""

    def __init__(self, solve_point, maxsize: int):
        self._solve_point = solve_point
        self._maxsize = maxsize
        self._values: OrderedDict[tuple, float] = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, *key) -> float:
        with self._lock:
            value = self._values.get(key)
            if value is not None:
                self._values.move_to_end(key)
                return value
        value = self._solve_point(*key)
        self.put(key, value)
        return value

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._values

    def put(self, key: tuple, value: float) -> None:
        with self._lock:
            self._values[key] = value
            self._values.move_to_end(key)
            if len(self._values) > self._maxsize:
                self._values.popitem(last=False)

    def cache_clear(self) -> None:
        with self._lock:
            self._values.clear()


_solve_cached = _PointMemo(_solve_point, maxsize=4096)


def _solve_curve(keys: list[tuple]) -> None:
    """Memoize the non-local points *keys*, one curve's: those not yet
    in the memo are solved in lockstep (:func:`iter_nonlocal_curve`).
    """
    todo = [key for key in dict.fromkeys(keys) if key not in _solve_cached]
    if not todo:
        return
    architecture, _mode, conversations, _x, sync = todo[0]
    # each point's solution is dropped as soon as it converges: the
    # memo keeps only its throughput
    for index, solution in iter_nonlocal_curve(
            architecture, conversations, [key[3] for key in todo],
            **_nonlocal_params(sync)):
        _solve_cached.put(todo[index], solution.throughput)


@dataclass(frozen=True)
class ReferencePoint:
    """The net and exact analysis behind one operating point.

    The cross-validation harness (:mod:`repro.validate`) needs the
    *same* net both exactly analyzed and Monte Carlo simulated; for
    local conversations that is the single closed net, for non-local
    ones the converged client-node net of the fixed-point solution
    (re-analyzed at the converged surrogate delay, so the exact value
    and the simulated sample paths describe one identical model).
    ``solution_throughput`` is the figure-level value from
    :func:`solve` for comparison against external estimators such as
    the kernel DES.
    """

    architecture: Architecture
    mode: Mode
    conversations: int
    compute_time: float
    net: "object"                      # repro.gtpn.Net
    result: "object"                   # repro.gtpn.AnalysisResult
    solution_throughput: float

    @property
    def busy_places(self) -> tuple[str, ...]:
        """Processor pool places present in the reference net."""
        names = {p.name for p in self.net.places}
        return tuple(name for name in ("Host", "MP") if name in names)


def reference_point(architecture: Architecture, mode: Mode,
                    conversations: int,
                    compute_time: float = 0.0) -> ReferencePoint:
    """Build and exactly analyze the reference net of one grid point."""
    if conversations < 1:
        raise ModelError("need at least one conversation")
    if compute_time < 0:
        raise ModelError("compute time must be non-negative")
    if mode is Mode.LOCAL:
        net = build_local_net(architecture, conversations, compute_time)
        result = analyze(net)
        return ReferencePoint(
            architecture=architecture, mode=mode,
            conversations=conversations, compute_time=compute_time,
            net=net, result=result,
            solution_throughput=result.throughput())
    from repro.models.nonlocal_client import build_nonlocal_client_net
    solution = solve_nonlocal(architecture, conversations, compute_time)
    net = build_nonlocal_client_net(
        architecture, conversations, max(solution.server_delay, 1.0))
    result = analyze(net)
    return ReferencePoint(
        architecture=architecture, mode=mode,
        conversations=conversations, compute_time=compute_time,
        net=net, result=result,
        solution_throughput=solution.throughput)


def communication_time(architecture: Architecture, mode: Mode,
                       sync: str | None = None) -> float:
    """C: round-trip communication time of one unloaded conversation.

    Defined as the reciprocal of the single-conversation throughput at
    zero compute time; for architecture I (everything serialized on
    the host) this equals the sum of the round-trip activity times,
    while the coprocessor architectures pipeline and come in below the
    sum (section 6.9.2).
    """
    return 1.0 / solve(architecture, mode, 1, 0.0,
                       sync=sync).throughput


def offered_load(architecture: Architecture, mode: Mode,
                 server_time_us: float) -> float:
    """Offered load C / (C + S) of a conversation (section 6.3)."""
    if server_time_us < 0:
        raise ModelError("server time must be non-negative")
    c = communication_time(architecture, mode)
    return c / (c + server_time_us)


def _structure_group(sync_at: int):
    """The ``group=`` key of a grid whose points carry their primitive
    at index *sync_at*: ``(conversations, structure key)``.

    A local point's key is its net's structure fingerprint, built once
    per (architecture, conversations, primitive) here in the parent,
    so architectures II and III, which share one net, share a group.
    A non-local point's key is (architecture, conversations,
    primitive).  The cost is the conversation count: states grow from
    112 at arch I n=4 to 6,336 at arch II n=4.  A mis-grouped point
    costs speed only, never values: workers re-time or build through
    their own skeleton store.
    """
    keys: dict[tuple, object] = {}

    def key(point: tuple) -> tuple[int, object]:
        architecture, mode, conversations = point[:3]
        point_id = (architecture, mode, conversations, point[sync_at])
        if point_id not in keys:
            keys[point_id] = point_id
            if mode is Mode.LOCAL:
                sync = _resolve_sync(architecture, point[sync_at])
                keys[point_id] = fingerprint_net(_local_net(
                    architecture, conversations, 0.0, sync)).structure
        return conversations, keys[point_id]
    return key


def solve_grid(points: list[tuple[Architecture, Mode, int, float]], *,
               jobs: int | None = None) -> list[ThroughputResult]:
    """Solve many independent operating points, possibly in parallel.

    The workhorse of every figure sweep: each point is one exact GTPN
    solve, fanned out through :func:`repro.perf.backends.map_sweep` with
    results in input order — values are identical at any job count.

    Points of the same architecture share their reachability structure:
    each solve re-times the skeleton held in the process's skeleton
    store (:mod:`repro.gtpn.sweep`) instead of re-exploring the state
    space, so a grid costs one build per structure plus one linear
    solve per point.  A fanned-out grid sends all points of one
    structure to one worker as one task, so it too builds each
    structure once.  The non-local points of one structure group form
    a curve, whose fixed points are solved in lockstep by one call
    when its first point comes up (:func:`_solve_curve`).

    Points may carry a fifth element naming the synchronization
    primitive; 4-tuples get the ambient ``--sync`` configuration
    resolved *here*, in the parent — worker processes do not inherit
    CLI configuration, so the primitive always ships inside the point.
    """
    from repro import config
    default_sync = config.get("sync")
    expanded = [point if len(point) >= 5 else (*point, default_sync)
                for point in points]
    return _map_grid(solve, _point_key, expanded, jobs, sync_at=4)


def solve_offered_load_grid(
        points: list[tuple[Architecture, Mode, int, float, Architecture]],
        *, jobs: int | None = None) -> list[ThroughputResult]:
    """Solve a grid of :func:`solve_at_offered_load` points, in order.

    The realistic-workload figures (6.18/6.19/6.22/6.23) are grids of
    (architecture, mode, conversations, load, reference) tuples; this
    fans them out with the same structure grouping, lockstep curves
    and serial-fallback behaviour as :func:`solve_grid` — including
    parent-side resolution of the ambient synchronization primitive
    for 5-tuples (a sixth element overrides it per point).
    """
    from repro import config
    default_sync = config.get("sync")
    expanded = [point if len(point) >= 6 else (*point, default_sync)
                for point in points]
    return _map_grid(solve_at_offered_load, _offered_load_key, expanded,
                     jobs, sync_at=5)


def _offered_load_key(architecture: Architecture, mode: Mode,
                      conversations: int, load: float,
                      reference: Architecture, sync: str | None) -> tuple:
    """The memo key of one :func:`solve_at_offered_load` point."""
    return _point_key(architecture, mode, conversations,
                      server_time_for_offered_load(reference, mode, load),
                      sync)


def _map_grid(fn, key, points: list[tuple], jobs: int | None,
              sync_at: int) -> list[ThroughputResult]:
    """``fn(*point)`` for every point, through :func:`map_sweep` grouped
    by structure.  The first non-local point of each structure group
    carries the whole group, its curve, which :func:`_grid_point`
    solves before it; the group's later points are memo hits."""
    group = _structure_group(sync_at)
    curves: dict[tuple, list[int]] = {}
    for index, point in enumerate(points):
        if point[1] is Mode.NONLOCAL:
            curves.setdefault(group(point), []).append(index)
    work = [(point, None) for point in points]
    for indices in curves.values():
        work[indices[0]] = (points[indices[0]],
                            tuple(points[index] for index in indices))
    return map_sweep(partial(_grid_point, fn, key), work, jobs=jobs,
                     group=lambda item: group(item[0]))


def _grid_point(fn, key, item: tuple) -> ThroughputResult:
    """One grid point: its curve first, when it carries one."""
    point, curve = item
    if curve is not None:
        _solve_curve([key(*member) for member in curve])
    return fn(*point)


def offered_load_table(mode: Mode, *,
                       jobs: int | None = None,
                       ) -> dict[Architecture, list[float]]:
    """Regenerate Table 6.24 (local) / Table 6.25 (non-local).

    Rows are the thesis's server times (0 to 45.6 ms); columns the four
    architectures.  The per-architecture communication times C (one
    exact solve each) fan out in parallel; the rest of the grid is
    arithmetic on C, identical to ``offered_load`` point by point.
    """
    times = map_sweep(communication_time,
                      [(arch, mode) for arch in Architecture],
                      jobs=jobs, star=True)
    return {
        arch: [c / (c + ms * 1000.0)
               for ms in OFFERED_LOAD_SERVER_TIMES_MS]
        for arch, c in zip(Architecture, times)
    }


def server_time_for_offered_load(architecture: Architecture, mode: Mode,
                                 load: float,
                                 sync: str | None = "tas") -> float:
    """Invert the offered-load definition: S = C (1 - o) / o.

    ``sync`` defaults to the pinned ``tas`` baseline (not the ambient
    configuration): this normalization anchors the x axis of the
    realistic-workload figures, and it must agree between the parent
    process and CLI-configuration-free sweep workers.
    """
    if not 0 < load <= 1:
        raise ModelError("offered load must be in (0, 1]")
    c = communication_time(architecture, mode, sync=sync)
    return c * (1.0 - load) / load


def solve_at_offered_load(architecture: Architecture, mode: Mode,
                          conversations: int, load: float,
                          reference: Architecture = Architecture.I,
                          sync: str | None = None,
                          ) -> ThroughputResult:
    """Solve one grid point of the realistic-workload figures.

    Self-contained (it derives the server time from the reference
    architecture's offered-load normalization itself), so a sweep over
    such points ships cleanly to worker processes.  ``sync`` prices
    the solved architecture's software queue path; the *reference*
    normalization deliberately stays at the committed baseline so
    equal server times keep lining up across primitives.
    """
    server_time = server_time_for_offered_load(reference, mode, load)
    return solve(architecture, mode, conversations, server_time,
                 sync=sync)


def throughput_vs_offered_load(architecture: Architecture, mode: Mode,
                               conversations: int,
                               loads: list[float], *,
                               reference: Architecture = Architecture.I,
                               jobs: int | None = None,
                               ) -> list[ThroughputResult]:
    """One curve of Figures 6.18/6.19/6.22/6.23.

    The thesis plots every architecture against the offered load
    *computed for architecture I* so that equal server times line up
    across architectures; ``reference`` selects that normalization.
    """
    return solve_offered_load_grid(
        [(architecture, mode, conversations, load, reference)
         for load in loads],
        jobs=jobs)
