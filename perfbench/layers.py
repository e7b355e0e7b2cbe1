"""Per-layer tracing for the benchmark, installed from outside the program.

The program is not edited: :meth:`Tracer.install` wraps each layer's entry
points in place.  Layers bind each other with ``from x import f``, so a
function is replaced under every name any loaded ``repro`` module binds
it to (``repro.gtpn.analysis.stationary_distribution`` as well as
``repro.gtpn.markov.stationary_distribution``), and methods are replaced
on their class.  Modules imported later pick the wrapper up from the
defining module.

Spans are kept in memory as running totals per thread: each wrapped call
adds its duration to its parent span's child time and its own duration
minus child time to its layer's *self* time.  A ``wait`` target is a call
that blocks on another thread or process (a job handle, the pool); its
self time is waiting, kept apart from work so self times summed over
threads and processes give task time.  Pool workers are forked with the
wrappers in place; each worker ships its totals after every task as a
``perfbench.ledger`` event through the program's own trace spill
(``repro.obs.sink``), which the parent merges after the sweep.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

WORK, WAIT = "work", "wait"

#: Event name under which forked pool workers ship their totals.
LEDGER_EVENT = "perfbench.ledger"

#: Nodes and processors of the open-bursty system (simulated utilization).
SIM_NODES = ("clients", "servers")
SIM_PROCESSORS = ("host", "mp", "net_out", "net_in")


class _Ledger:
    """Running span totals of one thread."""

    def __init__(self):
        self.stack: list[list] = []     # open frames: [child_s, key]
        self.clear()

    def clear(self) -> None:
        self.self_s: dict[str, float] = {}
        self.wait_s: dict[str, float] = {}
        self.calls: dict[str, list] = {}      # key -> [count, total_s]
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.root_s = 0.0
        self.task_s = 0.0

    def export(self) -> dict:
        return {"self_s": self.self_s, "wait_s": self.wait_s,
                "calls": self.calls, "counts": self.counts,
                "samples": self.samples, "task_s": self.task_s}

    def absorb(self, other: dict) -> None:
        """Add another ledger's exported totals into this one."""
        for field_name in ("self_s", "wait_s", "counts"):
            mine = getattr(self, field_name)
            for name, value in other[field_name].items():
                mine[name] = mine.get(name, 0.0) + value
        for key, (count, total) in other["calls"].items():
            entry = self.calls.setdefault(key, [0, 0.0])
            entry[0] += count
            entry[1] += total
        for name, values in other["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        self.task_s += other["task_s"]


def _add(ledger: _Ledger, name: str, value: float = 1.0) -> None:
    ledger.counts[name] = ledger.counts.get(name, 0.0) + value


# ----------------------------------------------------------------------
# hooks: layer facts read off a call's arguments or outcome
# ----------------------------------------------------------------------

def _on_solve(ledger, args, kwargs, outcome, duration):
    ledger.samples.setdefault("markov.solve_s", []).append(duration)
    _add(ledger, "markov.states_solved", args[0].state_count)


def _on_build(ledger, args, kwargs, outcome, duration):
    if isinstance(outcome, tuple):
        _add(ledger, "gtpn.states_built", outcome[0].state_count)


def _on_retime(ledger, args, kwargs, outcome, duration):
    from repro.gtpn.packed import SkeletonMismatch
    if isinstance(outcome, SkeletonMismatch):
        _add(ledger, "gtpn.retime_mismatches")


def _on_fixed_point(ledger, args, kwargs, outcome, duration):
    if not isinstance(outcome, BaseException):
        _add(ledger, "models.fixed_point_iterations", outcome.iterations)


def _on_cache_get(ledger, args, kwargs, outcome, duration):
    if kwargs.get("record_stats", True) \
            and not isinstance(outcome, BaseException):
        _add(ledger, "cache.misses" if outcome is None else "cache.hits")


def _on_map(ledger, args, kwargs, outcome, duration):
    from repro.perf.backends import last_map_info
    info = last_map_info()
    if info is not None:
        ledger.samples.setdefault("backends.map", []).append(
            [info.jobs_used, info.items, duration])


def _on_gaps(ledger, args, kwargs, outcome, duration):
    if outcome is not None and not isinstance(outcome, BaseException):
        _add(ledger, "arrivals.generated", len(outcome))


def _on_gap(ledger, args, kwargs, outcome, duration):
    _add(ledger, "arrivals.generated")


# ----------------------------------------------------------------------
# the wrap table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One entry point: ``module:Class.method`` or ``module:function``."""

    layer: str
    key: str                   # call-statistics key, e.g. "gtpn.build"
    where: str
    kind: str = WORK
    hook: Callable | None = None


def _methods(layer: str, key: str, where: str, names: tuple[str, ...],
             **extra) -> list[Target]:
    return [Target(layer, key, f"{where}.{name}", **extra)
            for name in names]


_IPC_PUBLIC = ("create_service", "offer", "inquire", "send", "activate",
               "receive", "reply", "fail_conversation", "compute",
               "memory_move")
_IPC_INTERNAL = ("_process_send", "_send_processed", "_arrive_request",
                 "_request_interrupt", "_queue_matched_message",
                 "_process_receive", "_receive_processed", "_try_match",
                 "_deliver_if_ready", "_start_service_routine",
                 "_process_reply", "_reply_processed",
                 "_finish_server_reply", "_arrive_reply",
                 "_complete_rendezvous", "_restart")

TARGETS: list[Target] = [
    # exact path, outermost first
    Target("api", "api.call", "repro.api:run_experiment"),
    Target("api", "api.call", "repro.api:submit_experiment"),
    Target("api", "api.execute", "repro.api:_execute_run"),
    Target("service", "service.submit",
           "repro.service.queue:ExperimentService.submit"),
    *_methods("service", "service.store",
              "repro.service.store:ResultStore", ("get", "put")),
    Target("service", "service.wait", "repro.service.jobs:JobHandle.result",
           kind=WAIT),
    Target("backends", "backends.map", "repro.perf.backends:map_sweep",
           hook=_on_map),
    Target("backends", "backends.pool",
           "repro.perf.backends.local:LocalPoolBackend.submit_map",
           kind=WAIT),
    Target("cache", "cache.fingerprint", "repro.perf.cache:fingerprint_net"),
    Target("cache", "cache.get", "repro.perf.cache:AnalysisCache.get",
           hook=_on_cache_get),
    Target("cache", "cache.put", "repro.perf.cache:AnalysisCache.put"),
    Target("experiments", "experiments.run",
           "repro.experiments.registry:Experiment.run"),
    Target("models", "models.solve", "repro.models.solve:solve"),
    *[Target("models", "models.grid", f"repro.models.solve:{name}")
      for name in ("solve_grid", "solve_offered_load_grid",
                   "solve_at_offered_load")],
    Target("models", "models.fixed_point", "repro.models.iterate:solve_nonlocal",
           hook=_on_fixed_point),
    *[Target("models", "models.net_build", where) for where in (
        "repro.models.local:build_local_net",
        "repro.models.nonlocal_client:build_nonlocal_client_net",
        "repro.models.nonlocal_server:build_nonlocal_server_net")],
    Target("gtpn", "gtpn.analyze", "repro.gtpn.analysis:analyze"),
    Target("gtpn", "gtpn.analyze", "repro.gtpn.sweep:SweepSolver.analyze"),
    *[Target("gtpn", "gtpn.build", where, hook=_on_build) for where in (
        "repro.gtpn.packed:packed_build", "repro.gtpn.sweep:traced_build")],
    *[Target("gtpn", "gtpn.retime", where, hook=_on_retime) for where in (
        "repro.gtpn.packed:packed_retime", "repro.gtpn.sweep:retime")],
    Target("markov", "markov.solve",
           "repro.gtpn.markov:stationary_distribution", hook=_on_solve),
    Target("markov", "markov.fallback", "repro.gtpn.markov:_solve_power"),
    # DES path
    Target("arrivals", "arrivals.gaps",
           "repro.traffic.arrivals:PoissonArrivals.sample_gaps",
           hook=_on_gaps),
    Target("arrivals", "arrivals.gaps",
           "repro.traffic.arrivals:ParetoArrivals.sample_gaps",
           hook=_on_gaps),
    Target("engine", "engine.run", "repro.traffic.engine:run_open_experiment"),
    *_methods("engine", "engine.admit",
              "repro.traffic.engine:OpenTrafficSource",
              ("attach", "_post_chunk", "_arrive", "_charge_examination",
               "_examination_done", "_dispatch", "_on_reply")),
    Target("sim", "sim.run", "repro.kernel.system:DistributedSystem.run_for"),
    *_methods("sim", "sim.run", "repro.kernel.sim:Simulator",
              ("run_until", "run")),
    *_methods("ipc", "ipc.call", "repro.kernel.ipc:IPCKernel", _IPC_PUBLIC),
    *_methods("ipc", "ipc.internal", "repro.kernel.ipc:IPCKernel",
              _IPC_INTERNAL),
    Target("processors", "processors.submit",
           "repro.kernel.processors:Processor.submit"),
    Target("processors", "processors.complete",
           "repro.kernel.processors:Processor._complete"),
    Target("network", "network.transmit", "repro.kernel.network:Wire.transmit"),
    *_methods("network", "network.transport",
              "repro.kernel.transport:DirectTransport",
              ("send_request", "send_reply")),
    *_methods("meters", "meters.record", "repro.traffic.metrics:TrafficMeter",
              ("record_offered", "record_dispatched", "record_queued",
               "record_dropped", "record_rejected", "record_deferred",
               "record_completion", "record_failure")),
]

#: MMPP arrivals stream gaps from a generator; each draw is one call.
_STREAMS = ("repro.traffic.arrivals:MMPPArrivals.stream",)


def _resolve(where: str):
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Wraps the layers' entry points and keeps per-thread totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ledgers: list[_Ledger] = []
        self.in_worker = False
        self.main: _Ledger | None = None
        self.started = self.finished = 0.0

    # -- per-thread state ---------------------------------------------
    def ledger(self) -> _Ledger:
        try:
            return self._local.ledger
        except AttributeError:
            ledger = _Ledger()
            self._local.ledger = ledger
            with self._lock:
                self._ledgers.append(ledger)
            return ledger

    def _after_fork(self) -> None:
        """A forked pool worker starts with empty totals of its own."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ledgers = []
        self.in_worker = True

    def _ship(self, ledger: _Ledger) -> None:
        from repro import obs
        obs.event(LEDGER_EVENT, **ledger.export())
        ledger.clear()

    # -- wrapping -----------------------------------------------------
    def _wrap(self, target: Target, original: Callable) -> Callable:
        key, layer, hook = target.key, target.layer, target.hook
        waits = target.kind == WAIT
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            ledger = tracer.ledger()
            stack = ledger.stack
            parent = stack[-1] if stack else None
            frame = [0.0, key]
            stack.append(frame)
            outcome = None
            start = perf_counter()
            try:
                outcome = original(*args, **kwargs)
                return outcome
            except Exception as error:
                outcome = error
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                own = duration - frame[0]
                bucket = ledger.wait_s if waits else ledger.self_s
                bucket[layer] = bucket.get(layer, 0.0) + own
                entry = ledger.calls.get(key)
                if entry is None:
                    entry = ledger.calls[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration
                if hook is not None:
                    hook(ledger, args, kwargs, outcome, duration)
                if parent is not None:
                    parent[0] += duration
                    # a serial sweep runs its tasks in-process; a pooled
                    # one only waits here and its workers ship task time
                    if parent[1] == "backends.map" and not waits:
                        ledger.task_s += duration
                else:
                    ledger.root_s += duration
                    if tracer.in_worker:
                        ledger.task_s += duration
                        tracer._ship(ledger)
        return wrapper

    def _wrap_stream(self, original: Callable) -> Callable:
        draw = self._wrap(Target("arrivals", "arrivals.gaps", "", hook=_on_gap),
                          next)

        @functools.wraps(original)
        def stream(*args, **kwargs):
            gaps = original(*args, **kwargs)
            while True:
                yield draw(gaps)
        return stream

    def install(self) -> None:
        """Wrap every target under every name ``repro`` binds it to."""
        wrappers: dict[int, Callable] = {}      # id(original) -> wrapper
        for target in TARGETS:
            owner, name = _resolve(target.where)
            original = owner.__dict__[name]
            wrappers[id(original)] = self._wrap(target, original)
            setattr(owner, name, wrappers[id(original)])
        for where in _STREAMS:
            owner, name = _resolve(where)
            setattr(owner, name, self._wrap_stream(owner.__dict__[name]))
        # the wrappers hold their originals, so no id is reused meanwhile
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        os.register_at_fork(after_in_child=self._after_fork)
        self.main = self.ledger()
        self.started = perf_counter()

    def finish(self, recorder=None) -> "Summary":
        """Stop the clock and merge every thread's and worker's totals."""
        self.finished = perf_counter()
        total = _Ledger()
        with self._lock:
            ledgers = list(self._ledgers)
        for ledger in ledgers:
            total.absorb(ledger.export())
        if recorder is not None:
            for event in recorder.events:
                if event.name == LEDGER_EVENT:
                    total.absorb(event.attrs)
        return Summary(total=total, main=self.main,
                       wall_s=self.finished - self.started)


@dataclass
class Summary:
    """Totals of one traced pass."""

    total: _Ledger          # every thread and pool worker
    main: _Ledger           # the thread that made the workload calls
    wall_s: float           # from install to finish, on the main thread

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - self.main.root_s

    def reconciles(self) -> bool:
        """Main-thread self and wait times plus the unattributed rest
        add up to the traced wall."""
        attributed = sum(self.main.self_s.values()) \
            + sum(self.main.wait_s.values())
        return abs(attributed + self.unattributed_s - self.wall_s) \
            <= 1e-6 * max(self.wall_s, 1.0)


def _quantile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1] * 1e3


def layer_metrics(summary: Summary, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see NOTES.md)."""
    total = summary.total

    def self_s(layer):
        return total.self_s.get(layer, 0.0)

    def calls(key):
        return total.calls.get(key, [0, 0.0])[0]

    def call_s(key):
        return total.calls.get(key, [0, 0.0])[1]

    def count(name):
        return total.counts.get(name, 0.0)

    task_time = sum(total.self_s.values())
    solves = total.samples.get("markov.solve_s", [])
    maps = total.samples.get("backends.map", [])
    map_capacity = sum(jobs * seconds for jobs, _items, seconds in maps)
    hits, misses = count("cache.hits"), count("cache.misses")
    service = facts.get("service", {})
    submitted = service.get("submitted", 0)
    engine = facts.get("engine", {})
    offered = engine.get("offered", 0)
    metrics = {
        "markov.solves": calls("markov.solve"),
        "markov.states_solved": count("markov.states_solved"),
        "markov.solve_s": call_s("markov.solve"),
        "markov.solve_p50_ms": _quantile_ms(solves, 5),
        "markov.solve_p90_ms": _quantile_ms(solves, 9),
        "markov.fallbacks": calls("markov.fallback"),
        "markov.solve_share": self_s("markov") / task_time
        if task_time else 0.0,
        "models.solve_calls": calls("models.solve"),
        "models.net_builds": calls("models.net_build"),
        "models.net_build_s": call_s("models.net_build"),
        "models.fixed_point_iterations":
            count("models.fixed_point_iterations"),
        "models.self_s": self_s("models"),
        "gtpn.analyze_calls": calls("gtpn.analyze"),
        "gtpn.build_calls": calls("gtpn.build"),
        "gtpn.build_s": call_s("gtpn.build"),
        "gtpn.states_built": count("gtpn.states_built"),
        "gtpn.retime_calls": calls("gtpn.retime"),
        "gtpn.retime_s": call_s("gtpn.retime"),
        "gtpn.retime_mismatches": count("gtpn.retime_mismatches"),
        "gtpn.self_s": self_s("gtpn"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.self_s": self_s("cache"),
        "backends.map_calls": len(maps),
        "backends.items": sum(items for _jobs, items, _s in maps),
        "backends.jobs_used": max((jobs for jobs, _i, _s in maps),
                                  default=0),
        "backends.map_s": call_s("backends.map"),
        "backends.parallel_efficiency": total.task_s / map_capacity
        if map_capacity else 0.0,
        "backends.self_s": self_s("backends"),
        "service.submitted": submitted,
        "service.executed": service.get("executed", 0),
        "service.coalesced": service.get("coalesced", 0),
        "service.store_hits": service.get("store_hits", 0),
        "service.dedupe_ratio": (service.get("coalesced", 0)
                                 + service.get("store_hits", 0)) / submitted
        if submitted else 0.0,
        "service.job_latency_p50_s": service.get("latency_p50_s", 0.0),
        "service.self_s": self_s("service"),
        "api.calls": calls("api.call"),
        "api.self_s": self_s("api"),
        "experiments.self_s": self_s("experiments"),
        "setup.import_s": facts["import_s"],
        "setup.capacity_solve_s": facts["capacity_solve_s"],
        "arrivals.generated": count("arrivals.generated"),
        "arrivals.self_s": self_s("arrivals"),
        "engine.offered": offered,
        "engine.admitted": engine.get("admitted", 0),
        "engine.dropped": engine.get("dropped", 0),
        "engine.admit_ratio": engine.get("admitted", 0) / offered
        if offered else 0.0,
        "engine.self_s": self_s("engine"),
        "sim.events": facts.get("events", 0),
        "sim.self_s": self_s("sim"),
        "ipc.calls": calls("ipc.call"),
        "ipc.self_s": self_s("ipc"),
        "processors.work_items": calls("processors.complete"),
        "processors.self_s": self_s("processors"),
        "network.packets": calls("network.transmit"),
        "network.self_s": self_s("network"),
        "meters.records": calls("meters.record"),
        "meters.self_s": self_s("meters"),
        "trace.unattributed_s": summary.unattributed_s,
        "trace.wait_s": sum(summary.main.wait_s.values()),
    }
    utilization = facts.get("utilization", {})
    for node in SIM_NODES:
        for processor in SIM_PROCESSORS:
            metrics[f"processors.sim_utilization.{node}.{processor}"] = \
                utilization.get(node, {}).get(processor, 0.0)
    return metrics
