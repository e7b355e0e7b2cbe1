"""Open-arrival traffic engine over the kernel DES.

The closed-loop benchmark (``kernel/workload.py``) models *k* patient
clients who re-send the instant a reply lands — offered load is
whatever the system can absorb, so saturation is invisible.  This
engine models the opposite regime: arrivals come from an external
:class:`~repro.traffic.arrivals.ArrivalProcess` at a configured rate
regardless of how the system is doing, which is what exposes the
offered-load -> latency knee the paper's §6.6.4 assumptions hide.

Session multiplexing: the client *population* is logical (message
``client_id``s, millions are fine) while sending happens through a
bounded pool of real kernel :class:`~repro.kernel.tasks.Task` objects
("open workers").  An arrival grabs a free worker if any; otherwise it
waits in a bounded ingress queue in front of the message processor;
when that is full too, the configured admission policy decides — and
*pays for the decision* with Table 6.x activity times on the node's
IPC processor, because a real MP examines a message before it can
refuse it:

* ``drop`` — discard silently; charges one ``match`` time
  ("admission drop (MP)").
* ``reject`` — discard but generate a refusal the client can see;
  charges ``match`` + ``process_reply`` ("admission reject (MP)").
* ``backpressure`` — park the message upstream (unbounded overflow,
  modelling sources that block); charges one ``match`` per deferral
  ("admission defer (MP)") and feeds the ingress queue as it drains.

The examination charge makes the MP itself a saturable resource: at
``match`` = 1.26 ms (Table 6.x) a refusal stream past ~0.8 msgs/ms
would grow the MP's work backlog without bound — classic receive
livelock.  The engine bounds it the way hardware does: at most
``examine_limit`` refusal examinations may be outstanding on the MP;
past that the *interface* tail-drops, recording the refusal but
charging nothing (``tail_drops`` counts these).  That keeps memory
bounded at any offered rate, which the million-message CI bench
(``benchmarks/test_bench_traffic.py``) asserts.

Determinism: the arrival stream draws from its own
:class:`random.Random` seeded with ``crc32(b"traffic") ^ seed``, so
attaching traffic never perturbs the server compute-time streams.  A
null process attaches nothing and consumes no randomness — the
zero-rate open system is *bit-identical* to the closed-loop system
built from the same seed (``tests/traffic/test_zero_rate_identity``).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro import config, obs
from repro.errors import TrafficError
from repro.kernel.metrics import ConversationMeter, emit_busy_events
from repro.kernel.node import Node
from repro.kernel.system import DistributedSystem
from repro.kernel.tasks import Task
from repro.kernel.transport import DeliveryFailure
from repro.kernel.workload import (SERVICE_NAME, ClientProgram,
                                   build_benchmark_nodes,
                                   install_bench_service)
from repro.models.params import Architecture, Mode
from repro.seeding import resolve_seed
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.metrics import TrafficMeter, TrafficResult

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

#: Admission policies at a full ingress queue.
POLICY_NAMES = ("drop", "reject", "backpressure")

#: Seed-stream label for the traffic RNG (same derivation idiom as the
#: fault planner), keeping arrival draws out of the server streams.
TRAFFIC_SEED_SALT = zlib.crc32(b"traffic")

#: Arrivals pregenerated per batch.  Gaps are drawn in one go, summed
#: into absolute timestamps with ``np.cumsum`` (sequential, so the
#: result is bit-identical to the one-at-a-time ``now + gap`` walk the
#: engine used to do) and bulk-posted as a presorted run — one
#: ``Simulator.post_run`` per chunk instead of one ``at()`` per
#: message.
ARRIVAL_CHUNK = 4096

#: Bound on the recycled-message pool (admitted messages only; the
#: overload drop path allocates nothing at all).
_MESSAGE_POOL_MAX = 1024


def check_policy(policy: str) -> str:
    if policy not in POLICY_NAMES:
        raise TrafficError(
            f"unknown admission policy {policy!r}; "
            f"choose from {', '.join(POLICY_NAMES)}")
    return policy


class _OpenMessage:
    """One offered message while it is alive inside the engine.

    Slotted and pooled: the engine recycles completed records, so the
    steady-state run allocates no per-message objects."""

    __slots__ = ("client_id", "arrived_at", "dispatched_at")

    def __init__(self, client_id: int, arrived_at: float):
        self.client_id = client_id
        self.arrived_at = arrived_at
        self.dispatched_at = 0.0


class OpenTrafficSource:
    """Generates arrivals and runs them through admission + dispatch.

    Construction is passive; :meth:`attach` wires the source to a
    built system and schedules the first arrival (nothing at all for a
    null process).  Arrivals stop at ``horizon_us``; in-flight work
    after the horizon still completes and is recorded.
    """

    def __init__(self, process: ArrivalProcess, *,
                 pool_size: int = 32, queue_limit: int = 64,
                 policy: str = "drop", population: int = 1_000_000,
                 seed: int = 0, horizon_us: float = float("inf"),
                 examine_limit: int = 64):
        if pool_size < 1:
            raise TrafficError(
                f"pool_size must be >= 1, got {pool_size!r}")
        if queue_limit < 0:
            raise TrafficError(
                f"queue_limit must be >= 0, got {queue_limit!r}")
        if population < 1:
            raise TrafficError(
                f"population must be >= 1, got {population!r}")
        if examine_limit < 1:
            raise TrafficError(
                f"examine_limit must be >= 1, got {examine_limit!r}")
        self.process = process
        self.pool_size = pool_size
        self.queue_limit = queue_limit
        self.policy = check_policy(policy)
        self.population = population
        self.seed = seed
        self.horizon_us = horizon_us
        self.examine_limit = examine_limit
        self.rng = random.Random(TRAFFIC_SEED_SALT ^ seed)
        self._stream: Iterator[float] | None = None
        self._node: Node | None = None
        self._meter: TrafficMeter | None = None
        self._free: list[Task] = []
        self._ingress: deque[_OpenMessage] = deque()
        self._overflow: deque[_OpenMessage] = deque()
        self._message_pool: list[_OpenMessage] = []
        self._next_client = 0
        self._examining = 0
        self.tail_drops = 0
        self.in_flight = 0
        # chunked-arrival state (see _post_chunk)
        self._batched = False
        self._last_time = 0.0
        self._chunk_remaining = 0
        self._exhausted = False
        # admission costs, precomputed at attach
        self._drop_cost = 0.0
        self._reject_cost = 0.0
        self._defer_cost = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, client_node: Node, meter: TrafficMeter) -> None:
        """Create the worker pool and schedule the first arrival.

        A null process is a strict no-op: no tasks, no events, no RNG
        draws — the attached system is indistinguishable from one that
        never saw this source.
        """
        if self.process.is_null:
            return
        self._node = client_node
        self._meter = meter
        self._free = [client_node.create_task(f"open{i}")
                      for i in range(self.pool_size)]
        costs = client_node.default_costs
        self._drop_cost = costs.match
        self._reject_cost = costs.match + costs.process_reply
        self._defer_cost = costs.match
        # a zero-length probe draws nothing: it only asks the process
        # whether it can batch (stateless) or needs a persistent
        # stream (MMPP's modulating chain)
        self._batched = self.process.sample_gaps(self.rng, 0) is not None
        if not self._batched:
            self._stream = self.process.stream(self.rng)
        self._last_time = client_node.sim.now
        self._post_chunk()

    def _post_chunk(self) -> None:
        """Pregenerate up to ``ARRIVAL_CHUNK`` arrivals and bulk-post
        them as one presorted run.

        The gap draws come from the identical per-draw arithmetic the
        streaming path used (``sample_gaps`` is pinned bit-identical
        to ``stream``), and ``np.cumsum`` accumulates them exactly
        like the old ``now + gap`` walk, so the arrival timestamps are
        reproduced bit-for-bit.  Drawing a few gaps past the horizon
        is harmless: the traffic RNG feeds nothing else.
        """
        if self._batched:
            gaps = self.process.sample_gaps(self.rng, ARRIVAL_CHUNK)
        else:
            gaps = list(islice(self._stream, ARRIVAL_CHUNK))
        times = np.empty(len(gaps) + 1)
        times[0] = self._last_time
        times[1:] = gaps
        np.cumsum(times, out=times)
        arrivals = times[1:]
        cut = int(np.searchsorted(arrivals, self.horizon_us,
                                  side="right"))
        if cut < len(arrivals):
            self._exhausted = True
        if cut == 0:
            return
        self._last_time = float(arrivals[cut - 1])
        self._chunk_remaining = cut
        self._node.sim.post_run(arrivals[:cut].tolist(), self._arrive)

    def _new_message(self, client_id: int,
                     arrived_at: float) -> _OpenMessage:
        pool = self._message_pool
        if pool:
            message = pool.pop()
            message.client_id = client_id
            message.arrived_at = arrived_at
            message.dispatched_at = 0.0
            return message
        return _OpenMessage(client_id, arrived_at)

    # ------------------------------------------------------------------
    # arrival + admission
    # ------------------------------------------------------------------
    def _arrive(self) -> None:
        now = self._node.sim.now
        client = self._next_client
        self._next_client = (client + 1) % self.population
        meter = self._meter
        meter.record_offered(now)
        if self._free:
            meter.record_dispatched(now)
            self._dispatch(self._new_message(client, now))
        elif len(self._ingress) < self.queue_limit:
            meter.record_queued(now)
            self._ingress.append(self._new_message(client, now))
        else:
            # refusal: charge the MP for examining the message it is
            # about to turn away (costs precomputed at attach); the
            # drop path allocates no message object at all
            policy = self.policy
            if policy == "drop":
                self._charge_examination(self._drop_cost,
                                         "admission drop (MP)")
                meter.record_dropped(now)
            elif policy == "reject":
                self._charge_examination(self._reject_cost,
                                         "admission reject (MP)")
                meter.record_rejected(now)
            else:   # backpressure
                self._charge_examination(self._defer_cost,
                                         "admission defer (MP)")
                meter.record_deferred(now)
                self._overflow.append(self._new_message(client, now))
        remaining = self._chunk_remaining - 1
        self._chunk_remaining = remaining
        if not remaining and not self._exhausted:
            self._post_chunk()

    def _charge_examination(self, duration: float, label: str) -> None:
        """Charge the MP for examining a refused message — unless its
        examination backlog is already at ``examine_limit``, in which
        case the interface tail-drops: the refusal still happened (the
        meter recorded it) but a livelocked MP never saw the message,
        so no work is charged and memory stays bounded."""
        if self._examining >= self.examine_limit:
            self.tail_drops += 1
            return
        self._examining += 1
        self._node.processors.ipc.submit(
            duration, action=self._examination_done, label=label)

    def _examination_done(self) -> None:
        self._examining -= 1

    # ------------------------------------------------------------------
    # dispatch + completion
    # ------------------------------------------------------------------
    def _dispatch(self, message: _OpenMessage) -> None:
        worker = self._free.pop()
        message.dispatched_at = self._node.sim.now
        self.in_flight += 1
        self._node.kernel.send(
            worker, SERVICE_NAME,
            payload=("open", message.client_id),
            on_reply=lambda payload: self._on_reply(
                worker, message, payload))

    def _on_reply(self, worker: Task, message: _OpenMessage,
                  payload: object) -> None:
        now = self._node.sim.now
        self.in_flight -= 1
        if isinstance(payload, DeliveryFailure):
            self._meter.record_failure(message.arrived_at, now)
        else:
            self._meter.record_completion(
                message.arrived_at, message.dispatched_at, now)
        if len(self._message_pool) < _MESSAGE_POOL_MAX:
            self._message_pool.append(message)
        self._free.append(worker)
        if self._ingress:
            self._dispatch(self._ingress.popleft())
        # a freed ingress slot drains the backpressure overflow
        while self._overflow and len(self._ingress) < self.queue_limit:
            self._ingress.append(self._overflow.popleft())
            if self._free:
                self._dispatch(self._ingress.popleft())

    @property
    def backlog(self) -> int:
        """Messages admitted but not yet dispatched."""
        return len(self._ingress) + len(self._overflow)


@dataclass
class OpenBench:
    """A built-but-not-run open-arrival system."""

    system: DistributedSystem
    source: OpenTrafficSource
    meter: TrafficMeter
    closed_meter: ConversationMeter = field(
        default_factory=ConversationMeter)


def build_open_system(architecture: Architecture, mode: Mode,
                      process: ArrivalProcess, *,
                      servers: int = 2, mean_compute: float = 0.0,
                      pool_size: int = 32, queue_limit: int = 64,
                      policy: str = "drop",
                      deadline_us: float | None = None,
                      population: int = 1_000_000,
                      seed: int | None = None, hosts: int = 1,
                      faults: "FaultPlan | None" = None,
                      closed_conversations: int = 0,
                      measure_from: float = 0.0,
                      horizon_us: float = float("inf"),
                      examine_limit: int = 64,
                      relative_error: float = 0.01) -> OpenBench:
    """Assemble an open-arrival system without running it.

    The node layout and the server pool are built through the *same*
    seam as :func:`repro.kernel.workload.build_conversation_system`
    with the same RNG discipline, so for a null *process* and
    ``closed_conversations=k`` the result is bit-identical to the
    closed-loop builder's ``conversations=k`` system.  ``servers``
    only has to match ``closed_conversations`` in that identity
    configuration; an open run normally sizes them independently.
    """
    if servers < 1:
        raise TrafficError(f"servers must be >= 1, got {servers!r}")
    if faults is None:
        faults = config.get("fault_plan")
    seed = resolve_seed(seed, fallback=0)
    system = DistributedSystem(architecture, faults=faults)
    rng = random.Random(seed)

    client_node, server_node = build_benchmark_nodes(system, mode,
                                                     hosts)
    install_bench_service(server_node, servers, mean_compute, rng)

    closed_meter = ConversationMeter()
    for i in range(closed_conversations):
        client_task = client_node.create_task(f"client{i}")
        ClientProgram(client_node, client_task, closed_meter).start()

    meter = TrafficMeter(measure_from=measure_from,
                         deadline_us=deadline_us,
                         relative_error=relative_error)
    source = OpenTrafficSource(
        process, pool_size=pool_size, queue_limit=queue_limit,
        policy=policy, population=population, seed=seed,
        horizon_us=horizon_us, examine_limit=examine_limit)
    source.attach(client_node, meter)
    return OpenBench(system=system, source=source, meter=meter,
                     closed_meter=closed_meter)


def _sketch_stat(sketch, fn):
    return fn(sketch) if sketch.count else None


def run_open_experiment(architecture: Architecture, mode: Mode,
                        process: ArrivalProcess, *,
                        servers: int = 2, mean_compute: float = 0.0,
                        warmup_us: float = 200_000.0,
                        measure_us: float = 2_000_000.0,
                        drain: bool = True,
                        pool_size: int = 32, queue_limit: int = 64,
                        policy: str = "drop",
                        deadline_us: float | None = None,
                        population: int = 1_000_000,
                        seed: int | None = None, hosts: int = 1,
                        faults: "FaultPlan | None" = None,
                        examine_limit: int = 64,
                        relative_error: float = 0.01,
                        ) -> TrafficResult:
    """Offer *process* traffic for ``warmup_us + measure_us`` and
    measure the steady-state window.

    Arrivals stop at the horizon; with ``drain`` (the default) the
    simulation then runs on until in-flight work settles, so
    completion counters are not truncated mid-conversation.  Latency
    percentiles/counters cover the measurement window only; memory
    stays bounded by the quantile sketch regardless of how many
    messages were offered.
    """
    horizon = warmup_us + measure_us
    bench = build_open_system(
        architecture, mode, process, servers=servers,
        mean_compute=mean_compute, pool_size=pool_size,
        queue_limit=queue_limit, policy=policy,
        deadline_us=deadline_us, population=population, seed=seed,
        hosts=hosts, faults=faults, measure_from=warmup_us,
        horizon_us=horizon, examine_limit=examine_limit,
        relative_error=relative_error)
    system, source, meter = bench.system, bench.source, bench.meter
    with obs.span("kernel.run", architecture=architecture.name,
                  mode=mode.name, workload="open",
                  process=process.describe(), policy=policy):
        system.run_for(horizon)
        if drain:
            # arrivals have stopped; let the calendar empty so every
            # admitted message resolves (backpressure overflow included)
            system.sim.run()
    emit_busy_events(system)
    elapsed = system.now
    utilization = {name: node.utilization(elapsed)
                   for name, node in system.nodes.items()}
    return TrafficResult(
        architecture=architecture, mode=mode,
        process=process.describe(),
        offered_rate_per_us=process.mean_rate_per_us,
        policy=policy, servers=servers, pool_size=pool_size,
        queue_limit=queue_limit, deadline_us=deadline_us,
        population=population, warmup_us=warmup_us,
        measured_us=measure_us, counts=meter.measured,
        throughput_per_us=meter.throughput_per_us(measure_us),
        goodput_per_us=meter.goodput_per_us(measure_us),
        drop_rate=meter.drop_rate,
        deadline_miss_rate=meter.deadline_miss_rate,
        latency_p50=_sketch_stat(meter.latency,
                                 lambda s: s.quantile(0.50)),
        latency_p99=_sketch_stat(meter.latency,
                                 lambda s: s.quantile(0.99)),
        latency_p999=_sketch_stat(meter.latency,
                                  lambda s: s.quantile(0.999)),
        latency_mean=_sketch_stat(meter.latency, lambda s: s.mean()),
        queue_wait_p99=_sketch_stat(meter.queue_wait,
                                    lambda s: s.quantile(0.99)),
        utilization=utilization,
        events_processed=system.sim.events_processed,
        meter=meter)
