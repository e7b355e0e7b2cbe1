"""The chapter 6 benchmark workload on the kernel simulator.

Clients loop issuing blocking remote-invocation sends; servers loop
posting blocking receives, compute for a uniformly distributed random
time, and reply (sections 4.8 and 6.3).  Local experiments put every
task on one node; non-local experiments group all clients on one node
and all servers on the other, exactly like the thesis measurements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import config, obs
from repro.errors import WorkloadError
from repro.kernel.messages import Message
from repro.kernel.metrics import ConversationMeter, emit_busy_events
from repro.kernel.node import Node
from repro.kernel.system import DistributedSystem
from repro.kernel.tasks import Task
from repro.kernel.transport import DeliveryFailure
from repro.models.params import Architecture, Mode
from repro.seeding import resolve_seed

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

#: Name of the benchmark service.
SERVICE_NAME = "bench"


class ClientProgram:
    """``loop { send }`` — blocking remote invocation (section 6.3)."""

    def __init__(self, node: Node, task: Task,
                 meter: ConversationMeter):
        self.node = node
        self.task = task
        self.meter = meter
        self._sent_at = 0.0

    def start(self) -> None:
        self._send()

    def _send(self) -> None:
        self._sent_at = self.node.sim.now
        self.node.kernel.send(self.task, SERVICE_NAME,
                              on_reply=self._on_reply)

    def _on_reply(self, payload: object) -> None:
        if isinstance(payload, DeliveryFailure):
            # the transport gave up on this conversation; count it
            # and keep offering load
            self.meter.record_failure(self.task.name, self._sent_at,
                                      self.node.sim.now)
        else:
            self.meter.record(self.task.name, self._sent_at,
                              self.node.sim.now)
        self._send()


class ServerProgram:
    """``loop { receive; compute; reply }`` (section 6.3).

    Computation per request is uniform on [0, 2X] with mean X,
    matching the uniformly distributed busy loop of the thesis
    measurements (section 4.8).
    """

    def __init__(self, node: Node, task: Task, mean_compute: float,
                 rng: random.Random):
        if mean_compute < 0:
            raise WorkloadError("negative compute time")
        self.node = node
        self.task = task
        self.mean_compute = mean_compute
        self.rng = rng

    def start(self) -> None:
        self.node.kernel.offer(self.task, SERVICE_NAME)
        self._receive()

    def _receive(self) -> None:
        self.node.kernel.receive(self.task, SERVICE_NAME,
                                 self._on_message)

    def _on_message(self, message: Message) -> None:
        duration = self.rng.uniform(0.0, 2.0 * self.mean_compute) \
            if self.mean_compute > 0 else 0.0
        self.node.kernel.compute(
            self.task, duration,
            lambda: self.node.kernel.reply(self.task, message,
                                           on_done=self._receive))


@dataclass
class WorkloadResult:
    """Measured outcome of one conversation experiment."""

    architecture: Architecture
    mode: Mode
    conversations: int
    mean_compute: float
    warmup_us: float
    measured_us: float
    throughput: float          # round trips per microsecond
    mean_round_trip: float
    utilization: dict[str, dict[str, float]]
    round_trips: int

    @property
    def throughput_per_ms(self) -> float:
        return self.throughput * 1e3


def build_benchmark_nodes(system: DistributedSystem, mode: Mode,
                          hosts: int = 1) -> tuple[Node, Node]:
    """Add the benchmark's node layout; ``(client_node, server_node)``.

    Local experiments put every task on one node (both returned nodes
    are the same object); non-local experiments group all clients on
    one node and all servers on the other.  Shared by the closed-loop
    builder below and the open-arrival builder in
    :mod:`repro.traffic.engine`, so both drive a structurally
    identical system.
    """
    if mode is Mode.LOCAL:
        node = system.add_node("node0", default_mode=Mode.LOCAL,
                               hosts=hosts)
        return node, node
    client_node = system.add_node(
        "clients", default_mode=Mode.NONLOCAL, hosts=hosts)
    server_node = system.add_node(
        "servers", default_mode=Mode.NONLOCAL, hosts=hosts)
    return client_node, server_node


def install_bench_service(server_node: Node, servers: int,
                          mean_compute: float,
                          rng: random.Random) -> None:
    """Create the ``bench`` service and start *servers* server loops.

    Each server draws exactly one value from *rng* to seed its private
    compute-time stream — the only randomness the closed-loop system
    consumes, so any builder that calls this with an equally seeded
    *rng* reproduces the server behaviour bit for bit.
    """
    creator = server_node.create_task("service-owner")
    server_node.kernel.create_service(creator, SERVICE_NAME)
    for i in range(servers):
        server_task = server_node.create_task(f"server{i}")
        ServerProgram(server_node, server_task, mean_compute,
                      random.Random(rng.random())).start()


def build_conversation_system(architecture: Architecture, mode: Mode,
                              conversations: int, mean_compute: float,
                              seed: int | None = None,
                              hosts: int = 1,
                              faults: "FaultPlan | None" = None,
                              ) -> tuple[DistributedSystem,
                                         ConversationMeter]:
    """Assemble the benchmark system without running it.

    ``hosts`` sets the host-processor count per node; the thesis's
    experimental 925 nodes had two (section 6.8).  ``faults`` runs the
    system over an unreliable network with the MP retransmission
    protocol (see :mod:`repro.faults`); an inactive plan is identical
    to ``None``.  ``seed`` falls back to the global ``--seed`` /
    ``REPRO_SEED`` default, then to the historical 0.
    """
    if conversations < 1:
        raise WorkloadError("need at least one conversation")
    if faults is None:
        faults = config.get("fault_plan")
    seed = resolve_seed(seed, fallback=0)
    system = DistributedSystem(architecture, faults=faults)
    meter = ConversationMeter()
    rng = random.Random(seed)

    client_node, server_node = build_benchmark_nodes(system, mode,
                                                     hosts)
    install_bench_service(server_node, conversations, mean_compute,
                          rng)
    for i in range(conversations):
        client_task = client_node.create_task(f"client{i}")
        ClientProgram(client_node, client_task, meter).start()
    return system, meter


def run_conversation_experiment(architecture: Architecture, mode: Mode,
                                conversations: int,
                                mean_compute: float = 0.0, *,
                                warmup_us: float = 200_000.0,
                                measure_us: float = 2_000_000.0,
                                seed: int | None = None,
                                hosts: int = 1,
                                faults: "FaultPlan | None" = None,
                                ) -> WorkloadResult:
    """Run the thesis benchmark and measure steady-state throughput."""
    system, meter = build_conversation_system(
        architecture, mode, conversations, mean_compute, seed,
        hosts=hosts, faults=faults)
    with obs.span("kernel.run", architecture=architecture.name,
                  mode=mode.name, conversations=conversations):
        system.run_for(warmup_us + measure_us)
    emit_busy_events(system)
    start, end = warmup_us, warmup_us + measure_us
    utilization = {name: node.utilization(end)
                   for name, node in system.nodes.items()}
    return WorkloadResult(
        architecture=architecture, mode=mode,
        conversations=conversations, mean_compute=mean_compute,
        warmup_us=warmup_us, measured_us=measure_us,
        throughput=meter.throughput(start, end),
        mean_round_trip=meter.mean_round_trip(start, end),
        utilization=utilization,
        round_trips=len(meter.window(start, end)))
