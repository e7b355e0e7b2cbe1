"""The distributed system: nodes, wire, and the global service registry.

Figure 1.1's model: computing nodes on a LAN, no shared memory between
nodes, message exchange the only inter-node mechanism.  Service names
are system-wide (the 925 lets any task install a service in its
addressing domain); the registry maps each to its owning node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.kernel.network import Wire
from repro.kernel.node import Node
from repro.kernel.services import Service
from repro.kernel.sim import Simulator
from repro.kernel.transport import DirectTransport, Transport
from repro.models.params import Architecture, Mode

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan


class DistributedSystem:
    """A simulated distributed system of uniform-architecture nodes.

    ``faults`` layers a :class:`repro.faults.unreliable.\
    UnreliableNetwork` over the wire and runs every node's packets
    through the MP acknowledgement/retransmission protocol.  A plan
    whose schedule cannot fault (all rates zero, no outages) is the
    reliable ring itself: the system then uses the plain wire and
    direct transport, so results are bit-identical to ``faults=None``.
    """

    def __init__(self, architecture: Architecture,
                 wire_latency_us: float = 0.0,
                 faults: "FaultPlan | None" = None):
        self.architecture = architecture
        self.sim = Simulator()
        self.wire = Wire(self.sim, wire_latency_us)
        self.faults = None
        if faults is not None and faults.active:
            # lazy import: faults builds on the kernel
            from repro.faults.unreliable import UnreliableNetwork
            self.faults = faults
            self.wire = UnreliableNetwork(self.wire,
                                          faults.build_schedule())
        self.nodes: dict[str, Node] = {}
        self._services: dict[str, Service] = {}

    def build_transport(self, node: Node) -> Transport:
        """The packet transport a new node should use."""
        if self.faults is not None:
            from repro.faults.protocol import ReliableTransport
            return ReliableTransport(node, self.faults.policy)
        return DirectTransport(node)

    def add_node(self, name: str, default_mode: Mode = Mode.LOCAL,
                 hosts: int = 1) -> Node:
        if name in self.nodes:
            raise KernelError(f"duplicate node name {name!r}")
        node = Node(self, name, self.architecture, default_mode,
                    hosts=hosts)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise KernelError(f"unknown node {name!r}") from None

    # ------------------------------------------------------------------
    # service registry
    # ------------------------------------------------------------------
    def register_service(self, service: Service) -> None:
        if service.name in self._services:
            raise KernelError(
                f"duplicate service name {service.name!r}")
        self._services[service.name] = service

    def lookup_service(self, name: str) -> tuple[Node, Service]:
        service = self._services.get(name)
        if service is None or service.destroyed:
            raise KernelError(f"no such service {name!r}")
        return self.nodes[service.node_name], service

    @property
    def services(self) -> dict[str, Service]:
        return dict(self._services)

    def all_task_names(self) -> set[str]:
        names: set[str] = set()
        for node in self.nodes.values():
            names.update(node.tasks)
        return names

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_for(self, duration_us: float) -> None:
        """Advance the simulation by *duration_us* microseconds."""
        self.sim.run_until(self.sim.now + duration_us)

    @property
    def now(self) -> float:
        return self.sim.now
