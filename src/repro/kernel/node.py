"""Node assembly per architecture (Figures 1.2, 4.3, 6.1-6.4)."""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.kernel.ipc import IPCKernel
from repro.kernel.processors import Processor, ProcessorSet
from repro.kernel.tasks import Task
from repro.kernel.timings import CostModel, cost_model
from repro.models.params import Architecture, Mode

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.kernel.events import EventManager
    from repro.kernel.system import DistributedSystem


class Node:
    """One computing node of the distributed system.

    ``default_mode`` selects which cost table drives the mode-agnostic
    receive/reply path of this node (the thesis evaluates pure-local
    and pure-non-local workloads; a server node in a non-local
    experiment charges the non-local receive costs).
    """

    def __init__(self, system: "DistributedSystem", name: str,
                 architecture: Architecture,
                 default_mode: Mode = Mode.LOCAL,
                 hosts: int = 1):
        self.system = system
        self.sim = system.sim
        self.name = name
        self.architecture = architecture
        self.default_mode = default_mode
        self.hosts = hosts
        # attributes, so the IPC path (which reads a cost table on
        # nearly every step) hashes no Mode
        self._local_costs: CostModel = cost_model(architecture,
                                                  Mode.LOCAL)
        self._nonlocal_costs: CostModel = cost_model(architecture,
                                                     Mode.NONLOCAL)
        #: the cost table of the mode-agnostic receive/reply path
        self.default_costs: CostModel = self.costs(
            default_mode is Mode.LOCAL)

        host = Processor(self.sim, f"{name}.host", servers=hosts)
        mp = Processor(self.sim, f"{name}.mp") \
            if architecture is not Architecture.I else None
        net_out = Processor(self.sim, f"{name}.net_out")
        net_in = Processor(self.sim, f"{name}.net_in")
        everything = [p for p in (host, mp, net_out, net_in)
                      if p is not None]
        self.processors = ProcessorSet(host=host, mp=mp, net_out=net_out,
                                       net_in=net_in,
                                       everything=everything)
        self.tasks: dict[str, Task] = {}
        self.kernel = IPCKernel(self)
        self.transport = system.build_transport(self)

    @cached_property
    def events(self) -> EventManager:
        """The section 4.2 event and interrupt machinery, built on
        first use (lazy import: events builds on the kernel)."""
        from repro.kernel.events import EventManager
        return EventManager(self)

    def costs(self, local: bool) -> CostModel:
        """The cost table for a local or non-local interaction."""
        return self._local_costs if local else self._nonlocal_costs

    def create_task(self, name: str, priority: int = 0) -> Task:
        """Create a task statically bound to this node."""
        if name in self.system.all_task_names():
            raise KernelError(f"duplicate task name {name!r}")
        task = Task(name=name, node_name=self.name, priority=priority)
        self.tasks[name] = task
        return task

    def utilization(self, elapsed: float) -> dict[str, float]:
        """Per-processor utilization over *elapsed* microseconds."""
        return {p.name.split(".", 1)[1]: p.utilization(elapsed)
                for p in self.processors.everything}

    def __repr__(self) -> str:
        return (f"Node({self.name!r}, {self.architecture.name}, "
                f"tasks={len(self.tasks)})")
