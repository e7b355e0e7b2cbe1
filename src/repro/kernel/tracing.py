"""Execution tracing for the kernel simulator.

Attaches observers to a node's processors and records every work item
(start, completion, duration, label), giving per-task and per-activity
timelines — the simulator's analogue of the thesis's message-path
time-stamping measurements (section 3.3, technique 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KernelError
from repro.kernel.node import Node
from repro.kernel.processors import Processor, WorkItem


@dataclass
class TraceEvent:
    """One completed unit of processor work."""

    processor: str
    label: str
    started_at: float
    completed_at: float
    urgent: bool

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


@dataclass
class ExecutionTrace:
    """Recorded work items of one node."""

    node: str
    events: list[TraceEvent] = field(default_factory=list)

    def by_processor(self, name: str) -> list[TraceEvent]:
        return [e for e in self.events if e.processor.endswith(name)]

    def by_label(self, fragment: str) -> list[TraceEvent]:
        """Events whose label contains *fragment*."""
        return [e for e in self.events if fragment in e.label]

    def busy_time(self, processor: str) -> float:
        return sum(e.duration for e in self.by_processor(processor))

    def activity_breakdown(self) -> dict[str, float]:
        """Total time per activity label — a Table 3.x-style profile."""
        breakdown: dict[str, float] = {}
        for event in self.events:
            breakdown[event.label] = breakdown.get(event.label, 0.0) \
                + event.duration
        return breakdown

    def timeline(self, processor: str, limit: int = 40) -> str:
        """Text rendering of one processor's first *limit* items."""
        lines = [f"-- {self.node}.{processor}"]
        for event in self.by_processor(processor)[:limit]:
            marker = "!" if event.urgent else " "
            lines.append(
                f"{event.started_at:10.1f} .. {event.completed_at:10.1f}"
                f" {marker} {event.label}")
        return "\n".join(lines)


class TraceRecorder:
    """Installs work-item observers on a node's processors.

    Attach before submitting work: the processor looks up its
    completion callback when an item *starts*, so items already in
    service when the recorder attaches complete unobserved.
    """

    def __init__(self, node: Node):
        self.node = node
        self.trace = ExecutionTrace(node=node.name)
        for processor in node.processors.everything:
            self._instrument(processor)

    def _instrument(self, processor: Processor) -> None:
        original_complete = processor._complete
        trace = self.trace
        sim = self.node.sim

        def observed_complete(item: WorkItem,
                              _orig=original_complete,
                              _name=processor.name):
            duration, _action, label, urgent, _enqueued_at = item
            trace.events.append(TraceEvent(
                processor=_name, label=label or "(unlabelled)",
                started_at=sim.now - duration,
                completed_at=sim.now, urgent=urgent))
            _orig(item)

        processor._complete = observed_complete

    @property
    def events(self) -> list[TraceEvent]:
        return self.trace.events


def record_node(node: Node) -> ExecutionTrace:
    """Attach a recorder to *node* and return its (live) trace."""
    if not node.processors.everything:
        raise KernelError(f"node {node.name} has no processors")
    return TraceRecorder(node).trace
