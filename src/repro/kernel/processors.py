"""Processor models: non-preemptive FCFS servers with interrupt priority.

Each node contains a *host* executing tasks (and, in architecture I,
the whole IPC kernel), optionally a *message coprocessor* executing the
IPC kernel, and DMA engines moving packets (Figures 4.3-4.5).

Work items queue FCFS; items marked *urgent* (network-interrupt
processing) enter a higher-priority queue that drains first, matching
the thesis's "network interrupts are serviced ... on a priority basis".
Service is non-preemptive: an in-progress item always completes, which
is also how the GTPN models treat interrupt inhibition (new activities
cannot start while interrupt processing is pending).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro import obs as _obs
from repro.errors import KernelError
from repro.kernel.sim import Simulator
from repro.obs.metrics import BusyLedger, busy_fraction


#: One unit of processor work, a plain tuple so the hot path builds it
#: in one step and unpacks it once:
#: ``(duration, action, label, urgent, enqueued_at)``.
WorkItem = tuple[float, Callable[[], None] | None, str, bool, float]


@dataclass
class ProcessorStats:
    """Utilization accounting.

    ``busy_by_label`` splits busy time by work-item label, so a run
    can report how many modelled cycles went to, e.g., protocol
    retransmissions versus first-time send processing.  The split is
    kept on the shared :class:`~repro.obs.metrics.BusyLedger`, the
    same accounting type the bus monitor uses.
    """

    busy_time: float = 0.0
    items_completed: int = 0
    urgent_items: int = 0
    queue_wait_time: float = 0.0
    ledger: BusyLedger = field(default_factory=BusyLedger)

    @property
    def busy_by_label(self) -> dict[str, float]:
        return self.ledger.by_label

    def utilization(self, elapsed: float) -> float:
        return busy_fraction(self.busy_time, elapsed)

    def labeled_time(self, prefix: str) -> float:
        """Total busy time of items whose label starts with *prefix*."""
        return self.ledger.labeled_time(prefix)


class Processor:
    """An FCFS work queue with a priority lane for interrupts.

    ``servers`` > 1 models a pool of identical processors fed from one
    queue — the multiple hosts of a shared-memory multiprocessor node
    (chapter 7, Figure 7.1; the 925 implementation itself had two
    hosts per node).
    """

    def __init__(self, sim: Simulator, name: str, servers: int = 1):
        if servers < 1:
            raise KernelError(f"{name}: need at least one server")
        self.sim = sim
        self.name = name
        self.servers = servers
        self._normal: deque[WorkItem] = deque()
        self._urgent: deque[WorkItem] = deque()
        self._active = 0
        self.stats = ProcessorStats()

    @property
    def busy(self) -> bool:
        return self._active > 0

    @property
    def queue_length(self) -> int:
        return len(self._normal) + len(self._urgent)

    def submit(self, duration: float,
               action: Callable[[], None] | None = None,
               label: str = "", urgent: bool = False) -> None:
        """Queue *duration* microseconds of work; run *action* after.

        Zero-duration work is an item like any other: it takes a server
        and completes on the calendar's now lane, so its action runs in
        submission order with every other item's.

        A submit that finds a free server and both lanes empty starts
        at once (its queue wait is exactly 0.0); otherwise the item
        waits in its lane.
        """
        if not duration >= 0.0:     # also refuses NaN
            raise KernelError(
                f"{self.name}: work {duration} is negative or not a number")
        sim = self.sim
        if self._active < self.servers and not (self._urgent
                                                or self._normal):
            self._active += 1
            sim.after(duration, self._complete,
                      (duration, action, label, urgent, sim.now))
            return
        (self._urgent if urgent else self._normal).append(
            (duration, action, label, urgent, sim.now))
        if self._active < self.servers:
            # submitted from a completing item's action, before its
            # processor refilled: the queued head still starts first
            self._start_next()

    def _start_next(self) -> None:
        sim = self.sim
        stats = self.stats
        while self._active < self.servers:
            queue = self._urgent or self._normal
            if not queue:
                return
            item = queue.popleft()
            self._active += 1
            stats.queue_wait_time += sim.now - item[4]
            # arg-passing schedule: no per-item closure on the hot path
            sim.after(item[0], self._complete, item)

    def _complete(self, item: WorkItem) -> None:
        duration, action, label, urgent, _enqueued_at = item
        self._active -= 1
        stats = self.stats
        stats.busy_time += duration
        stats.items_completed += 1
        if label:
            # BusyLedger.charge, inlined
            by_label = stats.ledger.by_label
            try:
                by_label[label] += duration
            except KeyError:
                by_label[label] = 0.0 + duration
        if urgent:
            stats.urgent_items += 1
        recorder = _obs._current
        if recorder is not None:
            # the same completion feeds both accountings, so summing
            # trace durations per (processor, label) reconciles with
            # busy_by_label exactly
            recorder.sim_work(self.name, label or "(unlabeled)",
                              self.sim.now - duration, duration, urgent)
        if action is not None:
            action()
        if self._urgent or self._normal:
            self._start_next()

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of the server pool busy over *elapsed* us."""
        return busy_fraction(self.stats.busy_time, elapsed, self.servers)


@dataclass
class ProcessorSet:
    """The processors of one node; ``ipc`` aliases host or MP.

    ``net_out``/``net_in`` model the DMA engines of the network
    interface as single servers (one packet at a time each way).
    """

    host: Processor
    mp: Processor | None
    net_out: Processor
    net_in: Processor
    everything: list[Processor] = field(default_factory=list)

    @property
    def ipc(self) -> Processor:
        """Where IPC kernel code executes (Figure 4.3 vs Figure 6.1)."""
        return self.mp if self.mp is not None else self.host
