"""Bus trace aggregation and statistics.

Busy-time accounting runs through the shared
:class:`~repro.obs.metrics.BusyLedger` — the same type the kernel's
processors charge — so a bus unit's busy fraction and a processor's
``busy_by_label`` come from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.bus import SmartBusFabric
from repro.bus.transactions import TraceEvent
from repro.obs.metrics import BusyLedger


@dataclass
class UnitStats:
    """Per-unit tenure statistics derived from a fabric trace."""

    unit: str
    tenures: int
    edges: int
    busy_time_us: float


class BusMonitor:
    """Summarizes a completed :class:`SmartBusFabric` run."""

    def __init__(self, fabric: SmartBusFabric):
        self.fabric = fabric

    @property
    def trace(self) -> list[TraceEvent]:
        return self.fabric.trace

    def busy_ledger(self) -> BusyLedger:
        """Per-unit busy time on the shared accounting ledger."""
        ledger = BusyLedger()
        for event in self.trace:
            ledger.charge(event.master,
                          event.edges * self.fabric.edge_time_us)
        return ledger

    def unit_stats(self) -> dict[str, UnitStats]:
        ledger = self.busy_ledger()
        stats: dict[str, UnitStats] = {}
        for event in self.trace:
            entry = stats.get(event.master)
            if entry is None:
                entry = UnitStats(unit=event.master, tenures=0, edges=0,
                                  busy_time_us=0.0)
                stats[event.master] = entry
            entry.tenures += 1
            entry.edges += event.edges
        for name, entry in stats.items():
            entry.busy_time_us = ledger.by_label[name]
        return stats

    def action_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.trace:
            counts[event.action] = counts.get(event.action, 0) + 1
        return counts

    def total_edges(self) -> int:
        return sum(event.edges for event in self.trace)

    def mean_latency_us(self) -> float:
        ops = self.fabric.completed
        if not ops:
            return 0.0
        return sum(op.latency for op in ops) / len(ops)

    def report(self) -> str:
        """Human-readable summary of the run."""
        lines = [f"smart bus: {len(self.fabric.completed)} operations, "
                 f"{self.total_edges()} edges, "
                 f"utilization {self.fabric.utilization():.2f}"]
        for name, stats in sorted(self.unit_stats().items()):
            lines.append(
                f"  {name:>10}: {stats.tenures} tenures, "
                f"{stats.edges} edges, {stats.busy_time_us:.2f} us")
        return "\n".join(lines)
