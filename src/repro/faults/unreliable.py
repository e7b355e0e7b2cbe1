"""An unreliable network layered over the reliable token ring.

:class:`UnreliableNetwork` exposes the same ``transmit`` interface as
:class:`repro.kernel.network.Wire` and applies a
:class:`~repro.faults.schedule.FaultSchedule` to every packet: drops,
duplicates, reordering delays, jitter, and crash-window losses.  A
schedule that cannot fault short-circuits to the wrapped wire, so the
reliable ring is the exact zero-fault special case — same events,
same order, same packet log.

All packets (including dropped and duplicate ones) are recorded
through the underlying wire's ``record`` with a ``status``
annotation, so loss accounting is inspectable through the usual
``system.wire.packets`` (a bounded recent window) and the exact
``packet_count`` / ``counts_by_*`` interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.faults.schedule import FaultSchedule
from repro.kernel.network import PacketRecord, Wire


@dataclass
class FaultStats:
    """What the unreliable network did to the offered packets."""

    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    outage_drops: int = 0
    duplicates: int = 0
    reordered: int = 0

    @property
    def lost(self) -> int:
        return self.dropped + self.outage_drops


class UnreliableNetwork:
    """Wire wrapper that subjects every packet to a fault schedule."""

    def __init__(self, wire: Wire, schedule: FaultSchedule):
        self.wire = wire
        self.schedule = schedule
        self.stats = FaultStats()

    # -- wire interface -------------------------------------------------
    @property
    def sim(self):
        return self.wire.sim

    @property
    def latency_us(self) -> float:
        return self.wire.latency_us

    @property
    def packets(self) -> list[PacketRecord]:
        return self.wire.packets

    @property
    def packet_count(self) -> int:
        return self.wire.packet_count

    def counts_by_destination(self) -> dict[str, int]:
        return self.wire.counts_by_destination()

    def counts_by_kind(self) -> dict[str, int]:
        return self.wire.counts_by_kind()

    def counts_by_status(self) -> dict[str, int]:
        return self.wire.counts_by_status()

    # -- transmission ---------------------------------------------------
    def transmit(self, source: str, destination: str, kind: str,
                 deliver: Callable[[], None]) -> None:
        """Carry a packet subject to the fault schedule."""
        self.stats.offered += 1
        if not self.schedule.can_fault:
            # the reliable ring, bit-identically
            self.wire.transmit(source, destination, kind, deliver)
            self.stats.delivered += 1
            return

        sim = self.wire.sim
        now = sim.now
        fate = self.schedule.draw(source, destination, kind)
        delay = self.wire.latency_us + fate.extra_delay_us

        def record(status: str) -> None:
            self.wire.record(source, destination, kind, status)

        if self.schedule.is_down(source, now) or \
                self.schedule.is_down(destination, now + delay):
            self.stats.outage_drops += 1
            record("outage")
            return
        if fate.dropped:
            self.stats.dropped += 1
            record("dropped")
            return

        record("delivered")
        sim.after(delay, deliver)
        self.stats.delivered += 1
        if fate.reordered:
            self.stats.reordered += 1
        if fate.duplicated:
            dup_delay = delay + fate.duplicate_delay_us
            if not self.schedule.is_down(destination,
                                         now + dup_delay):
                record("duplicate")
                sim.after(dup_delay, deliver)
                self.stats.duplicates += 1
