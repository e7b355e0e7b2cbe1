"""The inter-node network (a reliable token ring, section 4.6).

Message coprocessors exchange packets that mirror the IPC calls: one
round trip is exactly two packets (send message, reply message), with
no low-level acknowledgements; the network is assumed reliable and not
a bottleneck (section 6.6.4), so the wire adds only a constant latency
— the DMA engines at each end are where queueing happens and they are
modelled as processors in :mod:`repro.kernel.processors`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import KernelError
from repro.kernel.sim import Simulator

#: Most recent packets kept in :attr:`Wire.packets` (the oldest drops
#: out when it is full); the packet counters cover every packet.  An
#: open run offers packets without bound, so the log must not grow
#: with it.
PACKET_LOG_WINDOW = 4096


@dataclass(slots=True)
class PacketRecord:
    """One packet offered to the wire (for tests/inspection).

    ``status`` is ``"delivered"`` on the reliable wire; the
    :class:`repro.faults.unreliable.UnreliableNetwork` wrapper also
    records ``"dropped"``, ``"outage"``, and ``"duplicate"`` packets
    so loss accounting is inspectable after a run.
    """

    source: str
    destination: str
    kind: str
    sent_at: float
    status: str = "delivered"


@dataclass
class Wire:
    """Constant-latency reliable interconnect.

    ``packets`` lists the last :data:`PACKET_LOG_WINDOW` packets
    offered, oldest first; ``packet_count`` and the ``counts_by_*``
    tallies are exact over every packet.  The log keeps plain tuples
    and builds the :class:`PacketRecord` objects only when read, so a
    long run pays for the window it keeps, not for every packet.
    """

    sim: Simulator
    latency_us: float = 0.0
    #: (source, destination, kind, sent_at, status) per logged packet
    _log: deque[tuple[str, str, str, float, str]] = field(
        default_factory=lambda: deque(maxlen=PACKET_LOG_WINDOW),
        init=False, repr=False)
    #: (destination, kind, status) -> packets, in first-seen order
    _tally: defaultdict[tuple[str, str, str], int] = field(
        default_factory=lambda: defaultdict(int), init=False, repr=False)

    def __post_init__(self):
        if self.latency_us < 0:
            raise KernelError("negative wire latency")

    def transmit(self, source: str, destination: str, kind: str,
                 deliver: Callable[[], None]) -> None:
        """Carry a packet; invoke *deliver* at the destination."""
        self.record(source, destination, kind)
        self.sim.after(self.latency_us, deliver)

    def record(self, source: str, destination: str, kind: str,
               status: str = "delivered") -> None:
        """Log one packet offered now and count it."""
        self._log.append((source, destination, kind, self.sim.now, status))
        self._tally[destination, kind, status] += 1

    @property
    def packets(self) -> list[PacketRecord]:
        """The logged packets, oldest first (a snapshot)."""
        return [PacketRecord(*packet) for packet in self._log]

    @property
    def packet_count(self) -> int:
        return sum(self._tally.values())

    # ------------------------------------------------------------------
    # packet accounting
    # ------------------------------------------------------------------
    def _counts(self, field_index: int) -> dict[str, int]:
        counts: dict[str, int] = {}
        for key, count in self._tally.items():
            name = key[field_index]
            counts[name] = counts.get(name, 0) + count
        return counts

    def counts_by_destination(self) -> dict[str, int]:
        """Packets recorded per destination node."""
        return self._counts(0)

    def counts_by_kind(self) -> dict[str, int]:
        """Packets recorded per kind (``send``/``reply``/``ack``...)."""
        return self._counts(1)

    def counts_by_status(self) -> dict[str, int]:
        """Packets recorded per delivery status."""
        return self._counts(2)
