"""Smart-bus transactions and their edge-accurate timing (section 5.3).

Every transaction involves exactly two units with the shared memory as
one of them.  This module defines the operation requests that units
place on the bus and computes their cost in IS/IK edges; the fabric in
`bus.py` schedules them and converts edges to time.

Edge budget (timing diagrams, Figures 5.3-5.16):

==========================  =========================================
transaction                 edges
==========================  =========================================
block transfer (request)    4
block read/write data       2 per word, granted 2 words at a time
enqueue / dequeue           4
first control block         8
simple read                 8
simple write                4
==========================  =========================================

Section 6.4 equates the four-edge handshake with one Versabus memory
cycle (1 microsecond), hence the default edge time of 0.25 us.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.bus.commands import (STREAM_EDGES_PER_WORD, WORDS_PER_GRANT,
                                BusCommand)
from repro.errors import BusError

#: One four-edge handshake per Versabus memory cycle (section 6.4).
DEFAULT_EDGE_TIME_US = 0.25


class OpKind(enum.Enum):
    """High-level operations a unit can request of the fabric."""

    ENQUEUE = "enqueue"
    DEQUEUE = "dequeue"
    FIRST = "first"
    READ = "read"
    WRITE = "write"
    BLOCK_READ = "block_read"
    BLOCK_WRITE = "block_write"


#: Operations that complete in a single indivisible bus tenure.
_SIMPLE_EDGES: dict[OpKind, int] = {
    OpKind.ENQUEUE: 4,
    OpKind.DEQUEUE: 4,
    OpKind.FIRST: 8,
    OpKind.READ: 8,
    OpKind.WRITE: 4,
}

#: OpKind -> command placed on the CM lines for the request phase.
OP_COMMANDS: dict[OpKind, BusCommand] = {
    OpKind.ENQUEUE: BusCommand.ENQUEUE_CONTROL_BLOCK,
    OpKind.DEQUEUE: BusCommand.DEQUEUE_CONTROL_BLOCK,
    OpKind.FIRST: BusCommand.FIRST_CONTROL_BLOCK,
    OpKind.READ: BusCommand.SIMPLE_READ,
    OpKind.WRITE: BusCommand.WRITE_TWO_BYTES,
    OpKind.BLOCK_READ: BusCommand.BLOCK_TRANSFER,
    OpKind.BLOCK_WRITE: BusCommand.BLOCK_TRANSFER,
}


@dataclass
class BusOperation:
    """One unit-issued operation scheduled on the fabric.

    ``issue_time`` is when the unit raises its bus request (us).  The
    argument fields depend on the kind: queue operations use
    ``list_addr``/``element``, read/write use ``address``/``value``,
    block operations use ``address``/``count`` (+ ``data`` for
    writes).
    """

    unit: str
    kind: OpKind
    issue_time: float = 0.0
    list_addr: int | None = None
    element: int | None = None
    address: int | None = None
    value: int | None = None
    count: int | None = None
    data: list[int] | None = None

    # filled in by the fabric:
    start_time: float | None = None
    complete_time: float | None = None
    result: object = None
    preemptions: int = 0

    @property
    def latency(self) -> float:
        if self.complete_time is None:
            raise BusError(f"operation {self} has not completed")
        return self.complete_time - self.issue_time

    def validate(self) -> None:
        if self.kind in (OpKind.ENQUEUE, OpKind.DEQUEUE):
            if self.list_addr is None or self.element is None:
                raise BusError(f"{self.kind.value} needs list_addr+element")
        elif self.kind is OpKind.FIRST:
            if self.list_addr is None:
                raise BusError("first needs list_addr")
        elif self.kind is OpKind.READ:
            if self.address is None:
                raise BusError("read needs address")
        elif self.kind is OpKind.WRITE:
            if self.address is None or self.value is None:
                raise BusError("write needs address+value")
        elif self.kind is OpKind.BLOCK_READ:
            if self.address is None or self.count is None:
                raise BusError("block_read needs address+count")
        elif self.kind is OpKind.BLOCK_WRITE:
            if self.address is None or self.data is None:
                raise BusError("block_write needs address+data")


def simple_edges(kind: OpKind) -> int:
    """Edge cost of an indivisible operation."""
    try:
        return _SIMPLE_EDGES[kind]
    except KeyError:
        raise BusError(f"{kind.value} is not a simple operation") from None


def block_total_edges(words: int) -> int:
    """Total edges of a block operation: request + streamed data."""
    if words <= 0:
        raise BusError("block operations need a positive word count")
    return 4 + words * STREAM_EDGES_PER_WORD


def streaming_segments(words: int) -> list[int]:
    """Word counts of the preemptible grant segments of a stream.

    The bus grants two transfers at a time (strobe lines return to the
    released state after an even number of transfers); an odd-length
    block ends in a one-word segment from which both parties recover
    gracefully since they know the block length.
    """
    if words <= 0:
        raise BusError("streaming needs a positive word count")
    segments = [WORDS_PER_GRANT] * (words // WORDS_PER_GRANT)
    if words % WORDS_PER_GRANT:
        segments.append(words % WORDS_PER_GRANT)
    return segments


@dataclass
class TraceEvent:
    """One bus tenure recorded by the fabric for inspection."""

    time: float
    master: str
    action: str
    edges: int
    detail: dict = field(default_factory=dict)
