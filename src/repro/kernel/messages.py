"""Messages and memory references (section 4.2.1).

Messages in the 925 system are fixed at 40 bytes; larger transfers
enclose a *memory reference* — a pointer into the sender's address
space with explicit access rights — that the receiver uses with
``memory_move``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import KernelError

#: Fixed 925 message size (bytes).
MESSAGE_BYTES = 40

_ids = itertools.count(1)


class AccessRight(enum.Flag):
    """Rights grantable through a memory reference."""

    READ = enum.auto()
    WRITE = enum.auto()
    COPY = enum.auto()


@dataclass(slots=True)
class MemoryReference:
    """A pointer into the granting task's address space.

    The kernel checks rights on every ``memory_move``; replying to the
    enclosing message revokes them (section 4.2.1: "The server loses
    all access rights to any enclosed memory reference after replying
    to the message").
    """

    owner: str            # task name
    address: int
    size: int
    rights: AccessRight
    revoked: bool = False

    def check(self, right: AccessRight, size: int) -> None:
        if self.revoked:
            raise KernelError(
                f"memory reference of {self.owner} was revoked by reply")
        if right not in self.rights:
            raise KernelError(
                f"access {right} not granted on {self.owner}'s segment")
        if size > self.size:
            raise KernelError(
                f"move of {size} bytes exceeds granted segment "
                f"({self.size} bytes)")


class MessageKind(enum.Enum):
    REQUEST = "request"
    REPLY = "reply"


@dataclass(slots=True)
class Message:
    """A fixed-size 925 message addressed to a service."""

    sender: str
    service: str
    kind: MessageKind = MessageKind.REQUEST
    payload: object = None
    memory_ref: MemoryReference | None = None
    msg_id: int = field(default_factory=lambda: next(_ids))
    sent_at: float = 0.0
    #: set by the kernel so reply() can route back
    reply_service: str | None = None
    expects_reply: bool = True
    #: kernel routing/accounting fields
    origin_node: str = ""
    match_paid: bool = False
    #: message-path time stamps (section 3.3 technique 3): the kernel
    #: appends (stage, time) pairs at interesting points — queueing,
    #: matching, delivery, reply — so the time a message spends on
    #: each queue can be read off afterwards.
    stamps: list = field(default_factory=list)

    def stage_time(self, stage: str) -> float:
        """Time of the first stamp for *stage*."""
        for name, time in self.stamps:
            if name == stage:
                return time
        raise KernelError(
            f"message {self.msg_id}: no stamp for stage {stage!r} "
            f"(have {[name for name, _t in self.stamps]})")

    def stage_durations(self) -> dict[str, float]:
        """Elapsed time between consecutive stamps, keyed by
        "from->to"."""
        durations: dict[str, float] = {}
        for (a, t_a), (b, t_b) in zip(self.stamps, self.stamps[1:]):
            durations[f"{a}->{b}"] = t_b - t_a
        return durations

    @property
    def size_bytes(self) -> int:
        return MESSAGE_BYTES
