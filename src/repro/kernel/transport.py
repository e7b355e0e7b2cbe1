"""Node-level packet transports: how kernels hand packets to the wire.

The thesis assumes the inter-node network is reliable and not a
bottleneck (section 6.6.4), so the default :class:`DirectTransport`
is exactly the seed behaviour: one DMA operation and one wire packet
per kernel-level packet, no acknowledgements.  The transport seam
exists so :mod:`repro.faults` can substitute an MP-level
acknowledgement/retransmission protocol
(:class:`repro.faults.protocol.ReliableTransport`) without the IPC
kernel knowing which wire it is running over — with the invariant
that the direct transport reproduces the seed event sequence
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.kernel.messages import Message
    from repro.kernel.node import Node


@dataclass(frozen=True)
class DeliveryFailure:
    """Delivered to a client whose remote invocation could not complete.

    Handed to the ``on_reply`` callback in place of a reply payload
    when the transport exhausts its retry budget or the conversation
    deadline passes; a reliable transport turns sustained packet loss
    into this clean per-conversation failure instead of a hang.
    """

    msg_id: int
    reason: str
    failed_at: float


class Transport:
    """Interface between the IPC kernel and the inter-node network."""

    #: whether this transport runs an acknowledgement protocol
    reliable = False

    def __init__(self, node: "Node"):
        self.node = node

    def send_request(self, message: "Message",
                     target_node: "Node") -> None:
        """Carry a request packet to *target_node*'s kernel."""
        raise NotImplementedError

    def send_reply(self, message: "Message", payload: object,
                   origin: "Node") -> None:
        """Carry a reply packet back to the *origin* node's kernel."""
        raise NotImplementedError

    def watch_conversation(self, message: "Message") -> None:
        """Arm an end-to-end deadline for a remote invocation
        (no-op for a reliable wire)."""

    def on_conversation_failed(self, message: "Message") -> None:
        """The kernel failed the conversation; stop any retransmission
        still outstanding for it (no-op for a reliable wire)."""


class DirectTransport(Transport):
    """Seed behaviour: the wire is reliable, packets go out once.

    The submit/transmit sequence below is byte-for-byte the seed
    kernel's remote path (same costs, labels, and event order), so a
    system without a fault plan is unchanged.
    """

    def __init__(self, node: "Node"):
        super().__init__(node)
        # hoisted once: every remote packet reads them
        self._name = node.name
        self._net_out = node.processors.net_out
        self._wire = node.system.wire
        self._costs = node.costs(local=False)

    def send_request(self, message: "Message",
                     target_node: "Node") -> None:
        self._net_out.submit(
            self._costs.dma_out_request,
            lambda: self._wire.transmit(
                self._name, target_node.name, "send",
                lambda: target_node.kernel._arrive_request(message)),
            label="DMA out (request)")

    def send_reply(self, message: "Message", payload: object,
                   origin: "Node") -> None:
        self._net_out.submit(
            self._costs.dma_out_reply,
            lambda: self._wire.transmit(
                self._name, origin.name, "reply",
                lambda: origin.kernel._arrive_reply(message, payload)),
            label="DMA out (reply)")
