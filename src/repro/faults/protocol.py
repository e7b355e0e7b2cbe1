"""The MP acknowledgement/retransmission protocol.

Related work puts reliability into the network interface itself (NIC-
level collective retransmission, distributed network processors that
own flow control); the thesis's message coprocessor sits in exactly
that position, so this protocol runs as extra MP work: sequence
numbers per destination, a positive ack per data packet, a
per-packet timeout with exponential backoff, a bounded retry budget,
and receiver-side duplicate suppression.

Every protocol action consumes *modelled* processor cycles, costed
with the same chapter 6 activity-time machinery as the kernel
proper — retransmissions are not free time:

========================  ===========================================
protocol action           charged as (Table 6.x activity)
========================  ===========================================
retransmit a request      ``process_send`` on the IPC processor,
                          then ``dma_out_request`` on the out-DMA
retransmit a reply        ``process_reply`` + ``dma_out_reply``
generate / re-send an ack ``cleanup_client`` on the IPC processor,
                          then ``dma_out_reply`` (an ack is a small
                          reply-direction control packet)
receive an ack            ``dma_in_reply`` on the in-DMA, then
                          ``cleanup_client`` on the IPC processor
discard a duplicate       ``cleanup_client`` on the IPC processor
========================  ===========================================

On architecture I the "IPC processor" is the host, so protocol work
steals host cycles there — consistent with the thesis's argument for
off-loading IPC onto the MP.

A client-side conversation deadline backs the per-packet retry
budget: when either trips, the kernel completes the conversation
with a :class:`~repro.kernel.transport.DeliveryFailure` instead of a
reply, so sustained 100% loss degrades into clean per-conversation
failures rather than hung tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.errors import KernelError
from repro.kernel.sim import EventHandle
from repro.kernel.transport import Transport

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.kernel.messages import Message
    from repro.kernel.node import Node


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout, backoff, and budget of the retransmission protocol.

    ``conversation_timeout_us`` is the end-to-end client deadline; it
    covers loss patterns the sender-side budget cannot see (e.g. a
    reply retried forever on the far node).  Set it to 0 to disable.
    """

    initial_timeout_us: float = 20_000.0
    backoff: float = 2.0
    max_retries: int = 6
    conversation_timeout_us: float = 1_000_000.0

    def __post_init__(self):
        if self.initial_timeout_us <= 0:
            raise KernelError("initial_timeout_us must be positive")
        if self.backoff < 1.0:
            raise KernelError("backoff must be >= 1")
        if self.max_retries < 0:
            raise KernelError("max_retries must be >= 0")
        if self.conversation_timeout_us < 0:
            raise KernelError("negative conversation_timeout_us")

    def timeout_for(self, attempt: int) -> float:
        """Retransmission timeout after *attempt* transmissions."""
        return self.initial_timeout_us * self.backoff ** attempt


@dataclass
class ProtocolStats:
    """Per-node protocol counters."""

    data_packets: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    duplicates_suppressed: int = 0
    giveups: int = 0


@dataclass
class _Outstanding:
    """One unacknowledged data packet awaiting (re)transmission."""

    destination: str
    seq: int
    kind: str                            # "send" | "reply"
    deliver: Callable[[], None]
    on_giveup: Callable[[str], None] | None
    msg_id: int
    attempt: int = 0
    #: the armed retransmission timeout, cancelled once it is moot
    timer: EventHandle | None = None


class ReliableTransport(Transport):
    """Sequence numbers + acks + bounded retransmission on the MP."""

    reliable = True

    def __init__(self, node: "Node", policy: RetryPolicy | None = None):
        super().__init__(node)
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = ProtocolStats()
        self._next_seq: dict[str, int] = {}
        self._outstanding: dict[tuple[str, int], _Outstanding] = {}
        #: per-source set of sequence numbers already passed up
        self._delivered_seqs: dict[str, set[int]] = {}
        #: per watched conversation (by msg_id), its armed deadline
        self._deadlines: dict[int, EventHandle] = {}

    # ------------------------------------------------------------------
    # kernel-facing interface
    # ------------------------------------------------------------------
    def send_request(self, message: "Message",
                     target_node: "Node") -> None:
        self._send_data(
            kind="send", destination=target_node.name,
            deliver=lambda: target_node.kernel._arrive_request(message),
            msg_id=message.msg_id,
            on_giveup=lambda reason: self.node.kernel
            .fail_conversation(message, reason))

    def send_reply(self, message: "Message", payload: object,
                   origin: "Node") -> None:
        # no giveup callback: if the reply can never cross the wire,
        # the client's conversation deadline fails the conversation
        self._send_data(
            kind="reply", destination=origin.name,
            deliver=lambda: origin.kernel._arrive_reply(message,
                                                        payload),
            msg_id=message.msg_id, on_giveup=None)

    def watch_conversation(self, message: "Message") -> None:
        deadline = self.policy.conversation_timeout_us
        if deadline <= 0:
            return
        sim = self.node.sim
        self._deadlines[message.msg_id] = sim.at_cancellable(
            sim.now + deadline,
            lambda: self.node.kernel.fail_conversation(
                message,
                f"conversation deadline ({deadline:g} us) passed"))

    def _disarm_deadline(self, message: "Message") -> None:
        handle = self._deadlines.pop(message.msg_id, None)
        if handle is not None:
            self.node.sim.cancel(handle)

    def on_conversation_completed(self, message: "Message") -> None:
        self._disarm_deadline(message)

    def on_conversation_failed(self, message: "Message") -> None:
        self._disarm_deadline(message)
        stale = [key for key, out in self._outstanding.items()
                 if out.msg_id == message.msg_id]
        for key in stale:
            self._cancel_timer(self._outstanding.pop(key))

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def _send_data(self, kind: str, destination: str,
                   deliver: Callable[[], None], msg_id: int,
                   on_giveup: Callable[[str], None] | None) -> None:
        seq = self._next_seq.get(destination, 0)
        self._next_seq[destination] = seq + 1
        out = _Outstanding(destination=destination, seq=seq, kind=kind,
                           deliver=deliver, on_giveup=on_giveup,
                           msg_id=msg_id)
        self._outstanding[(destination, seq)] = out
        self.stats.data_packets += 1
        obs.add("transport.data_packet")
        self._transmit(out)

    def _transmit(self, out: _Outstanding) -> None:
        attempt = out.attempt
        sim = self.node.sim
        wire = self.node.system.wire
        peer = self.node.system.node(out.destination).transport
        costs = self.node.costs(local=False)
        if out.kind == "send":
            dma_cost, dma_label = costs.dma_out_request, \
                "DMA out (request)"
        else:
            dma_cost, dma_label = costs.dma_out_reply, \
                "DMA out (reply)"
        if attempt > 0:
            dma_label = "DMA out (retransmit)"

        def put_on_wire():
            wire.transmit(
                self.node.name, out.destination, out.kind,
                lambda: peer.receive_data(self.node.name, out.seq,
                                          out.kind, out.deliver))
            if self._outstanding.get((out.destination, out.seq)) is out:
                # not acked or abandoned while this copy was queued
                out.timer = sim.at_cancellable(
                    sim.now + self.policy.timeout_for(attempt),
                    lambda: self._timeout(out))

        self.node.processors.net_out.submit(dma_cost, put_on_wire,
                                            label=dma_label)

    def _cancel_timer(self, out: _Outstanding) -> None:
        """Disarm *out*'s timeout: it was acked or abandoned."""
        if out.timer is not None:
            self.node.sim.cancel(out.timer)
            out.timer = None

    def _timeout(self, out: _Outstanding) -> None:
        # acks and abandons cancel the timer, no timer is armed for a
        # packet no longer outstanding, and the next one is armed only
        # after this one fired: *out* is live and this is its attempt
        out.timer = None
        if out.attempt >= self.policy.max_retries:
            del self._outstanding[(out.destination, out.seq)]
            self.stats.giveups += 1
            obs.add("transport.giveup")
            if out.on_giveup is not None:
                out.on_giveup(
                    f"retry budget exhausted: {out.attempt + 1} "
                    f"transmissions to {out.destination} unacked")
            return
        out.attempt += 1
        self.stats.retransmissions += 1
        obs.add("transport.retransmission")
        costs = self.node.costs(local=False)
        mp_cost = costs.process_send if out.kind == "send" \
            else costs.process_reply
        self.node.processors.ipc.submit(
            mp_cost, lambda: self._transmit(out),
            label="retransmit (MP)")

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def receive_data(self, source: str, seq: int, kind: str,
                     deliver: Callable[[], None]) -> None:
        """A data packet arrived on the wire for this node."""
        costs = self.node.costs(local=False)
        seen = self._delivered_seqs.setdefault(source, set())
        if seq in seen:
            # duplicate: discard, but re-ack — the first ack may have
            # been the packet that was lost
            self.stats.duplicates_suppressed += 1
            obs.add("transport.duplicate_suppressed")
            self.node.processors.ipc.submit(
                costs.cleanup_client,
                lambda: self._send_ack(source, seq),
                label="duplicate discard (MP)", urgent=True)
            return
        seen.add(seq)
        self.node.processors.ipc.submit(
            costs.cleanup_client,
            lambda: self._send_ack(source, seq),
            label="ack generation (MP)", urgent=True)
        deliver()

    def _send_ack(self, source: str, seq: int) -> None:
        wire = self.node.system.wire
        peer = self.node.system.node(source).transport
        costs = self.node.costs(local=False)
        self.stats.acks_sent += 1
        obs.add("transport.ack_sent")
        self.node.processors.net_out.submit(
            costs.dma_out_reply,
            lambda: wire.transmit(
                self.node.name, source, "ack",
                lambda: peer._ack_arrived(self.node.name, seq)),
            label="DMA out (ack)")

    # ------------------------------------------------------------------
    # ack arrival (back on the sender)
    # ------------------------------------------------------------------
    def _ack_arrived(self, from_node: str, seq: int) -> None:
        costs = self.node.costs(local=False)
        self.node.processors.net_in.submit(
            costs.dma_in_reply,
            lambda: self.node.processors.ipc.submit(
                costs.cleanup_client,
                lambda: self._acked(from_node, seq),
                label="ack cleanup (MP)", urgent=True),
            label="DMA in (ack)")

    def _acked(self, destination: str, seq: int) -> None:
        out = self._outstanding.pop((destination, seq), None)
        if out is not None:
            self._cancel_timer(out)
            self.stats.acks_received += 1
            obs.add("transport.ack_received")
