"""The IPC kernel: send / receive / reply with per-architecture costs.

Implements the 925 communication paradigm of chapter 4 on top of the
node's processors:

* **blocking remote-invocation send** — the client stops until the
  server replies (Figure 4.6);
* **no-wait send** — the client continues after the kernel accepts the
  message;
* **blocking receive** on an offered service;
* **reply**, completing the rendezvous and revoking any enclosed
  memory reference;
* **memory_move** — rights-checked bulk transfer via a memory
  reference.

Every step charges the processor that performs it (host syscalls, IPC
processing on host or MP, DMA engines) with the measured times of the
chapter 6 action tables, so the simulator reproduces the performance
behaviour the thesis measured on the 925 — this is the "experimental
implementation" side of the Figure 6.15 validation.
"""

from __future__ import annotations

import sys

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.errors import KernelError
from repro.kernel.messages import (AccessRight, MemoryReference, Message,
                                   MessageKind)
from repro.kernel.services import PendingReceive, Service
from repro.kernel.tasks import Task, TaskState
from repro.kernel.transport import DeliveryFailure
from repro.models.params import COPY_40_BYTES_US

_COMPUTING = TaskState.COMPUTING
_COMMUNICATING = TaskState.COMMUNICATING
_STOPPED = TaskState.STOPPED

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.kernel.node import Node


@dataclass(slots=True)
class _PendingReply:
    """Client-side record of an outstanding remote invocation."""

    task: Task
    on_reply: Callable[[object], None] | None
    local: bool
    memory_ref: MemoryReference | None = None
    sent_at: float = 0.0


@dataclass(slots=True)
class KernelStats:
    """Node-wide IPC counters."""

    sends: int = 0
    receives: int = 0
    replies: int = 0
    local_rendezvous: int = 0
    remote_requests_in: int = 0
    memory_moves: int = 0
    bytes_moved: int = 0
    matches_paid: int = 0
    failed_round_trips: int = 0
    late_replies: int = 0


class IPCKernel:
    """The per-node message-passing kernel."""

    def __init__(self, node: "Node"):
        self.node = node
        # hoisted once: the send/receive/reply path reads these on
        # nearly every step (the node's transport is built after its
        # kernel, so it stays a node attribute)
        self._name = node.name
        self._system = node.system
        self._sim = node.sim
        self._host = node.processors.host
        self._ipc = node.processors.ipc
        self._net_in = node.processors.net_in
        #: cost tables indexed by locality: [False] non-local, [True]
        #: local
        self._costs = (node.costs(False), node.costs(True))
        self._default_costs = node.default_costs
        self.stats = KernelStats()
        self._pending_replies: dict[int, _PendingReply] = {}
        #: msg_ids failed by the transport; replies arriving for them
        #: afterwards are discarded instead of raising
        self._failed_conversations: set[int] = set()
        #: interned per-task busy-ledger labels, built once per task so
        #: compute() does not rebuild (and re-hash) an f-string per call
        self._compute_labels: dict[str, str] = {}

    # ------------------------------------------------------------------
    # service management
    # ------------------------------------------------------------------
    def create_service(self, task: Task, name: str) -> Service:
        """Create a service owned by this node (section 4.2.1)."""
        service = Service(name=name, node_name=self.node.name,
                          creator=task.name)
        self.node.system.register_service(service)
        return service

    def offer(self, task: Task, service_name: str) -> None:
        """Advertise *task*'s intent to receive on the service."""
        service = self._local_service(service_name)
        service.offer(task.name)

    def inquire(self, task: Task, service_name: str) -> bool:
        """Non-blocking poll for waiting messages (section 4.2.1)."""
        service = self._local_service(service_name)
        service.check_offer(task.name)
        return service.has_messages()

    # ------------------------------------------------------------------
    # send
    # ------------------------------------------------------------------
    def send(self, task: Task, service_name: str, *,
             payload: object = None,
             memory_ref: MemoryReference | None = None,
             on_reply: Callable[[object], None] | None = None,
             on_sent: Callable[[], None] | None = None,
             expects_reply: bool = True) -> Message:
        """Send to a service; blocking remote invocation when
        ``expects_reply`` (the default), no-wait send otherwise."""
        self._check_on_node(task)
        now = self._sim.now
        target_node, _service = self._system.lookup_service(
            service_name)
        local = target_node is self.node
        costs = self._costs[local]

        message = Message(sender=task.name, service=service_name,
                          payload=payload, memory_ref=memory_ref,
                          sent_at=now, expects_reply=expects_reply)
        message.origin_node = self._name
        self.stats.sends += 1
        task.stats.sends += 1
        obs.add("ipc.send")
        if expects_reply:
            self._pending_replies[message.msg_id] = _PendingReply(
                task=task, on_reply=on_reply, local=local,
                memory_ref=memory_ref, sent_at=now)

        task.transition(_COMMUNICATING, now)
        message.stamps.append(("posted", now))
        if not local and expects_reply:
            self.node.transport.watch_conversation(message)
        self._host.submit(
            costs.syscall_send,
            lambda: self._process_send(task, message, local),
            label="syscall send")
        return message

    def _process_send(self, task: Task, message: Message,
                      local: bool) -> None:
        costs = self._costs[local]
        self._ipc.submit(
            costs.process_send,
            lambda: self._send_processed(task, message, local),
            label="process send")

    def _send_processed(self, task: Task, message: Message,
                        local: bool) -> None:
        now = self._sim.now
        if message.expects_reply:
            task.transition(_STOPPED, now)
        else:
            # no-wait send: the client is restarted right away
            costs = self._costs[local]
            self._host.submit(
                costs.restart_client,
                lambda: self._restart(task),
                label="restart client (no-wait)")
        if local:
            service = self._local_service(message.service)
            message.match_paid = False
            message.stamps.append(("queued", now))
            service.push_message(message)
            self._try_match(service)
        else:
            target_node, _service = self._system.lookup_service(
                message.service)
            self.node.transport.send_request(message, target_node)

    def activate(self, service_name: str, *,
                 sender: str = "interrupt-handler",
                 payload: object = None) -> Message:
        """Deliver a message from interrupt context (section 4.2.2).

        ``activate`` is the one system call allowed inside a device
        handler; it runs in the interrupted task's context, so unlike
        :meth:`send` it must not touch any task's scheduling state —
        the driver task may itself be stopped in a receive on the
        interrupt service.  The kernel-processing cost is charged at
        interrupt priority.
        """
        service = self._local_service(service_name)
        message = Message(sender=sender, service=service_name,
                          payload=payload, sent_at=self._sim.now,
                          expects_reply=False)
        message.origin_node = self._name
        message.match_paid = True     # no separate match processing
        self.stats.sends += 1
        obs.add("ipc.activate")
        self._ipc.submit(
            self._default_costs.process_send,
            lambda: (service.push_message(message),
                     self._deliver_if_ready(service)),
            label="process activate", urgent=True)
        return message

    # ------------------------------------------------------------------
    # remote request arrival (network interrupt path)
    # ------------------------------------------------------------------
    def _arrive_request(self, message: Message) -> None:
        self.stats.remote_requests_in += 1
        self._net_in.submit(
            self._costs[False].dma_in_request,
            lambda: self._request_interrupt(message),
            label="DMA in (request)")

    def _request_interrupt(self, message: Message) -> None:
        # match processing runs at interrupt priority on the IPC
        # processor (host for architecture I, MP otherwise)
        self._ipc.submit(
            self._costs[False].match,
            lambda: self._queue_matched_message(message),
            label="match (interrupt)", urgent=True)
        self.stats.matches_paid += 1

    def _queue_matched_message(self, message: Message) -> None:
        service = self._local_service(message.service)
        message.match_paid = True
        message.stamps.append(("queued", self._sim.now))
        service.push_message(message)
        self._deliver_if_ready(service)

    # ------------------------------------------------------------------
    # receive
    # ------------------------------------------------------------------
    def receive(self, task: Task, service_name: str,
                on_message: Callable[[Message], None]) -> None:
        """Blocking receive on an offered service."""
        self._check_on_node(task)
        service = self._local_service(service_name)
        service.check_offer(task.name)
        self.stats.receives += 1
        task.stats.receives += 1
        obs.add("ipc.receive")
        task.transition(_COMMUNICATING, self._sim.now)
        self._host.submit(
            self._default_costs.syscall_receive,
            lambda: self._process_receive(task, service, on_message),
            label="syscall receive")

    def _process_receive(self, task: Task, service: Service,
                         on_message: Callable[[Message], None]) -> None:
        self._ipc.submit(
            self._default_costs.process_receive,
            lambda: self._receive_processed(task, service, on_message),
            label="process receive")

    def _receive_processed(self, task: Task, service: Service,
                           on_message) -> None:
        now = self._sim.now
        task.transition(_STOPPED, now)
        service.push_receive(PendingReceive(
            task_name=task.name, deliver=on_message, posted_at=now))
        self._try_match(service)

    # ------------------------------------------------------------------
    # rendezvous
    # ------------------------------------------------------------------
    def _try_match(self, service: Service) -> None:
        """Charge match processing when a message meets a receiver."""
        if not (service.messages and service.waiting):
            return
        message = service.messages[0]
        if message.match_paid:
            self._deliver_if_ready(service)
            return
        costs = self._costs[message.origin_node == self._name]
        message.match_paid = True
        self.stats.matches_paid += 1
        self._ipc.submit(
            costs.match,
            lambda: self._deliver_if_ready(service),
            label="match")

    def _deliver_if_ready(self, service: Service) -> None:
        pair = service.match()
        if pair is None:
            return
        message, pending = pair
        if not message.match_paid:
            # receiver present but match processing not yet charged
            service.messages.appendleft(message)
            service.waiting.appendleft(pending)
            self._try_match(service)
            return
        task = self.node.tasks[pending.task_name]
        local = message.origin_node == self._name
        costs = self._costs[local]
        if local:
            self.stats.local_rendezvous += 1
        message.reply_service = service.name
        message.stamps.append(("matched", self._sim.now))
        self._host.submit(
            costs.restart_server_pre,
            lambda: self._start_service_routine(task, pending, message),
            label="restart server")

    def _start_service_routine(self, task: Task, pending: PendingReceive,
                               message: Message) -> None:
        message.stamps.append(("delivered", self._sim.now))
        self._restart(task)
        pending.deliver(message)

    # ------------------------------------------------------------------
    # reply
    # ------------------------------------------------------------------
    def reply(self, task: Task, message: Message, *,
              payload: object = None,
              on_done: Callable[[], None] | None = None) -> None:
        """Complete the rendezvous for *message* (section 4.5)."""
        self._check_on_node(task)
        if not message.expects_reply:
            raise KernelError(
                f"message {message.msg_id} does not expect a reply")
        if message.kind is not MessageKind.REQUEST:
            raise KernelError("can only reply to request messages")
        now = self._sim.now
        local = message.origin_node == self._name
        costs = self._costs[local]
        self.stats.replies += 1
        task.stats.replies += 1
        obs.add("ipc.reply")
        message.stamps.append(("reply posted", now))
        task.transition(_COMMUNICATING, now)
        self._host.submit(
            costs.syscall_reply,
            lambda: self._process_reply(task, message, payload, on_done,
                                        local),
            label="syscall reply")

    def _process_reply(self, task: Task, message: Message, payload,
                       on_done, local: bool) -> None:
        costs = self._costs[local]
        self._ipc.submit(
            costs.process_reply,
            lambda: self._reply_processed(task, message, payload, on_done,
                                          local),
            label="process reply")

    def _reply_processed(self, task: Task, message: Message, payload,
                         on_done, local: bool) -> None:
        costs = self._costs[local]
        # the server is restarted on its host
        self._host.submit(
            costs.restart_server_post,
            lambda: self._finish_server_reply(task, on_done),
            label="restart server (post reply)")
        if local:
            self._complete_rendezvous(message, payload)
        else:
            origin = self._system.node(message.origin_node)
            self.node.transport.send_reply(message, payload, origin)

    def _finish_server_reply(self, task: Task, on_done) -> None:
        self._restart(task)
        if on_done is not None:
            on_done()

    def _arrive_reply(self, message: Message, payload) -> None:
        costs = self._costs[False]
        self._net_in.submit(
            costs.dma_in_reply,
            lambda: self._ipc.submit(
                costs.cleanup_client,
                lambda: self._complete_rendezvous(message, payload),
                label="cleanup client", urgent=True),
            label="DMA in (reply)")

    def _complete_rendezvous(self, message: Message, payload) -> None:
        pending = self._pending_replies.pop(message.msg_id, None)
        if pending is None:
            if message.msg_id in self._failed_conversations:
                # the transport already failed this conversation; a
                # straggler reply finally made it through — drop it
                self.stats.late_replies += 1
                obs.add("ipc.late_reply")
                return
            raise KernelError(
                f"no pending reply for message {message.msg_id}")
        if not pending.local:
            self.node.transport.on_conversation_completed(message)
        if pending.memory_ref is not None:
            # rights are revoked once the rendezvous completes
            pending.memory_ref.revoked = True
        costs = self._costs[pending.local]
        client = pending.task
        client.stats.round_trips += 1

        def deliver():
            message.stamps.append(("rendezvous complete", self._sim.now))
            self._restart(client)
            if pending.on_reply is not None:
                pending.on_reply(payload)

        self._host.submit(
            costs.restart_client, deliver, label="restart client")

    def fail_conversation(self, message: Message, reason: str) -> bool:
        """Complete a remote invocation with a clean failure.

        Called by a reliable transport when its retry budget is
        exhausted or the conversation deadline passes: the client is
        restarted with a :class:`DeliveryFailure` payload instead of
        a reply, so sustained packet loss never hangs a task.
        Returns False if the conversation already completed.
        """
        pending = self._pending_replies.pop(message.msg_id, None)
        if pending is None:
            return False
        self._failed_conversations.add(message.msg_id)
        self.stats.failed_round_trips += 1
        self.node.transport.on_conversation_failed(message)
        if pending.memory_ref is not None:
            pending.memory_ref.revoked = True
        client = pending.task
        client.stats.failed_round_trips += 1
        costs = self._costs[pending.local]
        failure = DeliveryFailure(msg_id=message.msg_id, reason=reason,
                                  failed_at=self._sim.now)

        def deliver():
            message.stamps.append(("failed", self._sim.now))
            self._restart(client)
            if pending.on_reply is not None:
                pending.on_reply(failure)

        self._host.submit(
            costs.restart_client, deliver,
            label="restart client (failure)")
        return True

    # ------------------------------------------------------------------
    # compute + memory move
    # ------------------------------------------------------------------
    def compute(self, task: Task, duration: float,
                on_done: Callable[[], None]) -> None:
        """Run *duration* microseconds of application work on the host."""
        self._check_on_node(task)
        if not duration >= 0.0:     # also refuses NaN
            raise KernelError(
                f"compute time {duration} is negative or not a number")
        task.stats.compute_time += duration
        label = self._compute_labels.get(task.name)
        if label is None:
            label = sys.intern(f"compute {task.name}")
            self._compute_labels[task.name] = label
        self._host.submit(duration, on_done, label=label)

    def memory_move(self, task: Task, memory_ref: MemoryReference,
                    size: int, write: bool,
                    on_done: Callable[[], None] | None = None) -> None:
        """Rights-checked bulk data movement (section 4.2.1).

        Charges copy time proportional to the measured 220 us per 40
        bytes of the Motorola 68000 implementation (section 4.9).
        """
        self._check_on_node(task)
        memory_ref.check(
            AccessRight.WRITE if write else AccessRight.READ, size)
        self.stats.memory_moves += 1
        self.stats.bytes_moved += size
        copy_time = COPY_40_BYTES_US * size / 40.0
        self._ipc.submit(copy_time, on_done, label="memory move")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _restart(self, task: Task) -> None:
        if task.state is not _COMPUTING:
            task.transition(_COMPUTING, self._sim.now)

    def _local_service(self, name: str) -> Service:
        node, service = self._system.lookup_service(name)
        if node is not self.node:
            raise KernelError(
                f"service {name} lives on {node.name}, not "
                f"{self.node.name}")
        return service

    def _check_on_node(self, task: Task) -> None:
        if task.node_name != self._name:
            raise KernelError(
                f"task {task.name} is bound to {task.node_name}, not "
                f"{self.node.name} (static assignment, section 4.2.3)")
