"""Functional tests of the IPC kernel semantics (chapter 4)."""

import pytest

from repro.errors import KernelError
from repro.kernel import (AccessRight, DistributedSystem, MemoryReference,
                          TaskState)
from repro.models.params import Architecture, Mode


def make_local_system(architecture=Architecture.II):
    system = DistributedSystem(architecture)
    node = system.add_node("n0")
    return system, node


def make_two_node_system(architecture=Architecture.II):
    system = DistributedSystem(architecture)
    a = system.add_node("a", default_mode=Mode.NONLOCAL)
    b = system.add_node("b", default_mode=Mode.NONLOCAL)
    return system, a, b


class TestServices:
    def test_create_and_lookup(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "files")
        found_node, service = system.lookup_service("files")
        assert found_node is node
        assert service.creator == "owner"

    def test_duplicate_service_rejected(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "files")
        with pytest.raises(KernelError):
            node.kernel.create_service(owner, "files")

    def test_receive_requires_offer(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "files")
        server = node.create_task("server")
        with pytest.raises(KernelError):
            node.kernel.receive(server, "files", lambda m: None)

    def test_destroyed_service_unreachable(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        service = node.kernel.create_service(owner, "files")
        service.destroy()
        with pytest.raises(KernelError):
            system.lookup_service("files")

    def test_inquire_polls_for_messages(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "files")
        server = node.create_task("server")
        node.kernel.offer(server, "files")
        assert not node.kernel.inquire(server, "files")
        client = node.create_task("client")
        node.kernel.send(client, "files", expects_reply=False)
        system.sim.run()
        assert node.kernel.inquire(server, "files")


class TestLocalRendezvous:
    def _rendezvous(self, architecture):
        system, node = make_local_system(architecture)
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "svc")
        server = node.create_task("server")
        client = node.create_task("client")
        node.kernel.offer(server, "svc")
        log = []

        def on_message(message):
            log.append(("served", message.payload, system.now))
            node.kernel.reply(server, message, payload="pong")

        node.kernel.receive(server, "svc", on_message)
        node.kernel.send(client, "svc", payload="ping",
                         on_reply=lambda p: log.append(
                             ("replied", p, system.now)))
        system.sim.run()
        return system, node, log

    def test_round_trip_completes(self):
        _system, _node, log = self._rendezvous(Architecture.II)
        assert log[0][:2] == ("served", "ping")
        assert log[1][:2] == ("replied", "pong")

    def test_round_trip_time_matches_cost_model_arch1(self):
        # architecture I local with both steps serialized on one host:
        # the client sees send + receive + match + reply + restarts
        system, _node, log = self._rendezvous(Architecture.I)
        reply_time = log[1][2]
        assert reply_time == pytest.approx(4970.0, rel=1e-6)

    def test_tasks_return_to_computing(self):
        _system, node, _log = self._rendezvous(Architecture.II)
        assert node.tasks["client"].state is TaskState.COMPUTING
        assert node.tasks["server"].state is TaskState.COMPUTING

    def test_fifo_delivery_across_clients(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "svc")
        server = node.create_task("server")
        node.kernel.offer(server, "svc")
        order = []

        def serve(message):
            order.append(message.payload)
            node.kernel.reply(server, message,
                              on_done=lambda: node.kernel.receive(
                                  server, "svc", serve))

        node.kernel.receive(server, "svc", serve)
        for i in range(3):
            client = node.create_task(f"c{i}")
            node.kernel.send(client, "svc", payload=i)
        system.sim.run()
        assert order == [0, 1, 2]

    def test_stats_counted(self):
        _system, node, _log = self._rendezvous(Architecture.II)
        assert node.kernel.stats.sends == 1
        assert node.kernel.stats.receives == 1
        assert node.kernel.stats.replies == 1
        assert node.kernel.stats.local_rendezvous == 1


class TestNonLocalRendezvous:
    def _run(self, architecture=Architecture.II):
        system, a, b = make_two_node_system(architecture)
        owner = b.create_task("owner")
        b.kernel.create_service(owner, "svc")
        server = b.create_task("server")
        b.kernel.offer(server, "svc")
        client = a.create_task("client")
        log = []
        b.kernel.receive(
            server, "svc",
            lambda m: b.kernel.reply(server, m, payload="pong"))
        a.kernel.send(client, "svc", payload="ping",
                      on_reply=lambda p: log.append((p, system.now)))
        system.sim.run()
        return system, a, b, log

    def test_remote_round_trip_completes(self):
        _system, _a, _b, log = self._run()
        assert log and log[0][0] == "pong"

    def test_exactly_two_packets_per_round_trip(self):
        """Section 4.6: one packet for send, one for reply."""
        system, _a, _b, _log = self._run()
        assert system.wire.packet_count == 2
        kinds = [p.kind for p in system.wire.packets]
        assert kinds == ["send", "reply"]

    def test_client_node_never_runs_server_work(self):
        _system, a, _b, _log = self._run()
        assert a.kernel.stats.receives == 0
        assert a.kernel.stats.remote_requests_in == 0

    def test_round_trip_nonzero_on_wire_latency(self):
        system = DistributedSystem(Architecture.I, wire_latency_us=500.0)
        a = system.add_node("a", default_mode=Mode.NONLOCAL)
        b = system.add_node("b", default_mode=Mode.NONLOCAL)
        owner = b.create_task("owner")
        b.kernel.create_service(owner, "svc")
        server = b.create_task("server")
        b.kernel.offer(server, "svc")
        b.kernel.receive(server, "svc",
                         lambda m: b.kernel.reply(server, m))
        client = a.create_task("client")
        done = []
        a.kernel.send(client, "svc",
                      on_reply=lambda p: done.append(system.now))
        system.sim.run()
        # two wire crossings add 1000 us over the zero-latency time
        assert done[0] > 1000.0


class TestMemoryReferences:
    @pytest.mark.parametrize("write,remote,packets", [
        (False, False, 0),
        (True, False, 0),
        (True, True, 2),     # the send and the reply; the move is no packet
    ], ids=["local-read", "local-write", "remote-write"])
    def test_memory_move_with_rights(self, write, remote, packets):
        """The server moves a page through the client's reference, on
        the client's node or across the wire, with the right the
        reference grants."""
        if remote:
            system, client_node, node = make_two_node_system()
        else:
            system, node = make_local_system()
            client_node = node
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "svc")
        server = node.create_task("server")
        client = client_node.create_task("client")
        node.kernel.offer(server, "svc")
        ref = MemoryReference(
            owner="client", address=0x1000, size=4096,
            rights=AccessRight.WRITE if write else AccessRight.READ)
        moved = []

        def on_message(message):
            node.kernel.memory_move(
                server, message.memory_ref, 4096, write=write,
                on_done=lambda: (moved.append(system.now),
                                 node.kernel.reply(server, message)))

        node.kernel.receive(server, "svc", on_message)
        client_node.kernel.send(client, "svc", memory_ref=ref)
        system.sim.run()
        assert moved
        assert node.kernel.stats.bytes_moved == 4096
        assert node.kernel.stats.memory_moves == 1
        assert system.wire.packet_count == packets
        assert ref.revoked

    def test_write_without_right_rejected(self):
        ref = MemoryReference(owner="t", address=0, size=100,
                              rights=AccessRight.READ)
        with pytest.raises(KernelError):
            ref.check(AccessRight.WRITE, 10)

    def test_oversized_move_rejected(self):
        ref = MemoryReference(owner="t", address=0, size=100,
                              rights=AccessRight.READ)
        with pytest.raises(KernelError):
            ref.check(AccessRight.READ, 200)

    def test_rights_revoked_after_reply(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "svc")
        server = node.create_task("server")
        client = node.create_task("client")
        node.kernel.offer(server, "svc")
        ref = MemoryReference(owner="client", address=0, size=100,
                              rights=AccessRight.READ)
        node.kernel.receive(server, "svc",
                            lambda m: node.kernel.reply(server, m))
        node.kernel.send(client, "svc", memory_ref=ref)
        system.sim.run()
        assert ref.revoked
        with pytest.raises(KernelError):
            ref.check(AccessRight.READ, 10)


class TestGuards:
    def test_task_bound_to_node(self):
        system, a, b = make_two_node_system()
        stranger = a.create_task("stranger")
        with pytest.raises(KernelError):
            b.kernel.compute(stranger, 10.0, lambda: None)

    def test_duplicate_task_names_rejected_system_wide(self):
        system, a, b = make_two_node_system()
        a.create_task("t")
        with pytest.raises(KernelError):
            b.create_task("t")

    def test_reply_to_no_wait_send_rejected(self):
        system, node = make_local_system()
        owner = node.create_task("owner")
        node.kernel.create_service(owner, "svc")
        server = node.create_task("server")
        client = node.create_task("client")
        node.kernel.offer(server, "svc")
        captured = []
        node.kernel.receive(server, "svc", captured.append)
        node.kernel.send(client, "svc", expects_reply=False)
        system.sim.run()
        assert captured
        with pytest.raises(KernelError):
            node.kernel.reply(server, captured[0])

    def test_send_to_unknown_service_rejected(self):
        system, node = make_local_system()
        client = node.create_task("client")
        with pytest.raises(KernelError):
            node.kernel.send(client, "ghost")
