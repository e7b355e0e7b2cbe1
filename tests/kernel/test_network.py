"""Tests for the wire's packet accounting."""

import pytest

from repro.errors import KernelError
from repro.kernel import PacketRecord, Simulator, Wire


def loaded_wire(latency=5.0):
    sim = Simulator()
    wire = Wire(sim, latency_us=latency)
    wire.transmit("clients", "servers", "send", lambda: None)
    sim.after(10.0, lambda: wire.transmit("servers", "clients",
                                          "reply", lambda: None))
    sim.after(20.0, lambda: wire.transmit("clients", "servers",
                                          "send", lambda: None))
    sim.run()
    return wire


def test_negative_latency_rejected():
    with pytest.raises(KernelError):
        Wire(Simulator(), latency_us=-1.0)


def test_packets_logged_in_transmission_order():
    wire = loaded_wire()
    sent = [p.sent_at for p in wire.packets]
    assert sent == sorted(sent) == [0.0, 10.0, 20.0]
    assert wire.packet_count == 3


def test_packet_records_default_to_delivered():
    assert PacketRecord("a", "b", "send", 0.0).status == "delivered"
    wire = loaded_wire()
    assert all(p.status == "delivered" for p in wire.packets)


def test_counts_by_destination():
    wire = loaded_wire()
    assert wire.counts_by_destination() == {"servers": 2, "clients": 1}


def test_counts_by_kind():
    wire = loaded_wire()
    assert wire.counts_by_kind() == {"send": 2, "reply": 1}


def test_counts_by_status():
    wire = loaded_wire()
    assert wire.counts_by_status() == {"delivered": 3}


def test_delivery_respects_constant_latency():
    sim = Simulator()
    wire = Wire(sim, latency_us=7.5)
    arrivals = []
    wire.transmit("a", "b", "send", lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [7.5]


def test_empty_wire_counts_are_empty():
    wire = Wire(Simulator())
    assert wire.counts_by_destination() == {}
    assert wire.counts_by_kind() == {}
    assert wire.counts_by_status() == {}
    assert wire.packet_count == 0


def test_packet_log_keeps_a_window_and_exact_counts():
    from repro.kernel.network import PACKET_LOG_WINDOW
    sim = Simulator()
    wire = Wire(sim)
    extra = 10
    for i in range(PACKET_LOG_WINDOW + extra):
        sim.after(float(i), lambda: wire.transmit("clients", "servers",
                                                  "send", lambda: None))
    sim.run()
    assert wire.packet_count == PACKET_LOG_WINDOW + extra
    assert len(wire.packets) == PACKET_LOG_WINDOW
    assert wire.packets[0].sent_at == float(extra)
    assert wire.counts_by_destination() == {"servers": wire.packet_count}
    assert wire.counts_by_kind() == {"send": wire.packet_count}
    assert wire.counts_by_status() == {"delivered": wire.packet_count}
