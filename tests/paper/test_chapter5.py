"""The smart-bus tables (5.1, 5.2) and bus primitives against the
thesis.  ``benchmarks/test_bench_ch5_bus.py`` times the two bus
scenarios built here."""

from repro.bus import BusOperation, OpKind, SmartBusFabric
from repro.experiments.registry import get_experiment
from repro.memory import SmartMemoryController, build_layout


def test_table_5_1_signals():
    table = get_experiment("table-5.1").run()
    assert sum(row[1] for row in table.rows) == 33


def test_table_5_2_commands():
    table = get_experiment("table-5.2").run()
    assert len(table.rows) == 9


def queue_op_burst():
    """16 atomic first-control-block transactions from one unit."""
    layout = build_layout(n_tcbs=16, n_buffers=16)
    controller = SmartMemoryController(layout.memory)
    fabric = SmartBusFabric(controller)
    fabric.attach("host", 2)
    fabric.attach("mp", 4)
    for i in range(16):
        fabric.schedule(BusOperation(
            unit="mp", kind=OpKind.FIRST,
            list_addr=layout.tcb_free_list))
    fabric.run()
    return fabric


def block_stream_with_preemption():
    """A 40-byte block read preempted by a network enqueue (section
    5.2's no-bus-locking scenario)."""
    layout = build_layout(n_tcbs=16, n_buffers=16)
    controller = SmartMemoryController(layout.memory)
    fabric = SmartBusFabric(controller)
    fabric.attach("host", 2)
    fabric.attach("net", 6)
    buffer = layout.buffers.address_of(0)
    layout.memory.write_block(buffer, list(range(20)))
    read = fabric.schedule(BusOperation(
        unit="host", kind=OpKind.BLOCK_READ, address=buffer, count=20))
    fabric.schedule(BusOperation(
        unit="net", kind=OpKind.ENQUEUE,
        element=layout.tcbs.address_of(0),
        list_addr=layout.communication_list, issue_time=2.0))
    fabric.run()
    return read


def test_queue_operation_burst():
    fabric = queue_op_burst()
    # eight-edge handshake each: 16 * 8 edges * 0.25 us = 32 us
    assert fabric.now == 32.0


def test_preempted_block_stream():
    read = block_stream_with_preemption()
    assert read.result == list(range(20))
    assert read.preemptions >= 1
