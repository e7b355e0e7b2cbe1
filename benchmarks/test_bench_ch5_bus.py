"""Microbenches of the smart-bus primitives (section 5.2); the
scenarios and their thesis asserts live in ``tests/paper``."""

from tests.paper.test_chapter5 import (block_stream_with_preemption,
                                       queue_op_burst)


def test_bench_queue_operation_burst(benchmark):
    """Microbench: 16 atomic first-control-block transactions."""
    benchmark(queue_op_burst)


def test_bench_preempted_block_stream(benchmark):
    """Microbench: a 40-byte block read preempted by a network
    enqueue (section 5.2's no-bus-locking scenario)."""
    benchmark(block_stream_with_preemption)
