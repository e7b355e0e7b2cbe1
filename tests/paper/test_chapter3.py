"""The chapter 3 profiling tables (3.1-3.7) against the thesis."""

import pytest

from repro.experiments.registry import get_experiment


@pytest.mark.parametrize("experiment_id", [
    "table-3.1", "table-3.2", "table-3.3", "table-3.4", "table-3.5",
])
def test_profiling_tables(experiment_id):
    table = get_experiment(experiment_id).run()
    # every profiling table accounts for ~100% of the round trip
    assert sum(row[2] for row in table.rows) == pytest.approx(100.0,
                                                              abs=0.2)


def test_table_3_6_unix_services():
    table = get_experiment("table-3.6").run()
    assert len(table.rows) == 6


def test_table_3_7_unix_read_write():
    table = get_experiment("table-3.7").run()
    assert [row[0] for row in table.rows] == [
        128, 256, 512, 1024, 2048, 3072, 4096]


def test_charlotte_profiler_run():
    """One instrumented null-RPC kernel run counts one copy per RPC."""
    from repro.profiling import CHARLOTTE, kernel_run

    profiler = kernel_run(CHARLOTTE, 50)
    assert profiler.statistics["Copy Time"].count == 50
