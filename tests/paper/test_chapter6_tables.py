"""The chapter 6 tables against the thesis: processing times (6.1),
contention (6.2), the round-trip action and transition tables
(6.4-6.23) and the offered loads (6.24, 6.25).

The offered-load tables solve all four architecture models at one
conversation and zero compute to obtain C, then tabulate C / (C + S);
the asserts compare against the thesis's published values.
"""

import pytest

from repro.experiments.registry import get_experiment
from repro.models import Architecture
from repro.models.params import (ARCH1_CLIENT_CONTENTION_RESULTS,
                                 PAPER_OFFERED_LOADS_LOCAL,
                                 PAPER_OFFERED_LOADS_NONLOCAL)


def test_table_6_1():
    table = get_experiment("table-6.1").run()
    by_op = {row[0]: row for row in table.rows}
    # smart bus queue ops: 9 us processing vs 60 us in software
    assert by_op["Enqueue"][3] < by_op["Enqueue"][1]
    # block ops: one four-edge + twenty two-edge = 11 memory cycles
    assert by_op["Block Read (40 Bytes)"][4] == 11


def test_table_6_2():
    table = get_experiment("table-6.2").run()
    computed = {row[1]: row[5] for row in table.rows}
    for name, expected in ARCH1_CLIENT_CONTENTION_RESULTS.items():
        assert computed[name] == pytest.approx(expected, rel=0.01), name


@pytest.mark.parametrize("experiment_id", [
    "table-6.5", "table-6.7", "table-6.8", "table-6.10",
    "table-6.12", "table-6.13", "table-6.15t", "table-6.17",
    "table-6.18", "table-6.20", "table-6.22", "table-6.23",
])
def test_transition_tables(experiment_id):
    table = get_experiment(experiment_id).run()
    assert len(table.rows) >= 5
    # exactly one throughput-bearing transition per table
    resources = [row[3] for row in table.rows if row[3]]
    assert len(resources) >= 1


@pytest.mark.parametrize("experiment_id", [
    "table-6.4", "table-6.6", "table-6.9", "table-6.11",
    "table-6.14", "table-6.16", "table-6.19", "table-6.21",
])
def test_action_tables(experiment_id):
    table = get_experiment(experiment_id).run()
    # exactly one workload-parameter (compute) row per table
    compute_rows = [row for row in table.rows
                    if row[4] == "Workload Parameter"]
    assert len(compute_rows) == 1
    # contention >= best on every timed row
    for row in table.rows:
        if row[4] == "Workload Parameter":
            continue
        assert row[7] >= row[6] - 1e-9


_ORDER = (Architecture.I, Architecture.II, Architecture.III,
          Architecture.IV)


def _check_offered_loads(table, paper):
    for i, row in enumerate(table.rows):
        for j, arch in enumerate(_ORDER):
            assert row[1 + j] == pytest.approx(
                paper[arch][i], abs=0.005), (i, arch)


def test_table_6_24_local():
    table = get_experiment("table-6.24").run()
    _check_offered_loads(table, PAPER_OFFERED_LOADS_LOCAL)


def test_table_6_25_nonlocal():
    table = get_experiment("table-6.25").run()
    _check_offered_loads(table, PAPER_OFFERED_LOADS_NONLOCAL)
