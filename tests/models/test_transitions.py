"""Tests for the transition-table views of the nets."""

import pytest

from repro.errors import ModelError
from repro.models import Architecture, Mode
from repro.models.transitions import (TRANSITION_TABLE_IDS,
                                      build_model_net,
                                      model_transition_rows,
                                      transition_rows)


def test_all_twelve_tables_mapped():
    assert len(TRANSITION_TABLE_IDS) == 12
    architectures = {entry[0] for entry in TRANSITION_TABLE_IDS.values()}
    assert architectures == set(Architecture)


def test_unknown_table_rejected():
    with pytest.raises(ModelError):
        model_transition_rows("table-9.99")


def test_local_table_frequencies_match_thesis():
    """Table 6.10 (arch II local): 1/519.9, 1/1030.2, 1/603,
    1/1264.4, 1/1289.8."""
    rows = {r.name: r for r in model_transition_rows("table-6.10")}
    assert rows["send"].frequency == "1/519.9"
    assert rows["process_send"].frequency == "1/1030.2"
    assert rows["process_receive"].frequency == "1/603"
    assert rows["match"].frequency == "1/1264.4"
    assert rows["process_reply"].frequency == "1/1289.8"
    assert rows["process_reply"].resource == "lambda"


def test_nonlocal_client_table_gates_marked():
    """Table 6.7 (arch I client): syscall send inhibited during
    interrupt processing."""
    rows = {r.name: r for r in model_transition_rows("table-6.7")}
    assert rows["send"].frequency == (
        "(NetIntr = 0) & (IntrSvc = 0) & !cleanup & !cleanup.loop "
        "-> 1/1314.9, 0")
    assert rows["cleanup"].frequency == "1/982"
    assert rows["dma_in"].frequency.startswith("(NetIntr = 0)")


def test_server_table_has_interrupt_dispatch():
    rows = {r.name: r for r in model_transition_rows("table-6.13")}
    assert rows["dispatch"].delay == "0"
    assert rows["match"].frequency == "1/1812.5"
    assert rows["process_reply"].frequency == \
        "(NetIntr = 0) & (IntrSvc = 0) & !match & !match.loop -> 1/1124, 0"


def test_every_table_renders_nonempty():
    for table_id in TRANSITION_TABLE_IDS:
        rows = model_transition_rows(table_id)
        assert len(rows) >= 5, table_id
        assert any(r.resource for r in rows), table_id


def test_exit_loop_frequencies_complementary():
    """Each activity pair's labels are 1/m and 1 - 1/m."""
    for table_id in ("table-6.5", "table-6.15t", "table-6.22"):
        rows = {r.name: r for r in model_transition_rows(table_id)}
        for name, row in rows.items():
            if name.endswith(".loop"):
                base = rows[name[:-5]]
                expected = base.frequency.replace("1/", "1 - 1/") \
                    if "->" not in base.frequency else \
                    base.frequency.replace("-> 1/", "-> 1 - 1/")
                assert row.frequency == expected, name


def test_build_model_net_argument_validation():
    with pytest.raises(ModelError):
        build_model_net(Architecture.I, Mode.LOCAL, "client")
    with pytest.raises(ModelError):
        build_model_net(Architecture.I, Mode.NONLOCAL, None)


def test_transition_rows_on_arbitrary_net():
    from repro.gtpn import Net
    net = Net()
    a = net.place("A", tokens=1)
    net.transition("t", delay=3, frequency=0.25, inputs=[a],
                   outputs=[a], resource="r")
    (row,) = transition_rows(net)
    assert row.delay == "3"
    assert row.frequency == "0.25"
    assert row.resource == "r"