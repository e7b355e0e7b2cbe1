"""The in-flight matrix is built from exact integer sums, not BLAS.

``packed_build`` used to form the per-transition in-flight counts as a
float dense product, ``slots.astype(float) @ slot_to_t``.  That product
went to the BLAS library, whose helper threads kept spinning after the
call and stole a core from a sibling pool worker.  The build now sums
slot columns per transition in integers.  These tests pin that the
result is bitwise the old product on every chapter-6 net under every
reduction, and that a serial build plus solves stays on one CPU.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.gtpn.packed import compile_packed, packed_build
from repro.gtpn.reachability import DEFAULT_MAX_STATES
from repro.models import Architecture, build_local_net
from repro.models.nonlocal_client import build_nonlocal_client_net
from repro.models.nonlocal_server import build_nonlocal_server_net

REDUCTIONS = ("none", "lump", "elim", "lump+elim")
CONVERSATIONS = (1, 2, 3, 4)

#: CPU seconds per wall second a serial build-and-solve may burn.  A
#: single-threaded run measures 1.00; a spinning BLAS helper thread
#: measured 1.34.
MAX_CPU_PER_WALL = 1.10


def _chapter_6_nets():
    for arch in Architecture:
        for n in CONVERSATIONS:
            yield f"local {arch.name} n={n}", build_local_net(arch, n, 500.0)
            yield (f"client {arch.name} n={n}",
                   build_nonlocal_client_net(arch, n, 1000.0))
            yield (f"server {arch.name} n={n}",
                   build_nonlocal_server_net(arch, n, 1000.0, 500.0))


def _float_product(table: np.ndarray, layout) -> np.ndarray:
    """The dense product the build used to form."""
    slot_to_t = np.zeros((layout.n_slots, layout.n_transitions))
    slot_to_t[np.arange(layout.n_slots), layout.slot_t] = 1.0
    return table[:, layout.n_places:].astype(float) @ slot_to_t


@pytest.mark.parametrize("reduction", REDUCTIONS)
def test_inflight_matrix_equals_the_float_product(reduction):
    for name, net in _chapter_6_nets():
        graph, skeleton = packed_build(
            net, compile_packed(net, reduction),
            max_states=DEFAULT_MAX_STATES, reduction=reduction)
        layout = skeleton.layout
        assert np.array_equal(skeleton.inflight_matrix,
                              _float_product(skeleton.table, layout)), name
        assert np.array_equal(graph.inflight_matrix,
                              _float_product(graph.packed_table,
                                             layout)), name


#: Idle before the timing window.  numpy and scipy each start OpenBLAS
#: helper threads that busy-wait for ≈130 ms after start-up; the
#: window must not open until they are asleep, or it charges their
#: start-up spin to the build and solves.
SETTLE_S = 0.3

_BUILD_AND_SOLVE = textwrap.dedent(f"""
    import time
    from repro.models import Architecture, Mode
    from repro.models.solve import solve
    from repro.obs.clock import perf_now
    # the warm-up solve of another net loads every library the solves
    # below use; the idle lets their BLAS helper threads settle
    solve(Architecture.I, Mode.LOCAL, 1, 0.0)
    time.sleep({SETTLE_S})
    wall, cpu = perf_now(), time.process_time()
    for i in range(6):
        solve(Architecture.II, Mode.LOCAL, 4, 500.0 * i)
    print((time.process_time() - cpu) / (perf_now() - wall))
""")


@pytest.mark.skipif((os.cpu_count() or 1) == 1,
                    reason="a spinning helper thread needs a second CPU")
def test_serial_build_and_solves_stay_on_one_cpu():
    """A fresh process, after a warm-up solve of local I n=1 and an
    idle, builds local II n=4 and solves it 6 times; the build and
    solves may not burn more than 10% more CPU time than wall time."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    ratio = float(subprocess.run(
        [sys.executable, "-c", _BUILD_AND_SOLVE], env=env, check=True,
        capture_output=True, text=True, timeout=120).stdout)
    assert ratio <= MAX_CPU_PER_WALL
