"""Golden pin of the kernel DES: short seeded open runs, bit for bit.

Each scenario runs an open-arrival system through the calendar, the
processors, the IPC kernel and the wire, then pins what the run left
behind: the event count, the traffic meter signature, every
processor's accounting (busy time, items, urgent items, queue wait and
the per-label ledger in charge order), the wire tallies, every task's
stopped time, and — where a recorder is attached — the per-item
``TraceRecorder`` and ``sim_work`` streams.  Floats are compared by
``repr``, so a reordering that only moves the last bit fails.

A change that only makes the calendar, the processors or the IPC
path cheaper must leave the fixture unchanged.  To re-record after a
deliberate behaviour change::

    PYTHONPATH=src python tests/kernel/test_des_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro import obs
from repro.faults import FaultPlan
from repro.kernel.tracing import TraceRecorder
from repro.models.params import Architecture, Mode
from repro.obs import SIM_WORK_EVENT
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import build_open_system

FIXTURE = Path(__file__).with_name("des_golden.json")

WARMUP_US = 50_000.0
MEASURE_US = 300_000.0

#: name -> build_open_system arguments (beyond the shared ones) and
#: the recorder to attach ("trace", "obs" or None)
SCENARIOS: dict[str, dict] = {}
for _arch in Architecture:
    for _mode in Mode:
        for _policy in ("drop", "reject", "backpressure"):
            SCENARIOS[f"{_arch.name}-{_mode.name}-{_policy}"] = dict(
                architecture=_arch, mode=_mode, policy=_policy)
SCENARIOS["II-LOCAL-drop-hosts2"] = dict(
    architecture=Architecture.II, mode=Mode.LOCAL, policy="drop",
    hosts=2, mean_compute=3000.0)
SCENARIOS["II-NONLOCAL-drop-faults"] = dict(
    architecture=Architecture.II, mode=Mode.NONLOCAL, policy="drop",
    faults=FaultPlan.packet_loss(0.05, seed=11))
SCENARIOS["III-NONLOCAL-drop-trace"] = dict(
    architecture=Architecture.III, mode=Mode.NONLOCAL, policy="drop",
    recorder="trace")
SCENARIOS["II-LOCAL-reject-obs"] = dict(
    architecture=Architecture.II, mode=Mode.LOCAL, policy="reject",
    recorder="obs")


def canon(value):
    """JSON-ready form with every float as its ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    return value


def digest(stream: list) -> dict:
    """Length plus a hash of the canonical stream."""
    text = json.dumps(canon(stream), separators=(",", ":"))
    return {"count": len(stream),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_scenario(name: str) -> dict:
    spec = dict(SCENARIOS[name])
    architecture = spec.pop("architecture")
    mode = spec.pop("mode")
    recorder_kind = spec.pop("recorder", None)
    horizon = WARMUP_US + MEASURE_US
    recorder = obs.Recorder() if recorder_kind == "obs" else None
    with obs.recording(recorder) if recorder else nullcontext():
        bench = build_open_system(
            architecture, mode, PoissonArrivals(0.0004), servers=2,
            pool_size=4, queue_limit=3, seed=7, measure_from=WARMUP_US,
            horizon_us=horizon, **spec)
        system = bench.system
        traces = [TraceRecorder(node) for node in system.nodes.values()] \
            if recorder_kind == "trace" else []
        system.run_for(horizon)
        system.sim.run()
    snapshot = {
        "events_processed": system.sim.events_processed,
        "now": system.now,
        "signature": bench.meter.signature(),
        "processors": {
            proc.name: {
                "busy_time": proc.stats.busy_time,
                "items_completed": proc.stats.items_completed,
                "urgent_items": proc.stats.urgent_items,
                "queue_wait_time": proc.stats.queue_wait_time,
                "busy_by_label": list(proc.stats.busy_by_label.items()),
            }
            for node in system.nodes.values()
            for proc in node.processors.everything},
        "wire": {"destination": system.wire.counts_by_destination(),
                 "kind": system.wire.counts_by_kind(),
                 "status": system.wire.counts_by_status()},
        "stopped_time": {task.name: task.stats.stopped_time
                         for node in system.nodes.values()
                         for task in node.tasks.values()},
    }
    if traces:
        snapshot["trace"] = digest([
            (e.processor, e.label, e.started_at, e.completed_at, e.urgent)
            for trace in traces for e in trace.events])
    if recorder_kind == "obs":
        snapshot["sim_work"] = digest([
            (a["processor"], a["label"], a["start_us"], a["duration_us"],
             a["urgent"])
            for a in (e.attrs for e in recorder.events
                      if e.name == SIM_WORK_EVENT)])
    return canon(snapshot)


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_scenario():
    assert sorted(_fixture()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_des_run_matches_golden(name):
    assert run_scenario(name) == _fixture()[name]


def test_scenarios_exercise_the_contended_paths():
    """The pin is only as strong as what it drives: both lanes must
    queue somewhere, and the multi-host node must overlap items."""
    fixture = _fixture()
    waited_urgent = any(
        proc["urgent_items"] and proc["queue_wait_time"] != "0.0"
        for snap in fixture.values() for proc in snap["processors"].values())
    assert waited_urgent
    hosts2 = fixture["II-LOCAL-drop-hosts2"]["processors"]
    assert hosts2["node0.host"]["queue_wait_time"] != "0.0"
    faults = fixture["II-NONLOCAL-drop-faults"]["wire"]["status"]
    assert set(faults) - {"delivered"}, faults


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    # one scenario per line keeps the fixture small and its diffs local
    lines = [f"{json.dumps(name)}: "
             f"{json.dumps(run_scenario(name), sort_keys=True)}"
             for name in sorted(SCENARIOS)]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n",
                       encoding="utf-8")
