"""One cold pass of a benchmark workload, run in a fresh process.

``run.py`` starts this file once per pass; the pass prints one JSON
object as the last line of its standard output::

    python3 perfbench/workload.py <workload> <seed> <trace 0|1> <setup-only 0|1>

``PERFBENCH_SPAWNED`` carries ``time.monotonic()`` of the moment the
parent started the process, so set-up time counts interpreter start,
imports and (for ``open-bursty``) the capacity solve.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: The gate ``validation-baseline.json`` uses for chapter-6 values.
RTOL = 1e-6

EXACT_LOCAL = "figure-6.18"
#: Duplicates coalesce onto the first submission while it is in flight.
NONLOCAL_SUBMISSIONS = ("figure-6.19", "figure-6.21",
                        "figure-6.19", "figure-6.21")
RESULT_TIMEOUT_S = 150.0

#: open-bursty: arch II non-local under on/off bursts at 0.6 x capacity.
BURSTY_SERVERS = 4
BURSTY_LOAD = 0.6
BURSTY_ARRIVALS = dict(burst_ratio=3.5, mean_on_us=200_000.0,
                       mean_off_us=600_000.0)
BURSTY_RUN = dict(servers=BURSTY_SERVERS, pool_size=32, queue_limit=64,
                  policy="drop", warmup_us=200_000.0,
                  measure_us=200_000_000.0)


def bursty_process():
    """The MMPP process at 0.6 x the exact closed-loop capacity."""
    from repro.models.params import Architecture, Mode
    from repro.traffic.arrivals import make_process
    from repro.traffic.experiments import closed_loop_capacity
    capacity = closed_loop_capacity(Architecture.II, Mode.NONLOCAL,
                                    BURSTY_SERVERS)
    return make_process("mmpp", BURSTY_LOAD * capacity, **BURSTY_ARRIVALS)


def run_bursty(process, seed: int):
    from repro.models.params import Architecture, Mode
    from repro.traffic.engine import run_open_experiment
    return run_open_experiment(Architecture.II, Mode.NONLOCAL, process,
                               seed=seed, **BURSTY_RUN)


def bursty_totals(result) -> dict:
    """Counts over warmup and measurement together (complete after the
    drain; one window alone splits arrivals from their completions)."""
    meter = result.meter
    return {name: getattr(meter.warmup, name) + getattr(meter.measured, name)
            for name in ("offered", "completed", "dropped", "rejected",
                         "failed")} | {
        "admitted": meter.warmup.admitted + meter.measured.admitted}


def jsonable(value):
    """Tuples to lists, so a signature compares equal after a JSON trip."""
    return json.loads(json.dumps(value))


# ----------------------------------------------------------------------
# exact workloads: each returns [(experiment id, values or the error)]
# ----------------------------------------------------------------------

def _exact_local(api):
    try:
        values = api.run_experiment(EXACT_LOCAL, jobs=2).values
    except Exception as error:                  # counted as failed points
        values = error
    return [(EXACT_LOCAL, values)]


def _exact_nonlocal(api):
    handles = []
    for experiment_id in NONLOCAL_SUBMISSIONS:
        try:
            handles.append(api.submit_experiment(experiment_id, jobs=1))
        except Exception as error:
            handles.append(error)
    delivered = []
    for experiment_id, handle in zip(NONLOCAL_SUBMISSIONS, handles):
        try:
            if isinstance(handle, Exception):
                raise handle
            values = handle.result(timeout=RESULT_TIMEOUT_S).values
        except Exception as error:
            values = error
        delivered.append((experiment_id, values))
    return delivered


def _check_figures(delivered, reference) -> tuple[int, int, int, list]:
    """``(points delivered, attempted, failed, messages)``: every
    reference point must come back within ``RTOL``."""
    points = attempted = failed = 0
    messages = []
    for experiment_id, values in delivered:
        expected = reference["figures"][experiment_id]
        size = sum(len(series) for series in expected.values())
        if isinstance(values, Exception):
            attempted += size
            failed += size
            messages.append(f"{experiment_id}: {values!r}")
            continue
        labels = set(expected) | set(values)
        for label in sorted(labels):
            want = expected.get(label, [])
            got = values.get(label, [])
            points += len(got)
            attempted += max(len(want), len(got))
            for index in range(max(len(want), len(got))):
                ok = index < len(want) and index < len(got) \
                    and got[index][0] == want[index][0] \
                    and math.isclose(got[index][1], want[index][1],
                                     rel_tol=RTOL, abs_tol=0.0)
                if not ok:
                    failed += 1
                    if len(messages) < 5:
                        messages.append(
                            f"{experiment_id} {label} #{index}: got "
                            f"{got[index] if index < len(got) else None} "
                            f"want {want[index] if index < len(want) else None}")
    return points, attempted, failed, messages


def _check_bursty(result, seed, reference) -> list[str]:
    totals = bursty_totals(result)
    messages = []
    if totals["offered"] != totals["completed"] + totals["dropped"] \
            + totals["rejected"]:
        messages.append(f"offered != completed + dropped + rejected: {totals}")
    if totals["failed"]:
        messages.append(f"{totals['failed']} conversations failed")
    recorded = reference["open_bursty"]
    if seed == recorded["seed"]:
        if result.events_processed != recorded["events_processed"]:
            messages.append(f"events_processed {result.events_processed} "
                            f"!= recorded {recorded['events_processed']}")
        if jsonable(result.meter.signature()) != recorded["signature"]:
            messages.append("TrafficMeter.signature() differs from the "
                            "recorded seed run")
    return messages


def _peak_rss_mib() -> float:
    """Peak resident memory of this process plus its pool workers."""
    def high_water(pid) -> float:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0
    return high_water("self") + sum(high_water(child.pid) for child
                                    in multiprocessing.active_children())


def _stop_workers() -> None:
    if "repro.perf.backends" in sys.modules:
        sys.modules["repro.perf.backends"].shutdown_pool()
    for child in multiprocessing.active_children():
        child.join(timeout=30.0)


def main(argv: list[str]) -> int:
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    workload, seed = argv[0], int(argv[1])
    traced, setup_only = argv[2] == "1", argv[3] == "1"

    # the modules the workload call needs are imported in set-up, so the
    # timed window holds the same work in traced and untraced passes
    if workload == "open-bursty":
        import repro.traffic.engine  # noqa: F401
        import repro.traffic.experiments  # noqa: F401
    else:
        from repro import api
        import repro.experiments.registry  # noqa: F401
    imported = time.monotonic()

    tracer = recorder = None
    if traced:
        import layers
        tracer = layers.Tracer()
        tracer.install()
        if workload != "open-bursty":
            # pool workers ship their totals through the program's
            # trace spill, which runs only while a recorder is installed
            from repro import obs
            recorder = obs.install()

    capacity_solve_s = 0.0
    process = None
    if workload == "open-bursty":
        solve_start = time.monotonic()
        process = bursty_process()
        capacity_solve_s = time.monotonic() - solve_start
    started = time.monotonic()
    out = {"setup_s": started - spawned, "import_s": imported - spawned,
           "capacity_solve_s": capacity_solve_s}
    if setup_only:
        print(json.dumps(out))
        return 0

    if workload == "open-bursty":
        try:
            result = run_bursty(process, seed)
        except Exception as error:
            result = error
    else:
        delivered = (_exact_local if workload == "exact-local"
                     else _exact_nonlocal)(api)
    ended = time.monotonic()
    summary = tracer.finish(recorder) if tracer is not None else None

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    facts: dict = {}
    if workload == "open-bursty":
        if isinstance(result, Exception):
            ops, messages = 0, [repr(result)]
        else:
            totals = bursty_totals(result)
            ops = totals["offered"]
            messages = _check_bursty(result, seed, reference)
            facts = {"engine": totals, "events": result.events_processed,
                     "utilization": result.utilization}
        attempted, failed = 1, int(bool(messages))
    else:
        ops, attempted, failed, messages = _check_figures(delivered,
                                                          reference)
        stats = sys.modules["repro.service"].default_service().stats()
        facts["service"] = {
            name: stats[name] for name in
            ("submitted", "executed", "coalesced", "store_hits")}
        facts["service"]["latency_p50_s"] = stats["latency"].get("p50_s",
                                                                 0.0)
    out.update(window_s=ended - started, ops=ops, attempted=attempted,
               failed=failed, errors=messages, rss_mib=_peak_rss_mib(),
               events=facts.get("events", 0))
    if summary is not None:
        facts.update(import_s=out["import_s"],
                     capacity_solve_s=capacity_solve_s)
        out["layers"] = layers.layer_metrics(summary, facts)
        out["reconciles"] = summary.reconciles()
    _stop_workers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
