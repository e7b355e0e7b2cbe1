"""Exporters for recorded traces: Chrome-trace JSON and versioned JSONL.

Two formats, one recorder:

* :func:`write_chrome_trace` emits the Trace Event Format that
  ``chrome://tracing`` / Perfetto load directly — wall-clock spans as
  complete ("X") events on each process's timeline, and the kernel
  simulator's sim-time work items on a synthetic "sim-time" process
  whose microseconds are *simulated* microseconds.
* :func:`write_jsonl` emits one self-describing JSON record per line
  behind a header carrying :data:`~repro.obs.recorder.SCHEMA_VERSION`
  and the resolved run configuration; :func:`validate_jsonl` checks a
  file against the schema (the CI trace job runs it on every push).

Wall timestamps are per-process relative (see
:mod:`repro.obs.clock`), so records merged from pool workers plot on
their own pid timeline rather than pretending to share a clock.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError
from repro.obs.recorder import SCHEMA_VERSION, SIM_WORK_EVENT, Recorder

#: pid under which sim-time tracks appear in the Chrome trace (real
#: pids are positive).
SIM_PID = 0

_REQUIRED_KEYS = {
    "header": ("schema",),
    "span": ("name", "start_s", "end_s", "depth", "span_id", "pid"),
    "event": ("name", "wall_s", "pid"),
    "counter": ("name", "value"),
    "gauge": ("name", "value"),
}


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def jsonl_records(recorder: Recorder, config: dict | None = None,
                  ) -> list[dict]:
    """Every record of *recorder* as JSON-ready dicts, header first."""
    records: list[dict] = [{
        "type": "header", "schema": SCHEMA_VERSION,
        "pid": recorder.pid,
        "config": dict(config) if config else {},
    }]
    records.extend(span.as_record() for span in recorder.spans)
    records.extend(event.as_record() for event in recorder.events)
    records.extend({"type": "counter", "name": name, "value": value}
                   for name, value in sorted(recorder.counters.items()))
    records.extend({"type": "gauge", "name": name, "value": value}
                   for name, value in sorted(recorder.gauges.items()))
    return records


def write_jsonl(recorder: Recorder, path: str | Path,
                config: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in jsonl_records(recorder, config):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """Load a JSONL trace: ``(header, records)`` (header excluded)."""
    records = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise ReproError(f"cannot read trace {path}: "
                         f"{error.strerror}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{line_no}: not JSON ({error})") from None
    if not records:
        raise ReproError(f"{path}: empty trace")
    header, rest = records[0], records[1:]
    if header.get("type") != "header":
        raise ReproError(f"{path}: first record must be the header, "
                         f"got {header.get('type')!r}")
    return header, rest


def validate_jsonl(path: str | Path) -> dict:
    """Check a JSONL trace against the schema; returns the header.

    Raises :class:`~repro.errors.ReproError` naming the first offending
    record on any violation: unknown record type, missing required
    field, wrong schema version, or a span whose end precedes its
    start.
    """
    header, records = read_jsonl(path)
    if header.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"{path}: schema {header.get('schema')!r}, "
            f"expected {SCHEMA_VERSION!r}")
    for index, record in enumerate(records, start=2):
        kind = record.get("type")
        required = _REQUIRED_KEYS.get(kind)
        if required is None:
            raise ReproError(
                f"{path}: line {index}: unknown record type {kind!r}")
        missing = [key for key in required if key not in record]
        if missing:
            raise ReproError(
                f"{path}: line {index}: {kind} record missing "
                f"{missing}")
        if kind == "span" and record["end_s"] < record["start_s"]:
            raise ReproError(
                f"{path}: line {index}: span {record['name']!r} "
                "ends before it starts")
    return header


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------

def chrome_trace(recorder: Recorder, config: dict | None = None) -> dict:
    """The recorder as a Chrome Trace Event Format object."""
    events: list[dict] = []
    pids_seen: set[int] = set()
    for span in recorder.spans:
        pids_seen.add(span.pid)
        events.append({
            "name": span.name, "ph": "X", "cat": "wall",
            "ts": span.start_s * 1e6,
            "dur": (span.end_s - span.start_s) * 1e6,
            "pid": span.pid, "tid": span.pid,
            "args": span.attrs,
        })
    sim_tids: dict[str, int] = {}
    for event in recorder.events:
        if event.name == SIM_WORK_EVENT:
            processor = event.attrs["processor"]
            tid = sim_tids.setdefault(processor, len(sim_tids) + 1)
            events.append({
                "name": event.attrs["label"] or "(unlabelled)",
                "ph": "X", "cat": "sim",
                "ts": event.attrs["start_us"],
                "dur": event.attrs["duration_us"],
                "pid": SIM_PID, "tid": tid,
                "args": {"urgent": event.attrs["urgent"]},
            })
        else:
            pids_seen.add(event.pid)
            events.append({
                "name": event.name, "ph": "i", "cat": "event",
                "ts": event.wall_s * 1e6, "s": "p",
                "pid": event.pid, "tid": event.pid,
                "args": event.attrs,
            })
    for processor, tid in sorted(sim_tids.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": SIM_PID,
                       "tid": tid, "args": {"name": processor}})
    if sim_tids:
        events.append({"name": "process_name", "ph": "M", "pid": SIM_PID,
                       "tid": 0, "args": {"name": "sim-time (us)"}})
    for pid in sorted(pids_seen):
        name = "main" if pid == recorder.pid else f"worker {pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": pid, "args": {"name": name}})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": SCHEMA_VERSION,
            "counters": dict(sorted(recorder.counters.items())),
            "gauges": dict(sorted(recorder.gauges.items())),
            "config": dict(config) if config else {},
        },
    }


def write_chrome_trace(recorder: Recorder, path: str | Path,
                       config: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(recorder, config)))
    return path
