"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the thesis and
prints it (run with ``-s`` to see the artifacts inline); timing is
recorded by pytest-benchmark.  Heavy experiments run a single round.

Benchmarks may additionally call the ``perf_record`` fixture to log a
timing record (state counts, wall times, speedups); at session end the
session's records are merged by ``bench`` name into ``BENCH_perf.json``
at the repo root, so running one bench file refreshes its own records
and keeps every other bench's.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

_PERF_RECORDS: list[dict] = []

#: Written next to the repository's other BENCH artifacts.
PERF_JSON_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_perf.json"


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark clock and
    print the resulting artifact."""

    def runner(fn, *args, **kwargs):
        artifact = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
        print()
        print(artifact.render())
        return artifact

    return runner


@pytest.fixture
def perf_record():
    """Append one record to the session's BENCH_perf.json payload.

    Every record carries the pool-execution keys (``jobs``,
    ``chunk_size``, ``pool_efficiency``), defaulting to None for
    benches that never fan out, so the JSON schema is uniform across
    records and PRs.
    """

    def recorder(**fields):
        from repro.config import resolved_config
        record = {"jobs": None, "chunk_size": None,
                  "pool_efficiency": None,
                  "config": resolved_config().as_dict()}
        record.update(fields)
        _PERF_RECORDS.append(record)

    return recorder


def _git_sha() -> str | None:
    """The checked-out commit, suffixed ``-dirty`` when the working
    tree has uncommitted changes; None outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=PERF_JSON_PATH.parent, capture_output=True, text=True,
            check=True).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        return None


def merge_bench_records(path: Path, records: list[dict]) -> dict:
    """The ``BENCH_perf.json`` payload after merging in *records*.

    A stored record whose ``bench`` name one of *records* carries is
    replaced in place, new names are appended, and every other stored
    record is kept as it was.  A missing or unreadable file starts
    fresh.  Each new record is stamped with this machine's ``nproc``
    and the ``git_sha`` of the measured tree.
    """
    try:
        stored = json.loads(path.read_text())["records"]
        if not all(isinstance(record, dict) for record in stored):
            raise TypeError("records are not a list of objects")
    except (OSError, ValueError, KeyError, TypeError):
        stored = []
    git_sha = _git_sha()
    fresh = {record["bench"]: dict(record, nproc=os.cpu_count(),
                                   git_sha=git_sha)
             for record in records}
    merged = [fresh.pop(record.get("bench"), record) for record in stored]
    merged.extend(fresh.values())
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "records": merged,
    }


def pytest_sessionfinish(session, exitstatus):
    if not _PERF_RECORDS:
        return
    payload = merge_bench_records(PERF_JSON_PATH, _PERF_RECORDS)
    PERF_JSON_PATH.write_text(json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n")
