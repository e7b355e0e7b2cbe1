"""Repository benchmark: three cold-start workloads, checked outputs,
end-to-end metrics, and a traced run that splits wall time by layer.

    python3 perfbench/run.py --workload exact-local --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass is a fresh process with every
``REPRO_*`` setting cleared, so caches and the result store start empty.
With ``--trace 0`` the benchmark repeats passes for ``--seconds`` and
reports the medians of the end-to-end metrics in ``BENCHMARK.json``;
with ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics.  The last line of standard output is one JSON
object.  Workloads and metrics are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "repro"
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("exact-local", "exact-nonlocal", "open-bursty")
#: Workloads whose inputs come from the seed; the exact grids have none.
SEEDED = ("open-bursty",)

#: Set-up is sampled at least this often per run (extra set-up-only
#: passes make up the count), and the median reported.
MIN_SETUPS = 5

#: Every pass must end within this many seconds of the run's start, so
#: the whole run ends inside the 180 s the benchmark contract allows.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def _kill_group(pgid: int) -> None:
    """Kill whatever is left of a pass's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_pass(workload: str, seed: int, *, trace: bool, setup_only: bool,
             env: dict, deadline: float) -> dict:
    """One pass in a fresh process; returns its JSON report."""
    command = [sys.executable, str(HERE / "workload.py"), workload,
               str(seed), str(int(trace)), str(int(setup_only))]
    env = dict(env, PERFBENCH_SPAWNED=repr(time.monotonic()))
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(process.pid)
        process.communicate()
        raise BenchError(f"{workload} pass ran past the run budget")
    finally:
        _kill_group(process.pid)
    if process.returncode != 0:
        raise BenchError(f"{workload} pass exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def header(args) -> dict:
    return {
        "benchmark": "perfbench", "workload": args.workload,
        "seed": args.seed, "seed_used": args.workload in SEEDED,
        "trace": args.trace, "seconds": args.seconds,
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
    }


def _measure(args, env, deadline) -> tuple[dict, list[dict]]:
    """End-to-end metrics: passes for ``--seconds``, medians reported."""
    passes, durations = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_pass(args.workload, args.seed, trace=False,
                               setup_only=False, env=env,
                               deadline=deadline))
        durations.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(durations) \
                > args.seconds:
            break
    setups = [report["setup_s"] for report in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_pass(args.workload, args.seed, trace=False,
                               setup_only=True, env=env,
                               deadline=deadline)["setup_s"])
    metrics = {
        "ops_per_s": statistics.median(
            report["ops"] / report["window_s"] for report in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(
            report["rss_mib"] for report in passes),
    }
    return metrics, passes


def _trace(args, env, deadline) -> tuple[dict, list[dict]]:
    """Per-layer metrics from one traced pass beside an untraced one."""
    plain = run_pass(args.workload, args.seed, trace=False,
                     setup_only=False, env=env, deadline=deadline)
    traced = run_pass(args.workload, args.seed, trace=True,
                      setup_only=False, env=env, deadline=deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_fraction"] = traced["window_s"] / plain["window_s"]
    metrics["sim.events_per_s"] = plain["events"] / plain["window_s"]
    if not traced["reconciles"]:
        traced["failed"] += 1
        traced["errors"].append("layer self times plus unattributed time "
                                "do not add up to the traced wall")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    print("# " + json.dumps(header(args), sort_keys=True), flush=True)
    scratch = SCRATCH / f"run-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")
           and name != "PYTHONDONTWRITEBYTECODE"}
    # bytecode is cached once per checkout, as an installed package's
    # would be, so every pass but the very first imports the same way
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(SCRATCH / "pycache"),
               TMPDIR=str(scratch / "tmp"))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        metrics, passes = (_trace if args.trace else _measure)(
            args, env, deadline)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    names = {entry["name"] for entry in declared}
    if set(metrics) != names:
        print(f"perfbench: metrics {sorted(set(metrics) ^ names)} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 1
    for index, report in enumerate(passes):
        print("# pass " + json.dumps(
            {"index": index, "ops": report["ops"],
             "window_s": report["window_s"], "setup_s": report["setup_s"],
             "rss_mib": report["rss_mib"], "failed": report["failed"],
             "errors": report["errors"]}))
    attempted = sum(report["attempted"] for report in passes)
    failed = sum(report["failed"] for report in passes)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
