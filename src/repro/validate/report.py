"""Assemble, persist, and validate the three-way parity report.

:func:`run_validation` is the engine behind ``repro validate`` and the
``validate-quick`` / ``validate-full`` experiments: it fans the grid
out over :func:`repro.perf.backends.map_sweep` (every point runs all three
estimators), evaluates the pairwise agreement checks and metamorphic
properties, compares the exact values against the persisted baseline,
folds the scoreboard's point claims in, and returns one
:class:`ValidationReport` — renderable as a table artifact and
serializable as the machine-readable parity report
(schema ``repro.validate/1``) CI archives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import config, obs
from repro.errors import ReproError
from repro.experiments.reporting import Table
from repro.obs.clock import perf_now
from repro.perf.backends import last_map_info, map_sweep
from repro.seeding import resolve_seed
from repro.validate import baseline as baseline_mod
from repro.validate.estimators import PointEstimates, estimate_point
from repro.validate.grid import (DEFAULT_VALIDATE_SEED, SETTINGS,
                                 ValidationConfig, grid)
from repro.validate.metamorphic import (MetamorphicResult,
                                        run_metamorphic_checks)

REPORT_SCHEMA = "repro.validate/1"


@dataclass(frozen=True)
class Check:
    """One pairwise agreement check on one configuration."""

    name: str
    ok: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "detail": self.detail}


@dataclass(frozen=True)
class PointReport:
    """Estimates plus the checks they passed (or failed)."""

    estimates: PointEstimates
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def as_dict(self) -> dict:
        cfg = self.estimates.config
        return {
            "config_id": cfg.config_id,
            "architecture": cfg.architecture.name,
            "mode": cfg.mode.value,
            "conversations": cfg.conversations,
            "compute_us": cfg.compute_us,
            "tolerances": {
                "des_throughput_rtol": cfg.des_throughput_rtol,
                "busy_atol": cfg.busy_atol,
                "ci_slack": cfg.ci_slack,
            },
            "exact": self.estimates.exact.as_dict(),
            "monte_carlo": self.estimates.monte_carlo.as_dict(),
            "kernel": self.estimates.kernel.as_dict(),
            "checks": [check.as_dict() for check in self.checks],
            "ok": self.ok,
        }


def point_checks(estimates: PointEstimates) -> list[Check]:
    """The pairwise agreement checks for one grid point."""
    cfg = estimates.config
    exact = estimates.exact
    mc = estimates.monte_carlo
    kernel = estimates.kernel
    checks: list[Check] = []

    # exact analyzer vs Monte Carlo: the exact value of the very same
    # net must fall inside the (slack-widened) 95 % CI
    deviation = abs(exact.throughput_per_ms - mc.mean_per_ms)
    band = cfg.ci_slack * mc.half_width_per_ms
    low, high = mc.interval_per_ms
    checks.append(Check(
        name="exact-in-mc-ci",
        ok=deviation <= band,
        detail=f"exact {exact.throughput_per_ms:.4f} msgs/ms vs MC "
               f"95% CI [{low:.4f}, {high:.4f}] "
               f"({mc.batches} batches x {mc.batch_ticks} ticks, "
               f"ci_slack {cfg.ci_slack:g})"))

    # exact analyzer vs kernel DES: throughput within the declared
    # per-figure band
    reference = exact.solution_throughput_per_ms
    rel = abs(kernel.throughput_per_ms - reference) / reference
    checks.append(Check(
        name="des-throughput",
        ok=rel <= cfg.des_throughput_rtol,
        detail=f"DES {kernel.throughput_per_ms:.4f} vs exact "
               f"{reference:.4f} msgs/ms: {rel:.2%} "
               f"(declared {cfg.des_throughput_rtol:.0%})"))

    # exact analyzer vs kernel DES: processor busy fractions
    for place, exact_busy in sorted(exact.busy.items()):
        kernel_busy = kernel.busy.get(place)
        if kernel_busy is None:
            checks.append(Check(
                name=f"des-busy-{place.lower()}", ok=False,
                detail=f"kernel DES reports no {place} processor"))
            continue
        delta = abs(kernel_busy - exact_busy)
        checks.append(Check(
            name=f"des-busy-{place.lower()}",
            ok=delta <= cfg.busy_atol,
            detail=f"DES {kernel_busy:.3f} vs exact "
                   f"{exact_busy:.3f}: |delta| {delta:.3f} "
                   f"(declared {cfg.busy_atol:g})"))
    return checks


@dataclass
class ValidationReport:
    """Everything one validation run established."""

    grid_name: str
    seed: int
    points: list[PointReport]
    metamorphic: list[MetamorphicResult]
    baseline: dict
    scoreboard: dict
    execution: dict
    config_snapshot: dict = field(default_factory=dict)
    #: per-primitive measured-vs-derived zero-contention parity
    #: (:func:`_sync_section`); empty means the section did not run
    sync: dict = field(default_factory=dict)

    @property
    def check_count(self) -> int:
        return (sum(len(p.checks) for p in self.points)
                + len(self.metamorphic))

    @property
    def failures(self) -> list[str]:
        failed = [f"{p.estimates.config.config_id}: {c.name}"
                  for p in self.points for c in p.checks if not c.ok]
        failed += [f"metamorphic: {m.name}"
                   for m in self.metamorphic if not m.ok]
        if not self.baseline.get("ok", True):
            failed.append("baseline-drift")
        if not self.scoreboard.get("ok", True):
            failed.append("scoreboard")
        for primitive, entry in self.sync.get("primitives",
                                              {}).items():
            failed += [f"sync-{primitive}-{row['operation']}"
                       for row in entry["operations"]
                       if not row["ok"]]
        return failed

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        failures = self.failures
        return {
            "schema": REPORT_SCHEMA,
            "grid": self.grid_name,
            "seed": self.seed,
            "config": self.config_snapshot,
            "points": [p.as_dict() for p in self.points],
            "metamorphic": [m.as_dict() for m in self.metamorphic],
            "baseline": self.baseline,
            "scoreboard": self.scoreboard,
            "sync": self.sync,
            "execution": self.execution,
            "summary": {
                "points": len(self.points),
                "checks": self.check_count,
                "failures": failures,
                "ok": not failures,
            },
        }

    def table(self, experiment_id: str) -> Table:
        """The renderable artifact for the registry/CLI."""
        rows = []
        for point in self.points:
            estimates = point.estimates
            mc = estimates.monte_carlo
            low, high = mc.interval_per_ms
            reference = estimates.exact.solution_throughput_per_ms
            rel = (estimates.kernel.throughput_per_ms - reference) \
                / reference
            busy_delta = max(
                (abs(estimates.kernel.busy.get(place, float("nan"))
                     - value)
                 for place, value in estimates.exact.busy.items()),
                default=0.0)
            rows.append([
                estimates.config.config_id,
                round(estimates.exact.throughput_per_ms, 4),
                f"[{low:.4f}, {high:.4f}]",
                round(estimates.kernel.throughput_per_ms, 4),
                f"{rel:+.1%}",
                round(busy_delta, 3),
                f"{sum(c.ok for c in point.checks)}"
                f"/{len(point.checks)}",
                "PASS" if point.ok else "FAIL",
            ])
        meta_ok = sum(m.ok for m in self.metamorphic)
        score = self.scoreboard
        notes = [
            f"seed {self.seed}; exact vs Monte Carlo 95% CI vs "
            "kernel DES, per-config declared tolerances",
            f"metamorphic properties: {meta_ok}"
            f"/{len(self.metamorphic)} hold ("
            + ", ".join(m.name for m in self.metamorphic) + ")",
            _baseline_note(self.baseline),
            f"scoreboard: {score.get('passed')}/{score.get('total')} "
            "paper claims pass",
            _sync_note(self.sync),
            self.execution.get("pool_note", ""),
        ]
        return Table(
            experiment_id=experiment_id,
            title=f"Three-way cross-validation "
                  f"({self.grid_name} grid): "
                  f"{len(self.points) - sum(not p.ok for p in self.points)}"
                  f"/{len(self.points)} configurations agree",
            headers=["config", "exact (msgs/ms)", "MC 95% CI",
                     "DES (msgs/ms)", "DES delta", "busy |delta| max",
                     "checks", "status"],
            rows=rows,
            notes=[note for note in notes if note])


def _baseline_note(section: dict) -> str:
    if section.get("skipped"):
        return f"baseline: skipped ({section.get('reason', '')})"
    state = "OK" if section.get("ok") else "DRIFT DETECTED"
    extras = []
    if section.get("drifted"):
        extras.append(f"{len(section['drifted'])} drifted")
    if section.get("missing"):
        extras.append(f"{len(section['missing'])} unpinned")
    suffix = f" ({', '.join(extras)})" if extras else ""
    return (f"baseline: {state}{suffix} — {section.get('checked', 0)} "
            f"configs vs {section.get('path')}")


def _sync_note(section: dict) -> str:
    if not section:
        return ""
    state = "OK" if section.get("ok") else "MISMATCH"
    checked = sum(len(entry["operations"])
                  for entry in section.get("primitives", {}).values())
    return (f"sync primitives: {state} — {checked} zero-contention "
            f"cost rows vs microcoded edge counts (tolerance "
            f"{section.get('tolerance_edges')} edges)")


def _sync_section() -> dict:
    """Measured-vs-derived parity of every registered primitive.

    For each primitive the zero-contention cost row measured from the
    Python implementation must reproduce the bus-edge count derived by
    micro-executing the same operation plus its synchronization
    envelope (:mod:`repro.bus.syncedges`), within the declared
    tolerance.
    """
    from repro.bus.syncedges import (ZERO_CONTENTION_EDGE_TOLERANCE,
                                     zero_contention_parity)
    from repro.memory.primitives import PRIMITIVE_NAMES
    primitives = {}
    for name in PRIMITIVE_NAMES:
        rows = zero_contention_parity(name)
        primitives[name] = {
            "operations": rows,
            "ok": all(row["ok"] for row in rows),
        }
    return {
        "ok": all(entry["ok"] for entry in primitives.values()),
        "tolerance_edges": ZERO_CONTENTION_EDGE_TOLERANCE,
        "primitives": primitives,
    }


def _scoreboard_section() -> dict:
    from repro.experiments.scoreboard import scoreboard_results
    rows = scoreboard_results()
    failing = [row.name for row in rows if not row.ok]
    return {
        "total": len(rows),
        "passed": sum(row.ok for row in rows),
        "failing": failing,
        "ok": not failing,
        "claims": [{"name": row.name, "paper": row.paper,
                    "measured": row.measured, "ok": row.ok,
                    "source": row.source} for row in rows],
    }


def _baseline_section(path: str | None,
                      points: list[PointReport]) -> dict:
    if path is None:
        return {"skipped": True, "ok": True,
                "reason": "baseline check disabled"}
    if not Path(path).exists():
        return {"skipped": True, "ok": True, "path": str(path),
                "reason": f"no baseline file at {path}; run "
                          "`repro validate --rebaseline` to create "
                          "one"}
    payload = baseline_mod.load_baseline(path)
    exact_by_config = {
        p.estimates.config.config_id:
            baseline_mod.entry_for(p.estimates.exact)
        for p in points}
    section = baseline_mod.check_drift(payload, exact_by_config)
    section["path"] = str(path)
    return section


def _pool_note() -> str:
    info = last_map_info()
    if info is None:
        return "sweep ran serially (no sweep ran)"
    return info.describe()


def run_validation(grid_name: str = "full", *,
                   seed: int | None = None,
                   jobs: int | None = None,
                   baseline_path: str | None = None,
                   check_baseline: bool = True) -> ValidationReport:
    """Run the three-way cross-validation over the named grid.

    ``seed`` defaults to the global ``--seed`` / ``REPRO_SEED``
    configuration and finally to the fixed
    :data:`~repro.validate.grid.DEFAULT_VALIDATE_SEED`, so the gate is
    deterministic out of the box.  ``baseline_path`` defaults to the
    repository's committed ``validation-baseline.json``;
    ``check_baseline=False`` skips drift detection entirely.
    """
    configs = grid(grid_name)
    mc_settings, des_settings = SETTINGS[grid_name]
    base_seed = resolve_seed(seed, fallback=DEFAULT_VALIDATE_SEED)
    started = perf_now()
    with obs.span("validate.run", grid=grid_name, seed=base_seed):
        estimates = map_sweep(
            estimate_point,
            [(cfg, mc_settings, des_settings, base_seed)
             for cfg in configs],
            jobs=jobs, star=True)
        pool_note = _pool_note()
        points = [PointReport(estimates=est, checks=point_checks(est))
                  for est in estimates]
        with obs.span("validate.metamorphic"):
            metamorphic = run_metamorphic_checks(base_seed)
        with obs.span("validate.scoreboard"):
            scoreboard = _scoreboard_section()
        with obs.span("validate.sync"):
            sync = _sync_section()
        path = (baseline_mod.default_path()
                if baseline_path is None else baseline_path) \
            if check_baseline else None
        baseline = _baseline_section(path, points)
        for point in points:
            obs.add("validate.checks", len(point.checks))
            obs.add("validate.failures",
                    sum(not c.ok for c in point.checks))
    elapsed = perf_now() - started
    report = ValidationReport(
        grid_name=grid_name, seed=base_seed, points=points,
        metamorphic=metamorphic, baseline=baseline,
        scoreboard=scoreboard, sync=sync,
        execution={"pool_note": pool_note,
                   "elapsed_s": round(elapsed, 3)},
        config_snapshot=config.resolved_config())
    return report


def write_report(report: ValidationReport, path: str | Path) -> Path:
    """Write the machine-readable parity report."""
    target = Path(path)
    target.write_text(json.dumps(report.as_dict(), indent=2,
                                 sort_keys=True) + "\n")
    return target


_REQUIRED_TOP = ("schema", "grid", "seed", "points", "metamorphic",
                 "baseline", "scoreboard", "summary")

_REQUIRED_POINT = ("config_id", "exact", "monte_carlo", "kernel",
                   "checks", "ok")


def validate_report(path: str | Path) -> dict:
    """Structurally validate a written parity report; returns it.

    Raises :class:`ReproError` on schema violations — the CI job runs
    this over the uploaded artifact so a silently truncated or
    hand-edited report can never look like a passing gate.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as error:
        raise ReproError(f"cannot read report {path}: {error}") \
            from error
    except json.JSONDecodeError as error:
        raise ReproError(f"report {path} is not valid JSON: {error}") \
            from error
    if payload.get("schema") != REPORT_SCHEMA:
        raise ReproError(f"report {path}: schema "
                         f"{payload.get('schema')!r}, expected "
                         f"{REPORT_SCHEMA!r}")
    for key in _REQUIRED_TOP:
        if key not in payload:
            raise ReproError(f"report {path}: missing {key!r}")
    if not payload["points"]:
        raise ReproError(f"report {path}: no configurations checked")
    for point in payload["points"]:
        for key in _REQUIRED_POINT:
            if key not in point:
                raise ReproError(
                    f"report {path}: point "
                    f"{point.get('config_id', '?')!r} missing "
                    f"{key!r}")
        if not point["checks"]:
            raise ReproError(
                f"report {path}: point {point['config_id']!r} has "
                "no checks")
    summary = payload["summary"]
    recounted = [c for p in payload["points"]
                 for c in p["checks"] if not c["ok"]]
    recounted_meta = [m for m in payload["metamorphic"]
                      if not m["ok"]]
    declared_ok = summary.get("ok")
    actual_ok = (not recounted and not recounted_meta
                 and payload["baseline"].get("ok", True)
                 and payload["scoreboard"].get("ok", True)
                 and payload.get("sync", {}).get("ok", True))
    if bool(declared_ok) != actual_ok:
        raise ReproError(
            f"report {path}: summary.ok={declared_ok!r} but the "
            f"recorded checks say {actual_ok!r}")
    return payload
