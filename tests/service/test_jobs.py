"""Job identity (structure × timing keys) and handle semantics."""

from __future__ import annotations

import pytest

from repro import config
from repro.errors import ConfigError, ServiceError
from repro.faults.plan import FaultPlan
from repro.service import JobStatus, build_job_key
from repro.service.jobs import JobHandle, _Execution


def test_key_equal_for_identical_submissions():
    a = build_job_key("figure-6.7", {"seed": 7})
    b = build_job_key("figure-6.7", {"seed": 7})
    assert a == b and a.digest == b.digest


def test_seed_lands_in_timing_half():
    base = build_job_key("figure-6.7", {"seed": 7})
    other = build_job_key("figure-6.7", {"seed": 8})
    assert base != other
    assert base.structure_digest == other.structure_digest
    assert base.timing_digest != other.timing_digest


def test_experiment_id_lands_in_structure_half():
    base = build_job_key("figure-6.7", {"seed": 7})
    other = build_job_key("table-5.1", {"seed": 7})
    assert base.structure_digest != other.structure_digest
    assert base.timing_digest == other.timing_digest


def test_execution_knobs_do_not_fragment_the_key():
    # jobs changes scheduling, never values (the backends
    # bit-identity contract) — every worker count shares one address
    base = build_job_key("figure-6.7", {"seed": 7})
    for extra in ({"jobs": 1}, {"jobs": 4}):
        assert build_job_key("figure-6.7",
                             {"seed": 7, **extra}) == base


def test_unset_knobs_resolve_through_config():
    # explicit seed=7 and ambient CLI seed 7 are the same run
    explicit = build_job_key("figure-6.7", {"seed": 7})
    config.set_cli("seed", 7)
    try:
        ambient = build_job_key("figure-6.7", {})
    finally:
        config.set_cli("seed", None)
    assert explicit == ambient


def test_key_resolution_ignores_running_jobs_overrides():
    # keys built while another job has config.overrides installed
    # (what a running execution does, process-globally) must resolve
    # from the ambient CLI/env state, never the running job's values —
    # otherwise a concurrent submission aliases onto the wrong address
    base = build_job_key("figure-6.7", {})
    with config.overrides(seed=99, duration=123.0, sync="htm"):
        concurrent = build_job_key("figure-6.7", {})
        explicit = build_job_key("figure-6.7", {"seed": 99})
    assert concurrent == base
    assert explicit != base
    assert explicit == build_job_key("figure-6.7", {"seed": 99})


def test_ambient_cli_state_survives_nested_overrides():
    # CLI-level state set *outside* any scoped override is ambient and
    # must keep keying submissions even while overrides are active
    config.set_cli("seed", 7)
    try:
        outside = build_job_key("figure-6.7", {})
        with config.overrides(seed=99):
            with config.overrides(duration=5.0):
                inside = build_job_key("figure-6.7", {})
    finally:
        config.set_cli("seed", None)
    assert inside == outside
    assert inside == build_job_key("figure-6.7", {"seed": 7})


def test_sync_primitive_lands_in_structure_half(monkeypatch):
    # arch II is re-costed per primitive, so a CAS run must never
    # coalesce with or store-hit a TAS result
    monkeypatch.delenv("REPRO_SYNC", raising=False)
    tas = build_job_key("figure-6.18", {"sync": "tas"})
    cas = build_job_key("figure-6.18", {"sync": "cas"})
    assert tas != cas
    assert tas.structure_digest != cas.structure_digest
    assert tas.timing_digest == cas.timing_digest
    # the ambient default primitive is TAS: same computation, same key
    assert build_job_key("figure-6.18", {}) == tas


def test_ambient_sync_keys_like_explicit_sync(monkeypatch):
    monkeypatch.setenv("REPRO_SYNC", "tas")
    config.set_cli("sync", "cas")
    try:
        ambient = build_job_key("figure-6.18", {})
    finally:
        config.set_cli("sync", None)
    assert ambient == build_job_key("figure-6.18", {"sync": "cas"})


def test_numeric_normalisation():
    assert build_job_key("t", {"duration": 500000}) == \
        build_job_key("t", {"duration": 500000.0})
    # every spelling of one value is one computation: keys are built
    # from parsed values, so these coalesce and share a store entry
    assert build_job_key("t", {"sync": "CAS"}) == \
        build_job_key("t", {"sync": "cas"})
    assert build_job_key("t", {"sync": "LL/SC"}) == \
        build_job_key("t", {"sync": "llsc"})


def test_malformed_or_unknown_knob_raises_at_key_time():
    with pytest.raises(ConfigError, match="duration"):
        build_job_key("t", {"duration": "abc"})
    with pytest.raises(ConfigError, match="bogus"):
        build_job_key("t", {"bogus": 1})


def test_canonical_digest_matches_earlier_stores(monkeypatch):
    # pins key composition: which knobs enter each half, in which
    # order and rendering; a change to them must be a deliberate one.
    # Re-pinned when the reduction knob left the structure half
    for knob in config.KNOBS:
        if knob.env is not None:
            monkeypatch.delenv(knob.env, raising=False)
    assert build_job_key("figure-6.18", {"sync": "cas"}).digest == \
        "8631eafff9fb91d4"
    assert build_job_key("figure-6.7", {"seed": 7}).digest == \
        "a9972ff58b9d2429"
    assert build_job_key(
        "traffic-knee-quick",
        {"seed": 7, "duration": 500000, "arrival_rate": 0.5,
         "deadline": 8000, "queue_limit": 16,
         "sync": "htm"}).digest == "61844b68ea2c567f"


#: What each knob may change, pinned here independently of the table:
#: a knob that changes computed values must key (structure or timing
#: half), and an execution knob must not fragment the key.
EXPECTED_ROLES = {
    "sync": ("structure", "llsc"),
    "fault_plan": ("structure", FaultPlan(seed=3)),
    "queue_limit": ("structure", 12),
    "seed": ("timing", 13),
    "duration": ("timing", 100_000),
    "arrival_rate": ("timing", 0.25),
    "deadline": ("timing", 9_000),
    "jobs": ("execution", 2),
}


@pytest.mark.parametrize("name", list(EXPECTED_ROLES))
def test_knob_role_decides_its_half_of_the_key(name, monkeypatch):
    for knob in config.KNOBS:
        if knob.env is not None:
            monkeypatch.delenv(knob.env, raising=False)
    assert {knob.name for knob in config.KNOBS} == set(EXPECTED_ROLES)
    role, value = EXPECTED_ROLES[name]
    base = build_job_key("figure-6.7", {})
    varied = build_job_key("figure-6.7", {name: value})
    if role == "execution":
        assert varied == base
        return
    other = "timing" if role == "structure" else "structure"
    assert getattr(varied, f"{role}_digest") != \
        getattr(base, f"{role}_digest")
    assert getattr(varied, f"{other}_digest") == \
        getattr(base, f"{other}_digest")


def test_traffic_knobs_land_in_timing_half():
    base = build_job_key("traffic-knee-quick", {})
    other = build_job_key("traffic-knee-quick", {"arrival_rate": 9.0})
    assert base.structure_digest == other.structure_digest
    assert base.timing_digest != other.timing_digest


def test_str_shows_split_halves():
    key = build_job_key("figure-6.7", {"seed": 7})
    assert str(key) == f"{key.structure_digest}x{key.timing_digest}"
    assert len(key.digest) == 16


def test_status_terminality():
    assert not JobStatus.QUEUED.terminal
    assert not JobStatus.RUNNING.terminal
    assert JobStatus.DONE.terminal
    assert JobStatus.FAILED.terminal


def test_handle_result_timeout_raises():
    execution = _Execution("toy", None, {})
    handle = JobHandle("job-0", execution)
    with pytest.raises(ServiceError, match="still queued"):
        handle.result(timeout=0.05)


def test_handle_replays_events_after_completion():
    execution = _Execution("toy", None, {})
    handle = JobHandle("job-0", execution)
    execution.mark("submitted", job_id="job-0")
    execution.mark("started", status=JobStatus.RUNNING)
    execution.mark("done", status=JobStatus.DONE, result="r")
    kinds = [event.kind for event in handle.stream_events()]
    assert kinds == ["submitted", "started", "done"]
    assert handle.result() == "r"
