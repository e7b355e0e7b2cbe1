"""Config precedence: CLI > env > default, in one place.

:class:`TestEveryKnob` runs the whole contract over every row of
:data:`repro.config.KNOBS`; the classes after it pin the knob-specific
details (jobs defaults to serial, seeds are plain integers, the
traffic knobs default to unset).
"""

from __future__ import annotations

import pytest

from repro import config
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan

PLAN = FaultPlan(seed=3)

#: Per knob: (env spelling, its parsed value, a CLI-level value, its
#: parsed value, junk the parser must refuse).  Each value differs from
#: the knob's default.
SAMPLES = {
    "reduction": ("elim+lump", "lump+elim", "LUMP", "lump",
                  ["fold", "lump+fold"]),
    "sync": ("CAS", "cas", "ll/sc", "llsc", ["spin", ""]),
    "fault_plan": (None, None, PLAN, PLAN, []),
    "queue_limit": ("16", 16, "12", 12,
                    ["banana", "-1", "0", "nan", "inf", "", "3.7"]),
    "seed": ("7", 7, 13, 13, ["not-an-int", "1.5", ""]),
    "duration": ("250000", 250_000.0, "100000", 100_000.0,
                 ["banana", "-1", "0", "nan", "inf", ""]),
    "arrival_rate": ("0.5", 0.5, 0.25, 0.25,
                     ["fast", "-1", "0", "nan", "inf", ""]),
    "deadline": ("4000", 4_000.0, "9000", 9_000.0,
                 ["soon", "-1", "0", "nan", "inf", ""]),
    "jobs": ("4", 4, 2, 2, ["banana", "0", "-2", "2.5", ""]),
}

ALL_KNOBS = pytest.mark.parametrize(
    "knob", config.KNOBS, ids=[knob.name for knob in config.KNOBS])


@pytest.fixture(autouse=True)
def _no_knob_env(monkeypatch):
    for knob in config.KNOBS:
        if knob.env is not None:
            monkeypatch.delenv(knob.env, raising=False)


def test_table_is_the_nine_knobs_with_samples():
    assert len(config.KNOBS) == 9
    assert {knob.name for knob in config.KNOBS} == set(SAMPLES)
    assert {knob.role for knob in config.KNOBS} == set(config.ROLES)
    flags = [knob.flag for knob in config.KNOBS if knob.flag]
    envs = [knob.env for knob in config.KNOBS if knob.env]
    assert len(flags) == len(set(flags)) == 8
    assert len(envs) == len(set(envs))


class TestEveryKnob:
    @ALL_KNOBS
    def test_default(self, knob):
        assert config.get(knob.name) == knob.default
        assert config.resolved_config()[f"{knob.name}_source"] == \
            "default"

    @ALL_KNOBS
    def test_env_beats_default(self, knob, monkeypatch):
        raw, parsed, _, _, _ = SAMPLES[knob.name]
        if knob.env is None:
            pytest.skip(f"{knob.name} has no environment variable")
        monkeypatch.setenv(knob.env, raw)
        assert config.get(knob.name) == parsed
        assert config.resolved_config()[f"{knob.name}_source"] == "env"
        monkeypatch.setenv(knob.env, "  ")      # blank means unset
        assert config.get(knob.name) == knob.default

    @ALL_KNOBS
    def test_cli_beats_env(self, knob, monkeypatch):
        raw, _, value, parsed, _ = SAMPLES[knob.name]
        if knob.env is not None:
            monkeypatch.setenv(knob.env, raw)
        config.set_cli(knob.name, value)
        assert config.get(knob.name) == parsed
        assert config.resolved_config()[f"{knob.name}_source"] == "cli"
        config.set_cli(knob.name, None)
        assert config.resolved_config()[f"{knob.name}_source"] != "cli"

    @ALL_KNOBS
    def test_junk_rejected_eagerly_naming_flag_or_keyword(self, knob):
        for bad in SAMPLES[knob.name][4]:
            with pytest.raises(ConfigError, match=knob.flag or knob.name):
                config.set_cli(knob.name, bad)
            with pytest.raises(ConfigError, match=knob.name):
                config.parse({knob.name: bad})
            assert config.get(knob.name) == knob.default

    @ALL_KNOBS
    def test_malformed_env_raises_naming_variable(self, knob,
                                                  monkeypatch):
        junk = [bad for bad in SAMPLES[knob.name][4] if bad.strip()]
        if knob.env is None or not junk:
            pytest.skip(f"{knob.name} has no malformed env spelling")
        monkeypatch.setenv(knob.env, junk[0])
        with pytest.raises(ConfigError, match=knob.env):
            config.get(knob.name)
        with pytest.raises(ConfigError, match=knob.env):
            config.resolved_config()

    @ALL_KNOBS
    def test_overrides_scope_and_restore(self, knob):
        _, outside, value, parsed, _ = SAMPLES[knob.name]
        with config.overrides(**{knob.name: value}):
            assert config.get(knob.name) == parsed
        assert config.get(knob.name) == knob.default
        with pytest.raises(RuntimeError):
            with config.overrides(**{knob.name: value}):
                raise RuntimeError("boom")
        assert config.get(knob.name) == knob.default
        if outside is not None:
            config.set_cli(knob.name, outside)
            with config.overrides(**{knob.name: value}):
                assert config.get(knob.name) == parsed
            assert config.get(knob.name) == outside

    @ALL_KNOBS
    def test_reset(self, knob):
        config.set_cli(knob.name, SAMPLES[knob.name][2])
        config.reset()
        assert config.get(knob.name) == knob.default
        assert config.resolved_config()[f"{knob.name}_source"] == \
            "default"

    def test_snapshot_has_value_and_source_per_knob(self):
        snapshot = config.resolved_config()
        assert set(snapshot) == {
            key for knob in config.KNOBS
            for key in (knob.name, f"{knob.name}_source")}
        config.set_cli("fault_plan", PLAN)
        assert config.resolved_config()["fault_plan"] == repr(PLAN)

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config.get("bogus")
        with pytest.raises(ConfigError, match="bogus"):
            config.set_cli("bogus", 1)
        with pytest.raises(ConfigError, match="bogus"):
            config.parse({"bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            with config.overrides(seed=5, bogus=1):
                pass
        assert config.get("seed") is None

    def test_parse_drops_unset_and_parses_the_rest(self):
        assert config.parse({"seed": None, "sync": "CAS",
                             "duration": 500000}) == \
            {"sync": "cas", "duration": 500_000.0}


class TestJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert config.get("jobs") == 1
        assert config.resolved_config()["jobs_source"] == "default"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert config.get("jobs") == 4
        assert config.resolved_config()["jobs_source"] == "env"

    def test_cli_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        config.set_cli("jobs", 2)
        assert config.get("jobs") == 2
        assert config.resolved_config()["jobs_source"] == "cli"

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(ConfigError):
            config.get("jobs")

    def test_invalid_cli_value_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            config.set_cli("jobs", 0)


class TestSeed:
    def test_default_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert config.get("seed") is None

    def test_env_seed_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        assert config.get("seed") == 7
        assert config.resolved_config()["seed_source"] == "env"

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        config.set_cli("seed", 13)
        assert config.get("seed") == 13
        assert config.resolved_config()["seed_source"] == "cli"

    def test_malformed_env_seed_raises(self, monkeypatch):
        # ConfigError is also a ValueError, the historical contract
        monkeypatch.setenv("REPRO_SEED", "not-an-int")
        with pytest.raises(ValueError, match="REPRO_SEED"):
            config.get("seed")


class TestSnapshot:
    def test_resolved_config_snapshot(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        config.set_cli("jobs", 3)
        snap = config.resolved_config()
        assert snap["jobs"] == 3
        assert snap["jobs_source"] == "cli"
        assert snap["seed"] is None and snap["seed_source"] == "default"

    def test_overrides_scope_and_restore(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        config.set_cli("jobs", 2)
        with config.overrides(jobs=5, seed=42):
            assert config.get("jobs") == 5
            assert config.get("seed") == 42
        assert config.get("jobs") == 2
        assert config.get("seed") is None

    def test_overrides_restore_on_exception(self):
        config.set_cli("seed", 1)
        with pytest.raises(RuntimeError):
            with config.overrides(seed=99):
                raise RuntimeError("boom")
        assert config.get("seed") == 1

    def test_reset_clears_cli_state(self):
        config.set_cli("jobs", 8)
        config.set_cli("seed", 5)
        config.reset()
        assert config.resolved_config()["jobs_source"] != "cli"
        assert config.resolved_config()["seed_source"] != "cli"


class TestTrafficKnobs:
    """--duration/--arrival-rate/--deadline/--queue-limit default to
    unset, so each open-arrival entry point keeps its own default."""

    NAMES = ("duration", "arrival_rate", "deadline", "queue_limit")

    def test_default_is_none(self):
        for name in self.NAMES:
            assert config.get(name) is None

    def test_env_and_cli_precedence(self, monkeypatch):
        for name in self.NAMES:
            raw, parsed, _, _, _ = SAMPLES[name]
            monkeypatch.setenv(config.knob(name).env, raw)
            assert config.get(name) == parsed
            assert config.resolved_config()[f"{name}_source"] == "env"
            config.set_cli(name, raw)
            assert config.get(name) == parsed
            assert config.resolved_config()[f"{name}_source"] == "cli"

    @pytest.mark.parametrize("bad", ["banana", "-1", "0", "nan", "inf",
                                     ""])
    def test_cli_junk_rejected_eagerly(self, bad):
        for name in self.NAMES:
            with pytest.raises(ConfigError):
                config.set_cli(name, bad)

    def test_malformed_env_raises_with_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURATION", "soon")
        with pytest.raises(ConfigError, match="REPRO_DURATION"):
            config.get("duration")
        monkeypatch.setenv("REPRO_QUEUE_LIMIT", "2.5")
        with pytest.raises(ConfigError, match="REPRO_QUEUE_LIMIT"):
            config.get("queue_limit")

    def test_queue_limit_is_integral(self):
        with pytest.raises(ConfigError):
            config.set_cli("queue_limit", "3.7")
        config.set_cli("queue_limit", "12")
        assert config.get("queue_limit") == 12

    def test_error_names_the_flag(self):
        with pytest.raises(ConfigError, match="--arrival-rate"):
            config.set_cli("arrival_rate", "fast")
        with pytest.raises(ConfigError, match="--queue-limit"):
            config.set_cli("queue_limit", "-3")

    def test_snapshot_carries_values_and_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "9000")
        config.set_cli("duration", "100000")
        snapshot = config.resolved_config()
        assert snapshot["duration"] == 100_000.0
        assert snapshot["duration_source"] == "cli"
        assert snapshot["deadline"] == 9_000.0
        assert snapshot["deadline_source"] == "env"
        assert snapshot["arrival_rate"] is None
        assert snapshot["arrival_rate_source"] == "default"

    def test_overrides_scope_traffic_knobs(self):
        with config.overrides(duration=50_000, arrival_rate=0.25,
                              deadline=2_000, queue_limit=8):
            assert config.get("duration") == 50_000.0
            assert config.get("arrival_rate") == 0.25
            assert config.get("deadline") == 2_000.0
            assert config.get("queue_limit") == 8
        for name in self.NAMES:
            assert config.get(name) is None

    def test_reset_clears_traffic_knobs(self):
        config.set_cli("duration", "1000")
        config.set_cli("queue_limit", "4")
        config.reset()
        assert config.get("duration") is None
        assert config.get("queue_limit") is None
