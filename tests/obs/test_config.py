"""Config precedence: CLI > env > default, in one place."""

from __future__ import annotations

import pytest

from repro import config
from repro.errors import ConfigError


class TestJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert config.jobs() == 1
        assert config.resolved_config().jobs_source == "default"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert config.jobs() == 4
        assert config.resolved_config().jobs_source == "env"

    def test_cli_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        config.set_jobs(2)
        assert config.jobs() == 2
        assert config.resolved_config().jobs_source == "cli"

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(ConfigError):
            config.jobs()

    def test_invalid_cli_value_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            config.set_jobs(0)


class TestSeed:
    def test_default_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert config.seed() is None

    def test_env_seed_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        assert config.seed() == 7
        assert config.resolved_config().seed_source == "env"

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        config.set_seed(13)
        assert config.seed() == 13
        assert config.resolved_config().seed_source == "cli"

    def test_malformed_env_seed_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "not-an-int")
        with pytest.raises(ValueError, match="REPRO_SEED"):
            config.seed()


class TestSnapshot:
    def test_resolved_config_snapshot(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        config.set_jobs(3)
        snap = config.resolved_config()
        assert snap.jobs == 3
        assert snap.jobs_source == "cli"
        assert snap.seed is None and snap.seed_source == "default"
        d = snap.as_dict()
        assert d["jobs"] == 3 and d["jobs_source"] == "cli"

    def test_overrides_scope_and_restore(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        config.set_jobs(2)
        with config.overrides(jobs=5, seed=42):
            assert config.jobs() == 5
            assert config.seed() == 42
        assert config.jobs() == 2
        assert config.seed() is None

    def test_overrides_restore_on_exception(self):
        config.set_seed(1)
        with pytest.raises(RuntimeError):
            with config.overrides(seed=99):
                raise RuntimeError("boom")
        assert config.seed() == 1

    def test_reset_clears_cli_state(self):
        config.set_jobs(8)
        config.set_seed(5)
        config.reset()
        assert config.resolved_config().jobs_source != "cli"
        assert config.resolved_config().seed_source != "cli"


class TestTrafficKnobs:
    """--duration/--arrival-rate/--deadline/--queue-limit: same
    CLI > env > default contract as every other knob, loud on junk."""

    KNOBS = [
        ("duration", config.set_duration, config.duration,
         "REPRO_DURATION", "250000", 250_000.0),
        ("arrival_rate", config.set_arrival_rate, config.arrival_rate,
         "REPRO_ARRIVAL_RATE", "0.5", 0.5),
        ("deadline", config.set_deadline, config.deadline,
         "REPRO_DEADLINE", "4000", 4_000.0),
        ("queue_limit", config.set_queue_limit, config.queue_limit,
         "REPRO_QUEUE_LIMIT", "16", 16),
    ]

    def test_default_is_none(self, monkeypatch):
        for _, _, getter, env, _, _ in self.KNOBS:
            monkeypatch.delenv(env, raising=False)
            assert getter() is None

    def test_env_and_cli_precedence(self, monkeypatch):
        for name, setter, getter, env, raw, parsed in self.KNOBS:
            monkeypatch.setenv(env, raw)
            assert getter() == parsed
            snapshot = config.resolved_config()
            assert getattr(snapshot, f"{name}_source") == "env"
            setter(raw)
            assert getter() == parsed
            snapshot = config.resolved_config()
            assert getattr(snapshot, f"{name}_source") == "cli"

    @pytest.mark.parametrize("bad", ["banana", "-1", "0", "nan", "inf",
                                     ""])
    def test_cli_junk_rejected_eagerly(self, bad):
        for _, setter, _, _, _, _ in self.KNOBS:
            with pytest.raises(ConfigError):
                setter(bad)

    def test_malformed_env_raises_with_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURATION", "soon")
        with pytest.raises(ConfigError, match="REPRO_DURATION"):
            config.duration()
        monkeypatch.setenv("REPRO_QUEUE_LIMIT", "2.5")
        with pytest.raises(ConfigError, match="REPRO_QUEUE_LIMIT"):
            config.queue_limit()

    def test_queue_limit_is_integral(self):
        with pytest.raises(ConfigError):
            config.set_queue_limit("3.7")
        config.set_queue_limit("12")
        assert config.queue_limit() == 12

    def test_error_names_the_flag(self):
        with pytest.raises(ConfigError, match="arrival-rate"):
            config.set_arrival_rate("fast")
        with pytest.raises(ConfigError, match="queue-limit"):
            config.set_queue_limit("-3")

    def test_snapshot_carries_values_and_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "9000")
        config.set_duration("100000")
        snapshot = config.resolved_config()
        assert snapshot.duration_us == 100_000.0
        assert snapshot.duration_source == "cli"
        assert snapshot.deadline_us == 9_000.0
        assert snapshot.deadline_source == "env"
        assert snapshot.arrival_rate_per_ms is None
        assert snapshot.arrival_rate_source == "default"
        payload = snapshot.as_dict()
        assert payload["duration_source"] == "cli"
        assert payload["deadline_us"] == 9_000.0

    def test_overrides_scope_traffic_knobs(self):
        with config.overrides(duration=50_000, arrival_rate=0.25,
                              deadline=2_000, queue_limit=8):
            assert config.duration() == 50_000.0
            assert config.arrival_rate() == 0.25
            assert config.deadline() == 2_000.0
            assert config.queue_limit() == 8
        for _, _, getter, _, _, _ in self.KNOBS:
            assert getter() is None

    def test_reset_clears_traffic_knobs(self):
        config.set_duration("1000")
        config.set_queue_limit("4")
        config.reset()
        assert config.duration() is None
        assert config.queue_limit() is None
