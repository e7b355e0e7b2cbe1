"""Tests for the global seed default (--seed / REPRO_SEED)."""

import pytest

from repro import config
from repro.seeding import resolve_seed


@pytest.fixture(autouse=True)
def reset_default():
    yield
    config.set_cli("seed", None)


def test_explicit_seed_wins():
    config.set_cli("seed", 5)
    assert resolve_seed(7) == 7


def test_global_default_beats_fallback():
    config.set_cli("seed", 5)
    assert resolve_seed(None, fallback=0) == 5


def test_env_var_supplies_default(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "99")
    assert config.get("seed") == 99
    assert resolve_seed(None) == 99


def test_set_default_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "99")
    config.set_cli("seed", 3)
    assert resolve_seed(None) == 3


def test_fallback_when_nothing_set(monkeypatch):
    monkeypatch.delenv("REPRO_SEED", raising=False)
    assert resolve_seed(None, fallback=0) == 0
    assert resolve_seed(None) is None


def test_bad_env_value_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "not-a-seed")
    with pytest.raises(Exception):
        config.get("seed")


def test_seeded_components_are_repeatable(monkeypatch):
    """The same REPRO_SEED reproduces a stochastic workload exactly."""
    from repro.kernel import build_conversation_system
    from repro.models.params import Architecture, Mode

    def run():
        system, meter = build_conversation_system(
            Architecture.II, Mode.LOCAL, 2, 1000.0)
        system.run_for(300_000.0)
        return [(s.client, s.completed_at) for s in meter.samples]

    monkeypatch.setenv("REPRO_SEED", "11")
    first = run()
    second = run()
    monkeypatch.setenv("REPRO_SEED", "12")
    third = run()
    assert first == second
    assert first != third
