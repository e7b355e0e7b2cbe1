"""Tests for batch-means confidence intervals."""

import pytest

from repro.errors import AnalysisError
from repro.gtpn import (Net, activity_pair, analyze,
                        simulate_with_confidence)


def cycle_net(mean=10.0):
    net = Net()
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    activity_pair(net, "serve", mean, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def test_interval_contains_exact_value():
    net = cycle_net(mean=8.0)
    exact = analyze(net).throughput()
    ci = simulate_with_confidence(net, batches=10, batch_ticks=20_000,
                                  seed=5)
    assert ci.contains(exact)
    assert ci.half_width > 0


def test_more_ticks_tighter_interval():
    net = cycle_net()
    short = simulate_with_confidence(net, batches=5,
                                     batch_ticks=2_000, seed=1)
    long = simulate_with_confidence(net, batches=5,
                                    batch_ticks=50_000, seed=1)
    assert long.half_width < short.half_width


def test_batch_means_recorded():
    ci = simulate_with_confidence(cycle_net(), batches=6,
                                  batch_ticks=5_000, seed=2)
    assert len(ci.batch_means) == 6
    assert ci.mean == pytest.approx(sum(ci.batch_means) / 6)


def test_interval_bounds_ordered():
    ci = simulate_with_confidence(cycle_net(), batches=4,
                                  batch_ticks=5_000, seed=3)
    low, high = ci.interval
    assert low <= ci.mean <= high


def test_reproducible_with_seed():
    a = simulate_with_confidence(cycle_net(), batches=4,
                                 batch_ticks=3_000, seed=9)
    b = simulate_with_confidence(cycle_net(), batches=4,
                                 batch_ticks=3_000, seed=9)
    assert a.mean == b.mean
    assert a.batch_means == b.batch_means


def test_validation_errors():
    net = cycle_net()
    with pytest.raises(AnalysisError):
        simulate_with_confidence(net, batches=1)
    with pytest.raises(AnalysisError):
        simulate_with_confidence(net, resource="nonexistent",
                                 batches=4, batch_ticks=1_000)


@pytest.mark.parametrize("batch_ticks", [0, -5])
def test_nonpositive_batch_ticks_rejected(batch_ticks):
    """Used to surface as a bare ZeroDivisionError from the batch
    average."""
    with pytest.raises(AnalysisError, match="batch_ticks"):
        simulate_with_confidence(cycle_net(), batches=4,
                                 batch_ticks=batch_ticks)


def test_negative_warmup_rejected():
    with pytest.raises(AnalysisError, match="warmup"):
        simulate_with_confidence(cycle_net(), batches=4,
                                 batch_ticks=1_000, warmup=-1)


def test_interval_coverage_across_seeds():
    """The 95% CI should contain the exact value at roughly its
    nominal rate: over 20 seeds, allow at most 3 misses."""
    net = cycle_net(mean=8.0)
    exact = analyze(net).throughput()
    hits = sum(
        simulate_with_confidence(net, batches=8, batch_ticks=2_000,
                                 warmup=1_000, seed=s).contains(exact)
        for s in range(20))
    assert hits >= 17, f"only {hits}/20 intervals contained the exact value"


def test_seed_resolves_through_global_default():
    """Without an explicit seed the simulator consults the
    process-wide default (CLI --seed / REPRO_SEED)."""
    from repro import config
    net = cycle_net()
    try:
        config.set_cli("seed", 77)
        a = simulate_with_confidence(net, batches=4, batch_ticks=2_000)
        b = simulate_with_confidence(net, batches=4, batch_ticks=2_000,
                                     seed=77)
    finally:
        config.set_cli("seed", None)
    assert a.mean == b.mean
    assert a.batch_means == b.batch_means
