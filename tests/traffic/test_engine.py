"""Engine behaviour: admission policies, their MP cost accounting,
deadlines, draining, and loud construction errors."""

import pytest

from repro.errors import TrafficError
from repro.models.params import Architecture, Mode
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import (OpenTrafficSource, build_open_system,
                                  check_policy, run_open_experiment)

ARCH = Architecture.II


def overloaded(policy, *, deadline_us=None, seed=4):
    """A point far past saturation with a tiny pool and queue, so the
    admission path is hit constantly."""
    return run_open_experiment(
        ARCH, Mode.LOCAL, PoissonArrivals(0.01),   # ~10 msgs/ms
        servers=1, warmup_us=0.0, measure_us=200_000.0,
        pool_size=1, queue_limit=1, policy=policy,
        deadline_us=deadline_us, seed=seed)


# ----------------------------------------------------------------------
# admission policies: counters + the MP pays for each refusal
# ----------------------------------------------------------------------

def test_drop_policy_counts_and_charges_the_mp():
    result = overloaded("drop")
    counts = result.counts
    assert counts.dropped > 0
    assert counts.rejected == 0 and counts.deferred == 0
    # conservation: every offered message has exactly one fate
    assert counts.offered == counts.admitted + counts.dropped
    assert result.drop_rate > 0.5      # overload point: most refused


def test_reject_policy_counts():
    result = overloaded("reject")
    counts = result.counts
    assert counts.rejected > 0
    assert counts.dropped == 0 and counts.deferred == 0
    assert counts.offered == counts.admitted + counts.rejected


def test_backpressure_policy_defers_and_eventually_completes():
    result = overloaded("backpressure")
    counts = result.counts
    assert counts.deferred > 0
    assert counts.dropped == 0 and counts.rejected == 0
    assert result.drop_rate == 0.0
    # drain=True: every admitted message resolves, overflow included
    total = result.meter.warmup
    assert (counts.completed + counts.failed
            + total.completed + total.failed) \
        == counts.admitted + total.admitted


def test_admission_work_is_charged_on_the_ipc_processor():
    expected = {"drop": "admission drop (MP)",
                "reject": "admission reject (MP)",
                "backpressure": "admission defer (MP)"}
    for policy, label in expected.items():
        bench = build_open_system(
            ARCH, Mode.LOCAL, PoissonArrivals(0.01), servers=1,
            pool_size=1, queue_limit=1, policy=policy, seed=4,
            horizon_us=100_000.0)
        bench.system.run_for(100_000.0)
        bench.system.sim.run()
        node = bench.system.nodes["node0"]
        busy = node.processors.ipc.stats.busy_by_label
        assert label in busy, (policy, sorted(busy))
        assert busy[label] > 0.0
        others = {lbl for lbl in busy if lbl.startswith("admission")
                  and lbl != label}
        assert not others, (policy, others)


def test_reject_charges_more_than_drop_per_refusal():
    """reject = match + process_reply, drop = match alone (counting
    only refusals the MP actually examined — past ``examine_limit``
    the interface tail-drops without charge)."""
    per_refusal = {}
    for policy in ("drop", "reject"):
        bench = build_open_system(
            ARCH, Mode.LOCAL, PoissonArrivals(0.01), servers=1,
            pool_size=1, queue_limit=1, policy=policy, seed=4,
            horizon_us=100_000.0)
        bench.system.run_for(100_000.0)
        bench.system.sim.run()
        node = bench.system.nodes["node0"]
        busy = node.processors.ipc.stats.busy_by_label
        label = ("admission drop (MP)" if policy == "drop"
                 else "admission reject (MP)")
        counts = bench.meter.measured
        refused = counts.dropped + counts.rejected
        examined = refused - bench.source.tail_drops
        assert examined > 0
        per_refusal[policy] = busy[label] / examined
    costs = bench.system.nodes["node0"].default_costs
    assert per_refusal["drop"] == pytest.approx(costs.match)
    assert per_refusal["reject"] == pytest.approx(
        costs.match + costs.process_reply)


def test_examination_backlog_is_bounded():
    """Receive livelock stays bounded: however hard the overload, at
    most ``examine_limit`` refusal examinations are ever outstanding
    on the MP; the rest are interface tail drops (uncharged but still
    counted as refusals by the meter)."""
    bench = build_open_system(
        ARCH, Mode.LOCAL, PoissonArrivals(0.05), servers=1,
        pool_size=1, queue_limit=1, policy="drop", seed=4,
        horizon_us=300_000.0, examine_limit=8)
    peak = 0

    original = bench.source._charge_examination

    def watch(duration, label):
        nonlocal peak
        original(duration, label)
        peak = max(peak, bench.source._examining)

    bench.source._charge_examination = watch
    bench.system.run_for(300_000.0)
    bench.system.sim.run()
    assert peak <= 8
    assert bench.source.tail_drops > 0
    counts = bench.meter.measured
    # tail drops are a subset of recorded drops, not an extra fate
    assert bench.source.tail_drops < counts.dropped
    assert counts.offered == counts.admitted + counts.dropped


def test_examine_limit_validation():
    with pytest.raises(TrafficError, match="examine_limit"):
        OpenTrafficSource(PoissonArrivals(0.001), examine_limit=0)


# ----------------------------------------------------------------------
# deadlines and goodput
# ----------------------------------------------------------------------

def test_deadline_misses_split_goodput():
    # at overload with a deep ingress queue, queue wait dominates and
    # a tight deadline is missed by almost everything admitted late
    result = run_open_experiment(
        ARCH, Mode.LOCAL, PoissonArrivals(0.005), servers=1,
        warmup_us=0.0, measure_us=300_000.0, pool_size=2,
        queue_limit=64, policy="drop", deadline_us=1_000.0, seed=4)
    counts = result.counts
    assert counts.deadline_misses > 0
    assert counts.goodput + counts.deadline_misses == counts.completed
    assert 0.0 < result.deadline_miss_rate <= 1.0
    assert result.goodput_per_us < result.throughput_per_us


def test_no_deadline_means_no_misses():
    result = overloaded("drop", deadline_us=None)
    assert result.counts.deadline_misses == 0
    assert result.deadline_miss_rate == 0.0
    assert result.counts.goodput == result.counts.completed


# ----------------------------------------------------------------------
# draining and backlog
# ----------------------------------------------------------------------

def test_drain_resolves_every_admitted_message():
    result = overloaded("drop")
    meter = result.meter
    admitted = meter.warmup.admitted + meter.measured.admitted
    resolved = (meter.warmup.completed + meter.warmup.failed
                + meter.measured.completed + meter.measured.failed)
    assert admitted == resolved


def test_backlog_property_tracks_queues():
    source = OpenTrafficSource(PoissonArrivals(0.001))
    assert source.backlog == 0


# ----------------------------------------------------------------------
# loud construction errors
# ----------------------------------------------------------------------

def test_check_policy_rejects_unknown():
    with pytest.raises(TrafficError, match="unknown admission policy"):
        check_policy("tail-drop")
    assert check_policy("reject") == "reject"


@pytest.mark.parametrize("kwargs", [
    {"pool_size": 0}, {"queue_limit": -1}, {"population": 0},
])
def test_source_rejects_bad_bounds(kwargs):
    with pytest.raises(TrafficError):
        OpenTrafficSource(PoissonArrivals(0.001), **kwargs)


def test_build_rejects_bad_servers():
    with pytest.raises(TrafficError, match="servers"):
        build_open_system(ARCH, Mode.LOCAL, PoissonArrivals(0.001),
                          servers=0)


def test_meter_rejects_bad_deadline():
    from repro.traffic.metrics import TrafficMeter
    with pytest.raises(TrafficError, match="deadline"):
        TrafficMeter(deadline_us=0.0)


def test_meter_rejects_time_travel():
    from repro.traffic.metrics import TrafficMeter
    meter = TrafficMeter()
    with pytest.raises(TrafficError):
        meter.record_completion(10.0, 5.0, 20.0)
    with pytest.raises(TrafficError):
        meter.record_completion(10.0, 12.0, 5.0)
    with pytest.raises(TrafficError):
        meter.record_failure(10.0, 5.0)


# ----------------------------------------------------------------------
# session multiplexing: population vs pool
# ----------------------------------------------------------------------

def test_population_cycles_client_ids_over_bounded_pool():
    seen = []
    bench = build_open_system(
        ARCH, Mode.LOCAL, PoissonArrivals(0.005), servers=2,
        pool_size=2, queue_limit=8, population=3, seed=1,
        horizon_us=50_000.0)
    original_dispatch = bench.source._dispatch

    def spy(message):
        seen.append(message.client_id)
        original_dispatch(message)

    bench.source._dispatch = spy
    bench.system.run_for(50_000.0)
    bench.system.sim.run()
    assert set(seen) <= {0, 1, 2}
    assert len(seen) > 10              # many messages, 3 logical clients
    # only the bounded pool ever existed as kernel tasks
    tasks = [name for name in bench.system.all_task_names()
             if name.startswith("open")]
    assert len(tasks) == 2


# ----------------------------------------------------------------------
# a long non-local run: exact packet counters, bounded packet log
# ----------------------------------------------------------------------

def test_long_nonlocal_open_run_keeps_a_bounded_packet_log():
    """Every admitted non-local message is one send and one reply
    packet; the counters stay exact while the log keeps only a window."""
    from repro.kernel.network import PACKET_LOG_WINDOW
    horizon = 40_000_000.0
    bench = build_open_system(
        ARCH, Mode.NONLOCAL, PoissonArrivals(0.0002), servers=2,
        pool_size=8, queue_limit=8, policy="drop", seed=0,
        horizon_us=horizon)
    bench.system.run_for(horizon)
    bench.system.sim.run()
    wire, counts = bench.system.wire, bench.meter.measured
    assert counts.dropped > 0
    assert wire.packet_count == 2 * counts.admitted
    assert wire.packet_count > 2 * PACKET_LOG_WINDOW
    assert len(wire.packets) == PACKET_LOG_WINDOW
    assert wire.counts_by_kind() == {"send": counts.admitted,
                                     "reply": counts.admitted}
    assert sum(wire.counts_by_destination().values()) == wire.packet_count
    assert wire.counts_by_status() == {"delivered": wire.packet_count}
    sent = [p.sent_at for p in wire.packets]
    assert sent == sorted(sent)
