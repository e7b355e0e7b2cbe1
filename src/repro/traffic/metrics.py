"""Streaming measurement for open-arrival runs: no sample retention.

The closed-loop :class:`~repro.kernel.metrics.ConversationMeter` keeps
every :class:`~repro.kernel.metrics.RoundTripSample`; at a million
offered messages that is a million dataclass instances before the
first percentile query.  :class:`TrafficMeter` keeps *counters and
sketches only*: per-event it does O(1) work and holds O(bins) memory
(:class:`~repro.obs.metrics.QuantileSketch`, declared relative error),
which is what lets the CI smoke run offer 10^6 messages in bounded
memory.

Phases: total latency is measured from *arrival* (the offered
timestamp) to completion, so ingress-queue wait is part of what a
client of the system would see; the same event also feeds separate
``queue_wait`` (arrival -> dispatch) and ``service`` (dispatch ->
completion) sketches, the per-phase breakdown.  A deeper per-activity
split (syscall vs kernel processing vs DMA) comes from the sim-time
``kernel.work`` obs stream via :func:`phase_breakdown`, keyed by the
same work-item labels ``repro stats`` reconciles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TrafficError
from repro.obs.metrics import QuantileSketch

#: Tail quantiles every traffic artifact reports.
TAIL_QUANTILES = (0.50, 0.99, 0.999)

#: ``kernel.work`` label prefix -> round-trip phase, the breakdown
#: EXPERIMENTS.md walks through over a recorded trace.  Unlisted
#: labels (application compute, protocol retransmissions) fall into
#: "other" so the phase sums always reconcile with total busy time.
WORK_LABEL_PHASES = (
    ("syscall", "syscall"),
    ("process", "kernel processing"),
    ("match", "kernel processing"),
    ("cleanup client", "kernel processing"),
    ("restart", "scheduling"),
    ("DMA", "network DMA"),
    ("admission", "admission control"),
    ("compute", "application compute"),
)


def classify_work_label(label: str) -> str:
    """Map one ``kernel.work`` label to its round-trip phase."""
    for prefix, phase in WORK_LABEL_PHASES:
        if label.startswith(prefix):
            return phase
    return "other"


def phase_breakdown(records) -> dict[str, float]:
    """Sum sim-time ``kernel.work`` events into per-phase busy time.

    *records* is an iterable of JSONL record dicts as read by
    :func:`repro.obs.export.read_jsonl`; only ``kernel.work`` events
    contribute.  Returns ``{phase: busy_us}``.
    """
    phases: dict[str, float] = {}
    for record in records:
        if record.get("type") != "event" or \
                record.get("name") != "kernel.work":
            continue
        attrs = record.get("attrs", {})
        phase = classify_work_label(attrs.get("label", ""))
        phases[phase] = phases.get(phase, 0.0) \
            + attrs.get("duration_us", 0.0)
    return phases


@dataclass
class TrafficCounts:
    """Event totals over one accounting window."""

    offered: int = 0
    dispatched: int = 0        # handed a free worker immediately
    queued: int = 0            # admitted into the bounded ingress queue
    dropped: int = 0
    rejected: int = 0
    deferred: int = 0          # backpressure: parked upstream
    completed: int = 0
    failed: int = 0            # transport DeliveryFailure
    deadline_misses: int = 0
    goodput: int = 0           # completed within deadline

    @property
    def admitted(self) -> int:
        return self.dispatched + self.queued + self.deferred

    def as_dict(self) -> dict:
        return {
            "offered": self.offered, "dispatched": self.dispatched,
            "queued": self.queued, "dropped": self.dropped,
            "rejected": self.rejected, "deferred": self.deferred,
            "completed": self.completed, "failed": self.failed,
            "deadline_misses": self.deadline_misses,
            "goodput": self.goodput,
        }

    def signature(self) -> tuple:
        return tuple(sorted(self.as_dict().items()))


class TrafficMeter:
    """Collects open-arrival outcomes as counters + quantile sketches.

    ``measure_from`` splits warmup from measurement: offered/admission
    events are attributed by *arrival* time, completion events by
    *completion* time (mirroring the closed meter's window semantics).
    Both windows keep full counters; only the measurement window feeds
    the latency sketches.
    """

    def __init__(self, *, measure_from: float = 0.0,
                 deadline_us: float | None = None,
                 relative_error: float = 0.01):
        if deadline_us is not None and deadline_us <= 0:
            raise TrafficError(
                f"deadline_us must be > 0, got {deadline_us!r}")
        self.measure_from = measure_from
        self.deadline_us = deadline_us
        self.warmup = TrafficCounts()
        self.measured = TrafficCounts()
        self.latency = QuantileSketch(relative_error)
        self.queue_wait = QuantileSketch(relative_error)
        self.service = QuantileSketch(relative_error)

    # ------------------------------------------------------------------
    # admission-side events (attributed by arrival time)
    # ------------------------------------------------------------------
    # each record picks its window inline (one comparison, no call):
    # these run once per arrival and outcome of an open run
    def record_offered(self, arrived_at: float) -> None:
        (self.measured if arrived_at >= self.measure_from
         else self.warmup).offered += 1

    def record_dispatched(self, arrived_at: float) -> None:
        (self.measured if arrived_at >= self.measure_from
         else self.warmup).dispatched += 1

    def record_queued(self, arrived_at: float) -> None:
        (self.measured if arrived_at >= self.measure_from
         else self.warmup).queued += 1

    def record_dropped(self, arrived_at: float) -> None:
        (self.measured if arrived_at >= self.measure_from
         else self.warmup).dropped += 1

    def record_rejected(self, arrived_at: float) -> None:
        (self.measured if arrived_at >= self.measure_from
         else self.warmup).rejected += 1

    def record_deferred(self, arrived_at: float) -> None:
        (self.measured if arrived_at >= self.measure_from
         else self.warmup).deferred += 1

    # ------------------------------------------------------------------
    # completion-side events (attributed by completion time)
    # ------------------------------------------------------------------
    def record_completion(self, arrived_at: float, dispatched_at: float,
                          completed_at: float) -> None:
        if completed_at < arrived_at or dispatched_at < arrived_at:
            raise TrafficError("completion before arrival")
        counts = self.measured if completed_at >= self.measure_from \
            else self.warmup
        counts.completed += 1
        latency = completed_at - arrived_at
        missed = self.deadline_us is not None \
            and latency > self.deadline_us
        if missed:
            counts.deadline_misses += 1
        else:
            counts.goodput += 1
        if counts is self.measured:
            self.latency.add(latency)
            self.queue_wait.add(dispatched_at - arrived_at)
            self.service.add(completed_at - dispatched_at)

    def record_failure(self, arrived_at: float,
                       failed_at: float) -> None:
        if failed_at < arrived_at:
            raise TrafficError("failure before arrival")
        (self.measured if failed_at >= self.measure_from
         else self.warmup).failed += 1

    # ------------------------------------------------------------------
    # derived rates over the measurement window
    # ------------------------------------------------------------------
    def throughput_per_us(self, measured_us: float) -> float:
        if measured_us <= 0:
            raise TrafficError("empty measurement window")
        return self.measured.completed / measured_us

    def goodput_per_us(self, measured_us: float) -> float:
        if measured_us <= 0:
            raise TrafficError("empty measurement window")
        return self.measured.goodput / measured_us

    @property
    def drop_rate(self) -> float:
        """(dropped + rejected) / offered over the window (0 if idle)."""
        counts = self.measured
        if counts.offered == 0:
            return 0.0
        return (counts.dropped + counts.rejected) / counts.offered

    @property
    def deadline_miss_rate(self) -> float:
        """Misses / completions over the window (0 when none
        completed)."""
        counts = self.measured
        if counts.completed == 0:
            return 0.0
        return counts.deadline_misses / counts.completed

    def signature(self) -> tuple:
        """Exact digest of everything recorded — the determinism and
        identity comparisons (two behaviourally identical runs must
        produce equal signatures, bit for bit)."""
        return (self.warmup.signature(), self.measured.signature(),
                self.latency.signature(), self.queue_wait.signature(),
                self.service.signature())


@dataclass(frozen=True)
class TrafficResult:
    """Measured outcome of one open-arrival experiment."""

    architecture: object                 # models.params.Architecture
    mode: object                         # models.params.Mode
    process: str                         # ArrivalProcess.describe()
    offered_rate_per_us: float           # mean configured rate
    policy: str
    servers: int
    pool_size: int
    queue_limit: int
    deadline_us: float | None
    population: int
    warmup_us: float
    measured_us: float
    counts: TrafficCounts
    throughput_per_us: float
    goodput_per_us: float
    drop_rate: float
    deadline_miss_rate: float
    latency_p50: float | None
    latency_p99: float | None
    latency_p999: float | None
    latency_mean: float | None
    queue_wait_p99: float | None
    utilization: dict[str, dict[str, float]]
    events_processed: int
    meter: TrafficMeter = field(repr=False, compare=False,
                                default=None)

    @property
    def offered_rate_per_ms(self) -> float:
        return self.offered_rate_per_us * 1e3

    @property
    def throughput_per_ms(self) -> float:
        return self.throughput_per_us * 1e3

    @property
    def goodput_per_ms(self) -> float:
        return self.goodput_per_us * 1e3
