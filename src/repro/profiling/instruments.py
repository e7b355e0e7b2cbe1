"""Kernel profiling instruments (section 3.3).

Reimplements the measurement technique of the thesis: a hardware timer
is read on procedure entry and exit; per-procedure records accumulate
visit counts and elapsed time, wraparound is corrected, and the cost of
the timing code itself is subtracted afterwards::

    procedure_entry = record
        count : integer;
        timer_value_at_entry : integer;
        elapsed_time : integer;
    end;
    statistics : array (procedure_names) of procedure_entry;
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


class HardwareTimer:
    """A free-running counter with finite width (wraps around)."""

    def __init__(self, width_bits: int = 16, tick_us: float = 1.0):
        if width_bits < 4:
            raise ReproError("timer too narrow to be useful")
        self.modulus = 1 << width_bits
        self.tick_us = tick_us
        self._time_us = 0.0

    def advance(self, microseconds: float) -> None:
        if microseconds < 0:
            raise ReproError("time does not go backwards")
        self._time_us += microseconds

    def read(self) -> int:
        """Current counter value (wrapped)."""
        return int(self._time_us / self.tick_us) % self.modulus


@dataclass
class ProcedureEntry:
    """One row of the thesis's ``statistics`` array."""

    count: int = 0
    timer_value_at_entry: int = 0
    elapsed_time: int = 0       # in timer ticks
    open_calls: int = 0


@dataclass
class KernelProfiler:
    """Procedure-call profiling with wraparound and probe correction.

    ``probe_overhead_ticks`` models the cost of executing the timing
    code itself; the report subtracts it ("suitable corrections have
    to be made to remove the cost incurred due to the timing code").
    """

    timer: HardwareTimer
    probe_overhead_ticks: int = 0
    statistics: dict[str, ProcedureEntry] = field(default_factory=dict)

    def clear(self) -> None:
        """Reset before a kernel run."""
        self.statistics.clear()

    def enter(self, procedure: str) -> None:
        entry = self.statistics.setdefault(procedure, ProcedureEntry())
        if entry.open_calls:
            raise ReproError(
                f"profiler: re-entrant call of {procedure!r} not "
                "supported")
        self.timer.advance(self.probe_overhead_ticks * self.timer.tick_us)
        entry.timer_value_at_entry = self.timer.read()
        entry.open_calls = 1

    def exit(self, procedure: str) -> None:
        entry = self.statistics.get(procedure)
        if entry is None or not entry.open_calls:
            raise ReproError(
                f"profiler: exit of {procedure!r} without entry")
        self.timer.advance(self.probe_overhead_ticks * self.timer.tick_us)
        now = self.timer.read()
        delta = now - entry.timer_value_at_entry
        if delta < 0:
            # the timer wrapped; apply correction
            delta += self.timer.modulus
        entry.elapsed_time += delta
        entry.count += 1
        entry.open_calls = 0

    def profile(self, procedure: str, duration_us: float) -> None:
        """Convenience: profiled execution of *duration_us* of work."""
        self.enter(procedure)
        self.timer.advance(duration_us)
        self.exit(procedure)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def corrected_time_us(self, procedure: str) -> float:
        """Total elapsed time minus the probe overhead, microseconds."""
        entry = self.statistics[procedure]
        raw = entry.elapsed_time * self.timer.tick_us
        correction = (entry.count * self.probe_overhead_ticks
                      * self.timer.tick_us)
        return raw - correction

    def mean_time_us(self, procedure: str) -> float:
        entry = self.statistics[procedure]
        if entry.count == 0:
            raise ReproError(f"{procedure!r} never completed")
        return self.corrected_time_us(procedure) / entry.count

    def report(self) -> dict[str, tuple[int, float]]:
        """procedure -> (count, corrected total microseconds)."""
        return {name: (entry.count, self.corrected_time_us(name))
                for name, entry in self.statistics.items()}
