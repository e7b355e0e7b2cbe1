"""Discrete-event simulation core for the kernel simulator.

The :class:`Simulator` is a fast-lane event calendar built for the
open-arrival traffic runs (millions of events per run, see
``benchmarks/test_bench_traffic.py``).  Two lanes feed one global
``(time, seq)`` order:

* **heap** — an indexed binary heap of slotted event *records*
  (5-slot lists ``[time, seq, func, arg, state]``).  Records carry an
  optional call argument so hot callers never build a per-event
  closure.
* **now lane** — a FIFO deque for ``after(0.0, ...)``.  Zero-delay
  wakeups (event-manager notifications, task restarts, zero-latency
  wires) are the most common schedule in a kernel run; their times are
  nondecreasing by construction (time only moves forward), so a deque
  preserves their order without paying heap traffic.

Presorted bulk batches from :meth:`post_run` (vectorized arrival
chunks) are *runs*: a run holds one shared callback and a contiguous
block of sequence numbers, and only its next event sits in the heap —
executing it pushes the one after.  The drain loop therefore compares
just two heads per event, however many runs are pending.

Every event is ordered on the exact ``(time, seq)`` key, so the
execution order is bit-identical to pushing each event through a
single heap — the lanes are a mechanical optimisation, not a
semantics change.

Cancellation is lazy: :meth:`at_cancellable` returns the record itself
as a token, :meth:`cancel` marks it dead, and the drain loop discards
dead records when they surface.  Records are never reused, so a stale
token can never alias another event.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Callable, Sequence

from repro.errors import KernelError

#: Sentinel meaning "invoke the action with no argument".
_NO_ARG = object()

# Event-record states (slot 4 of a record).
_DEAD = 0      # executed or cancelled; skipped if still queued
_LIVE = 1      # pending, no token handed out
_PINNED = 2    # pending, with an exposed cancellation token
_RUN = 3       # the next event of a post_run batch; slot 3 is the run

_INF = math.inf

#: Type of a cancellation token (the event record itself).
EventHandle = list


class Simulator:
    """A fast event-calendar simulator (times in microseconds)."""

    __slots__ = ("now", "events_processed", "_heap", "_lane",
                 "_sequence", "_cancelled", "_run_backlog")

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._heap: list[list] = []
        self._lane: deque[list] = deque()
        self._sequence = 0
        self._cancelled = 0
        #: run events posted but not yet in the heap
        self._run_backlog = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, action: Callable, arg=_NO_ARG) -> None:
        """Schedule *action* at absolute simulation time *time*.

        *arg*, if given, is passed to *action* when it fires — cheaper
        than capturing it in a closure on hot paths.
        """
        if not time >= self.now:        # also refuses NaN
            raise KernelError(
                f"cannot schedule at {time}: in the past (now {self.now}) "
                "or not a number")
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, [time, seq, action, arg, _LIVE])

    def after(self, delay: float, action: Callable, arg=_NO_ARG) -> None:
        """Schedule *action* after *delay* microseconds.

        ``delay == 0.0`` takes the now lane: FIFO among zero-delay
        events, globally ordered by the same ``(time, seq)`` key.
        """
        # the hottest call of a run: one check, the record built inline
        if not delay >= 0.0:            # also refuses NaN
            raise KernelError(f"delay {delay} is negative or not a number")
        self._sequence = seq = self._sequence + 1
        if delay == 0.0:
            self._lane.append([self.now, seq, action, arg, _LIVE])
        else:
            heappush(self._heap,
                     [self.now + delay, seq, action, arg, _LIVE])

    def at_cancellable(self, time: float, action: Callable,
                       arg=_NO_ARG) -> EventHandle:
        """Schedule *action* and return a token for :meth:`cancel`.

        The token stays valid forever: a pinned record is never
        recycled, so cancelling after the event ran (or was already
        cancelled) is a safe no-op returning ``False``.
        """
        if not time >= self.now:        # also refuses NaN
            raise KernelError(
                f"cannot schedule at {time}: in the past (now {self.now}) "
                "or not a number")
        self._sequence = seq = self._sequence + 1
        record = [time, seq, action, arg, _PINNED]
        heappush(self._heap, record)
        return record

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event scheduled via :meth:`at_cancellable`.

        Returns ``True`` if the event was still pending; ``False`` if
        it already ran or was already cancelled.  Cancellation is lazy:
        the record is marked dead and discarded when it surfaces.
        """
        if handle[4] != _PINNED:
            return False
        handle[4] = _DEAD
        handle[2] = handle[3] = None
        self._cancelled += 1
        return True

    def post_run(self, times: Sequence[float], action: Callable) -> int:
        """Bulk-insert a presorted batch of events sharing *action*.

        *times* must be nondecreasing and start at or after ``now``.
        The batch gets a contiguous block of sequence numbers, so it
        interleaves with individually scheduled events exactly as if
        each time had been passed to :meth:`at` in order — at a
        fraction of the cost (only the run's next event is in the heap
        at any time).  Returns the number of events posted.
        """
        times = list(times)
        count = len(times)
        if not count:
            return 0
        if not times[0] >= self.now:    # also refuses NaN
            raise KernelError(
                f"cannot schedule at {times[0]}: in the past (now "
                f"{self.now}) or not a number")
        total = sum(times)
        if total != total:              # a NaN anywhere in the batch
            raise KernelError("post_run times must not be NaN")
        if times != sorted(times):    # timsort: O(n) on sorted input
            raise KernelError("post_run times must be nondecreasing")
        seq0 = self._sequence + 1
        self._sequence += count
        # run: [times, index_in_heap, seq_of_index_0, count]; its one
        # heap record is re-keyed to the next event each time it runs
        run = [times, 0, seq0, count]
        heappush(self._heap, [times[0], seq0, action, run, _RUN])
        self._run_backlog += count - 1
        return count

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def _drain(self, horizon: float, max_events: int) -> None:
        """Execute events with ``time <= horizon`` in global order."""
        heap = self._heap
        lane = self._lane
        processed = 0
        try:
            while True:
                # -- the earlier of the two heads by (time, seq) ------
                if heap:
                    head = heap[0]
                    if not head[4]:         # lazily drop cancelled
                        heappop(heap)
                        self._cancelled -= 1
                        continue
                    source = heap
                    if lane:
                        record = lane[0]
                        time = record[0]
                        if time < head[0] or (time == head[0]
                                              and record[1] < head[1]):
                            head = record
                            source = lane
                elif lane:
                    head = lane[0]
                    source = lane
                else:
                    break
                time = head[0]
                if time > horizon:
                    break
                if processed >= max_events:
                    if horizon == _INF:
                        raise KernelError(
                            f"more than {max_events} events; "
                            "runaway simulation?")
                    raise KernelError(
                        f"more than {max_events} events before "
                        f"t={horizon}; runaway simulation?")
                processed += 1
                self.now = time
                func = head[2]
                arg = head[3]
                if source is lane:
                    lane.popleft()
                elif head[4] == _LIVE:
                    heappop(heap)
                elif head[4] == _RUN:
                    index = arg[1] + 1
                    if index < arg[3]:
                        # the run's next event takes this record's place
                        arg[1] = index
                        head[0] = arg[0][index]
                        head[1] = arg[2] + index
                        heapreplace(heap, head)
                        self._run_backlog -= 1
                    else:
                        heappop(heap)
                    arg = _NO_ARG
                else:
                    heappop(heap)
                    head[4] = _DEAD         # its token now reports "ran"
                if arg is _NO_ARG:
                    func()
                else:
                    func(arg)
        finally:
            self.events_processed += processed

    def run_until(self, time: float, max_events: int = 50_000_000) -> None:
        """Process events in time order up to and including *time*."""
        self._drain(time, max_events)
        if time > self.now:
            self.now = time

    def run(self, max_events: int = 50_000_000) -> None:
        """Process every scheduled event (the calendar must drain)."""
        self._drain(_INF, max_events)

    @property
    def pending_events(self) -> int:
        return (len(self._heap) + len(self._lane) - self._cancelled
                + self._run_backlog)
