"""Tasks and their three states (section 4.4).

A task is *computing* when executing or ready on the host,
*communicating* when its request is being processed by the IPC kernel
(message coprocessor), and *stopped* while waiting for a message or a
reply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import KernelError


class TaskState(enum.Enum):
    COMPUTING = "computing"
    COMMUNICATING = "communicating"
    STOPPED = "stopped"


#: Allowed successors of each state.  Kept on the members themselves so
#: the per-transition check is an identity scan of a short tuple, with
#: no enum hashing.
TaskState.COMPUTING.successors = (TaskState.COMMUNICATING,)
TaskState.COMMUNICATING.successors = (TaskState.STOPPED,
                                      TaskState.COMPUTING)
TaskState.STOPPED.successors = (TaskState.COMPUTING,)
_STOPPED = TaskState.STOPPED


@dataclass(slots=True)
class TaskStats:
    """Per-task counters maintained by the kernel."""

    sends: int = 0
    receives: int = 0
    replies: int = 0
    round_trips: int = 0
    failed_round_trips: int = 0
    compute_time: float = 0.0
    stopped_since: float = 0.0
    stopped_time: float = 0.0


@dataclass(slots=True)
class Task:
    """A unit of execution bound to one node (static assignment,
    section 4.2.3)."""

    name: str
    node_name: str
    state: TaskState = TaskState.COMPUTING
    priority: int = 0
    stats: TaskStats = field(default_factory=TaskStats)

    def transition(self, new_state: TaskState, now: float = 0.0) -> None:
        state = self.state
        if new_state not in state.successors:
            raise KernelError(
                f"task {self.name}: illegal state transition "
                f"{state.value} -> {new_state.value}")
        if new_state is _STOPPED:
            self.stats.stopped_since = now
        elif state is _STOPPED:
            stats = self.stats
            stats.stopped_time += now - stats.stopped_since
        self.state = new_state

    def __repr__(self) -> str:
        return f"Task({self.name!r}@{self.node_name}, {self.state.value})"
