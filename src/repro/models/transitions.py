"""Transition-table views of the architecture nets.

Regenerates the thesis's transition tables (6.5, 6.7-6.8, 6.10,
6.12-6.13, 6.15, 6.17-6.18, 6.20, 6.22-6.23) directly from the nets
this library builds: each row lists a transition, its deterministic
delay, and its frequency attribute in the thesis's notation.  The
published tables carried reciprocals of activity means (e.g.
``1/544.7``); because the nets are built from the same means, the
rendered frequencies match.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.gtpn.net import Net
from repro.models.local import build_local_net
from repro.models.nonlocal_client import build_nonlocal_client_net
from repro.models.nonlocal_server import build_nonlocal_server_net
from repro.models.params import Architecture, Mode


@dataclass(frozen=True)
class TransitionRow:
    """One row of a transition table."""

    name: str
    delay: str
    frequency: str
    resource: str


def transition_rows(net: Net) -> list[TransitionRow]:
    """Render every transition of *net* with its attribute vector."""
    rows = []
    for t in net.transitions:
        rows.append(TransitionRow(
            name=t.name, delay=str(t.delay), frequency=t.frequency_label,
            resource=t.resource or ""))
    return rows


#: table id -> (architecture, mode, role); role is None for local
#: nets, "client"/"server" for the split non-local models.
TRANSITION_TABLE_IDS: dict[str, tuple[Architecture, Mode, str | None]] = {
    "table-6.5": (Architecture.I, Mode.LOCAL, None),
    "table-6.7": (Architecture.I, Mode.NONLOCAL, "client"),
    "table-6.8": (Architecture.I, Mode.NONLOCAL, "server"),
    "table-6.10": (Architecture.II, Mode.LOCAL, None),
    "table-6.12": (Architecture.II, Mode.NONLOCAL, "client"),
    "table-6.13": (Architecture.II, Mode.NONLOCAL, "server"),
    "table-6.15t": (Architecture.III, Mode.LOCAL, None),
    "table-6.17": (Architecture.III, Mode.NONLOCAL, "client"),
    "table-6.18": (Architecture.III, Mode.NONLOCAL, "server"),
    "table-6.20": (Architecture.IV, Mode.LOCAL, None),
    "table-6.22": (Architecture.IV, Mode.NONLOCAL, "client"),
    "table-6.23": (Architecture.IV, Mode.NONLOCAL, "server"),
}


def build_model_net(architecture: Architecture, mode: Mode,
                    role: str | None, *, conversations: int = 2,
                    compute_time: float = 0.0,
                    surrogate_delay: float = 3000.0) -> Net:
    """The net whose transitions a given table describes.

    Non-local nets need a surrogate delay (S_d for the client net,
    C_d for the server net); the table's frequency entries for the
    measured activities do not depend on its value.
    """
    if mode is Mode.LOCAL:
        if role is not None:
            raise ModelError("local nets have no client/server role")
        return build_local_net(architecture, conversations,
                               compute_time)
    if role == "client":
        return build_nonlocal_client_net(architecture, conversations,
                                         surrogate_delay)
    if role == "server":
        return build_nonlocal_server_net(architecture, conversations,
                                         surrogate_delay, compute_time)
    raise ModelError(f"non-local table needs a role, got {role!r}")


def model_transition_rows(table_id: str) -> list[TransitionRow]:
    """Rows of one published transition table, from the built net."""
    try:
        architecture, mode, role = TRANSITION_TABLE_IDS[table_id]
    except KeyError:
        raise ModelError(
            f"unknown transition table {table_id!r}; known: "
            f"{sorted(TRANSITION_TABLE_IDS)}") from None
    net = build_model_net(architecture, mode, role)
    return transition_rows(net)
