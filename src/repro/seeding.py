"""Process-wide default seed for every stochastic component.

Any run of the toolkit is reproducible from the command line: the
global ``--seed`` CLI flag (or the ``REPRO_SEED`` environment
variable) installs a default seed that every stochastic component —
the GTPN Monte Carlo simulator (:mod:`repro.gtpn.simulation`), the
kernel conversation workloads, and the fault schedules of
:mod:`repro.faults` — consults when its caller did not pass an
explicit seed.

Resolution order:

1. an explicit ``seed=`` argument at the call site;
2. the ``seed`` knob of :mod:`repro.config` (CLI ``--seed`` >
   ``REPRO_SEED``);
3. the component's historical default (``0`` for the conversation
   workload and fault schedules, ``None`` — system entropy — for the
   Monte Carlo simulator), so behaviour without the flag is unchanged.
"""

from __future__ import annotations

from repro import config


def resolve_seed(explicit: int | None,
                 fallback: int | None = None) -> int | None:
    """Resolve the seed a component should use.

    ``explicit`` (a caller-supplied argument) wins; otherwise the
    process-wide default; otherwise *fallback*, which preserves each
    component's historical default behaviour.
    """
    if explicit is not None:
        return explicit
    configured = config.get("seed")
    if configured is not None:
        return configured
    return fallback
