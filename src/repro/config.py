"""One home for run configuration: CLI flag > environment > default.

Every knob the toolkit reads from the outside world is one row of
:data:`KNOBS` — name, CLI flag, environment variable, parser, default,
help and *role* — and everything else is derived from that table: the
CLI's global flags (:mod:`repro.cli`), the keywords of the front doors
(:mod:`repro.api`), :func:`overrides`, :func:`ambient_config`, the
:func:`resolved_config` snapshot and the service's job key
(:func:`repro.service.jobs.build_job_key`).  A knob's role says what it
may change: ``structure`` (which system is evaluated) and ``timing``
(stochastic and load parameters) knobs form the two halves of a job
key, in table order; ``execution`` knobs change how a run is carried
out, never its values, and stay out of the key.

A CLI-level value (:func:`set_cli`, or an :func:`overrides` block)
beats the environment, which beats the default.  Values are parsed when
set or read, so junk fails loudly with a
:class:`~repro.errors.ConfigError` naming the flag, keyword or variable
it came from — a user who exported a variable wanted an effect, and a
silent fallback hides the typo.  The traffic knobs default to *unset*:
each open-arrival entry point keeps its own documented default, and a
set knob overrides all of them at once.

:func:`resolved_config` snapshots what applies *and where each value
came from* (``<name>`` and ``<name>_source`` per knob); every trace
header (:mod:`repro.obs.export`) and ``BENCH_perf.json`` record
carries it, so a recorded run says how it was configured.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError

# ----------------------------------------------------------------------
# parsers: (raw value, source name) -> value, or ConfigError naming it
# ----------------------------------------------------------------------


def _positive_int(value, source: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        result = value
    else:
        try:
            result = int(str(value).strip())
        except ValueError:
            result = 0
    if result < 1:
        raise ConfigError(
            f"{source} must be a positive integer, got {value!r}")
    return result


def _positive_float(value, source: str) -> float:
    try:
        result = float(str(value).strip())
    except ValueError:
        result = math.nan
    if not math.isfinite(result) or result <= 0.0:
        raise ConfigError(
            f"{source} must be a positive number, got {value!r}")
    return result


def _integer(value, source: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return int(str(value).strip())
    except ValueError:
        raise ConfigError(
            f"{source} must be an integer, got {value!r}") from None


def _as_is(value, _source: str):
    return value


#: Recognized software synchronization primitives for the architecture
#: II queue path.  ``tas`` is the thesis's test-and-set spinlock
#: baseline (Table 6.1's 60 us + 14 cycles); ``cas``, ``llsc`` and
#: ``htm`` re-cost the same section 5.1 queue algorithms under
#: compare-and-swap, load-linked/store-conditional and speculative
#: (HTM-style) synchronization.  The architecture II model parameters
#: are re-derived from the selected primitive's microcoded cost row, so
#: this knob changes computed values (role ``structure``).
VALID_SYNCS = ("tas", "cas", "llsc", "htm")


def normalize_sync(value, source: str = "sync") -> str:
    """Canonical sync-primitive name, or :class:`ConfigError`."""
    name = str(value).strip().lower().replace("-", "").replace("/", "")
    if name in VALID_SYNCS:
        return name
    raise ConfigError(
        f"{source} must be one of {', '.join(VALID_SYNCS)}, "
        f"got {value!r}")


def _repr_or_none(value):
    return None if value is None else repr(value)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

ROLES = ("structure", "timing", "execution")


@dataclass(frozen=True)
class Knob:
    """One run knob: where it is read from, how, and what it changes."""

    name: str                   # keyword and snapshot key
    flag: str | None            # global CLI flag, None = none
    env: str | None             # environment variable, None = none
    parse: Callable[[Any, str], Any]
    default: Any
    role: str                   # one of ROLES
    help: str
    #: the value's form in the snapshot and the job key
    render: Callable[[Any], Any] = lambda value: value


#: Every run knob, in job-key order within each role.
KNOBS: tuple[Knob, ...] = (
    Knob("sync", "--sync", "REPRO_SYNC", normalize_sync, "tas",
         "structure",
         "synchronization primitive costing the architecture II "
         "software queue path: tas, cas, llsc, or htm (default tas; "
         "architectures I/III/IV are unaffected)"),
    Knob("fault_plan", None, None, _as_is, None, "structure",
         "fault plan every kernel-simulator system in the run is "
         "built under", render=_repr_or_none),
    Knob("queue_limit", "--queue-limit", "REPRO_QUEUE_LIMIT",
         _positive_int, None, "structure",
         "bounded MP ingress queue length for open-arrival runs "
         "(default: each experiment's own)"),
    Knob("seed", "--seed", "REPRO_SEED", _integer, None, "timing",
         "default seed for every stochastic component (default: each "
         "component's own)"),
    Knob("duration", "--duration", "REPRO_DURATION", _positive_float,
         None, "timing",
         "open-arrival measurement window in simulated us (default: "
         "each experiment's own)"),
    Knob("arrival_rate", "--arrival-rate", "REPRO_ARRIVAL_RATE",
         _positive_float, None, "timing",
         "offered arrival rate in messages per simulated ms (default: "
         "each experiment's own)"),
    Knob("deadline", "--deadline", "REPRO_DEADLINE", _positive_float,
         None, "timing",
         "per-message deadline in simulated us; completions past it "
         "count as deadline misses (default none)"),
    Knob("jobs", "--jobs", "REPRO_JOBS", _positive_int, 1, "execution",
         "worker processes for sweep experiments (default 1, serial); "
         "results are identical at any N"),
)

_BY_NAME = {spec.name: spec for spec in KNOBS}


def knob(name: str) -> Knob:
    """The table row for *name*, or :class:`ConfigError`."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(
            f"unknown knob {name!r}; valid: {', '.join(_BY_NAME)}"
        ) from None


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------

#: CLI-level values, parsed (``None`` = not set).
_cli: dict[str, Any] = dict.fromkeys(_BY_NAME)

#: Guards the scoped-override stack *and* every mutation of ``_cli``
#: made by :func:`overrides`, so a concurrent :func:`ambient_config`
#: reader always sees either the pristine state or a consistent
#: savepoint — never a half-installed override set.
_scoped_lock = threading.Lock()

#: Savepoints of every active :func:`overrides` block, outermost
#: first.  The bottom entry is the configuration *outside* all scoped
#: overrides — what :func:`ambient_config` resolves against.
_scoped_stack: list[dict[str, Any]] = []


def _resolve(spec: Knob, cli_value) -> tuple[Any, str]:
    if cli_value is not None:
        return cli_value, "cli"
    raw = os.environ.get(spec.env, "") if spec.env else ""
    if raw.strip():
        return spec.parse(raw, spec.env), "env"
    return spec.default, "default"


def get(name: str):
    """The resolved value of one knob: CLI > environment > default."""
    return _resolve(knob(name), _cli[name])[0]


def set_cli(name: str, value) -> None:
    """Install a CLI-level value, parsed now; errors name the flag.

    ``None`` reverts the knob to environment/default.
    """
    spec = knob(name)
    _cli[name] = None if value is None \
        else spec.parse(value, spec.flag or name)


def parse(knobs: dict) -> dict:
    """Check keyword knobs against the table and parse them now.

    A ``None`` value means "whatever the surrounding configuration
    says" and is dropped; an unknown name or a malformed value raises
    :class:`ConfigError` naming the keyword.
    """
    parsed = {}
    for name, value in knobs.items():
        spec = knob(name)
        if value is not None:
            parsed[name] = spec.parse(value, name)
    return parsed


def reset() -> None:
    """Drop every CLI-level value (tests and fresh CLI entry)."""
    _cli.update(dict.fromkeys(_cli))


@contextmanager
def overrides(**knobs):
    """Apply CLI-level values for one block, restoring on exit.

    ``repro.api`` runs every experiment under this, so its keywords
    behave exactly like the matching CLI flags (same precedence, same
    parsing) without leaking into the rest of the process.  A knob not
    passed is left untouched — including a value already installed by
    the CLI; an unknown name raises :class:`ConfigError`.
    """
    with _scoped_lock:
        saved = dict(_cli)
        _scoped_stack.append(saved)
    try:
        with _scoped_lock:
            for name, value in knobs.items():
                set_cli(name, value)
        yield
    finally:
        with _scoped_lock:
            _cli.update(saved)
            _scoped_stack.pop()


def ambient_config() -> dict:
    """Every knob's value for a submission made *now*, immune to
    scoped overrides installed by a concurrently running execution.

    :func:`overrides` is how ``repro.api._execute_run`` applies one
    run's keywords process-globally for the run's duration; a reader
    resolving knobs through :func:`get` meanwhile would absorb that
    run's values.  This resolves against the bottom of the
    scoped-override stack — the CLI/env state outside every active
    ``overrides`` block — under the same lock the installs take, so
    the snapshot is always consistent.  Used by
    :func:`repro.service.jobs.build_job_key` so concurrent submissions
    never inherit a running job's parameters into their identity.
    """
    with _scoped_lock:
        cli = dict(_scoped_stack[0] if _scoped_stack else _cli)
    return {spec.name: _resolve(spec, cli[spec.name])[0]
            for spec in KNOBS}


def resolved_config() -> dict:
    """Snapshot the configuration a run starting now would use:
    ``<name>`` and ``<name>_source`` (``"cli"``, ``"env"`` or
    ``"default"``) for every knob."""
    snapshot: dict = {}
    for spec in KNOBS:
        value, source = _resolve(spec, _cli[spec.name])
        snapshot[spec.name] = spec.render(value)
        snapshot[f"{spec.name}_source"] = source
    return snapshot
