"""``repro serve`` end to end on toy experiments: exit status,
exactly one execution per unique id, and the printed ledger."""

from __future__ import annotations

from repro.cli import main
from repro.experiments import temporary_experiment

from tests.service.conftest import ToyTracker, make_toy

LEDGER = ("executed", "failed", "coalesced", "store_hits", "rejected",
          "inline")


def _printed_stats(out: str) -> dict[str, str]:
    """The ``--stats`` block as name -> printed value."""
    block = out.split("service stats:", 1)[1]
    return dict(line.split(None, 1) for line in block.strip().splitlines())


def test_serve_repeated_batch_executes_each_id_once(capsys):
    first, second = ToyTracker(), ToyTracker()
    with temporary_experiment(make_toy("toy-a", tracker=first)), \
            temporary_experiment(make_toy("toy-b", tracker=second)):
        status = main(["serve", "toy-a", "toy-b", "--repeat", "3",
                       "--stats"])
    out = capsys.readouterr().out
    assert status == 0
    assert len(first.runs) == 1 and len(second.runs) == 1
    stats = _printed_stats(out)
    counts = {name: int(stats[name]) for name in ("submitted",) + LEDGER}
    assert counts["submitted"] == 6
    assert counts["executed"] == 2
    assert counts["submitted"] == sum(counts[name] for name in LEDGER)
