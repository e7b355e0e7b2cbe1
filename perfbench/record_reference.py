"""Record the outputs the benchmark checks every pass against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: every point of figure-6.18,
figure-6.19 and figure-6.21, and the ``TrafficMeter.signature()`` and
event count of the ``open-bursty`` run at seed 0.  Run it only when the
program's numbers are meant to change, under default configuration.
"""

from __future__ import annotations

import json
import os

import workload

FIGURES = ("figure-6.18", "figure-6.19", "figure-6.21")
SEED = 0


def main() -> None:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    from repro import api
    figures = {experiment_id: api.run_experiment(experiment_id).values
               for experiment_id in FIGURES}
    result = workload.run_bursty(workload.bursty_process(), SEED)
    reference = {
        "figures": workload.jsonable(figures),
        "open_bursty": {
            "seed": SEED,
            "events_processed": result.events_processed,
            "signature": workload.jsonable(result.meter.signature()),
        },
    }
    workload.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
