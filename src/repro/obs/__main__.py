"""Validate a JSONL trace from the command line.

Usage::

    python -m repro.obs trace.jsonl [trace2.jsonl ...]

Exits 0 when every file passes schema validation
(:func:`repro.obs.export.validate_jsonl`), 1 with the first error
otherwise.  The CI trace job runs this on the trace every push
produces.
"""

from __future__ import annotations

import sys

from repro.errors import ReproError
from repro.obs.export import validate_jsonl


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs TRACE.jsonl [...]",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            header = validate_jsonl(path)
        except ReproError as error:
            print(f"invalid: {error}", file=sys.stderr)
            return 1
        print(f"{path}: valid ({header['schema']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
