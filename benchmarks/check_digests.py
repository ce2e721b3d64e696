"""Gate the reproduced figures on frozen digests of their texts.

Runs each script listed in ``digests.json`` (its ``run_experiment``) at
the recorded ``REPRO_BENCH_SCALE`` with the other knobs at their
defaults, and compares the sha256 of the rendered text to the frozen
one. Exits non-zero on any difference, printing the new text and its
digest, so a host-side change cannot move a reproduced number
unnoticed. A change that moves model seconds on purpose writes the
printed digests into ``digests.json`` and names the moved tables in
CHANGES.md.

Usage (from ``benchmarks/``)::

    PYTHONPATH=../src python check_digests.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def main() -> int:
    frozen = json.loads(DIGESTS.read_text())
    # the knobs are read once, when ``common`` is first imported
    os.environ["REPRO_BENCH_SCALE"] = str(frozen["scale"])
    for knob in ("REPRO_BENCH_QUERIES", "REPRO_BENCH_RATE"):
        os.environ.pop(knob, None)
    sys.path.insert(0, str(DIGESTS.parent))
    failed = 0
    for script, want in frozen["digests"].items():
        text = importlib.import_module(script).run_experiment()
        got = hashlib.sha256(text.encode()).hexdigest()
        if got == want:
            print(f"{script}: {got}")
        else:
            failed += 1
            print(f"{script}: {got} differs from the frozen {want}:\n{text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
