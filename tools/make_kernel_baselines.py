"""Regenerate the frozen kernel-stats baselines.

Writes ``tests/data/baseline_kernel_<name>.json`` for every workload in
``tests/kernel_baseline_workloads.py``, recording per-batch
``KernelStats`` / ``GpmaUpdateStats`` and signed match deltas of the
fixed-seed serving runs. Run ONLY when the modeled cost itself is
*meant* to change — the whole point of the fixtures is that host-side
rewrites (level-stepped DFS, pooling, vectorization) replay them byte
for byte on both execution arms.

Usage: PYTHONPATH=src python tools/make_kernel_baselines.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from kernel_baseline_workloads import WORKLOADS, run_workload  # noqa: E402


def main() -> None:
    data_dir = ROOT / "tests" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        record = run_workload(name, vectorized=True)
        # sanity: both arms must already agree before freezing
        assert record == run_workload(name, vectorized=False), name
        payload = {"workload": name, "record": record}
        path = data_dir / f"baseline_kernel_{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        n_matches = sum(
            len(q["positives"]) + len(q["negatives"])
            for b in record
            for q in b["queries"].values()
        )
        steals = sum(
            blk["steals"]
            for b in record
            for q in b["queries"].values()
            for blk in q["kernel_stats"]["blocks"]
        )
        print(f"wrote {path} ({len(record)} batches, {n_matches} matches, {steals} steals)")


if __name__ == "__main__":
    main()
