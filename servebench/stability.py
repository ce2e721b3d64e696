"""Run-to-run spread of the end-to-end metrics: the evidence behind the
bounds in ``BENCHMARK.json``.

Runs ``run.py`` once per seed per workload, one run at a time, and
prints for every metric the median and the interquartile range
(``statistics.quantiles(values, n=4)``) as a share of the median::

    python3 servebench/stability.py --workloads hub_heavy lj_ingest --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0
    for name in args.workloads:
        runs, walls = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                worst = 1
                continue
            runs.append(json.loads(lines[-1]))
            probe = next((ln for ln in lines if ln.startswith("# probe")), "")
            values = ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
                if k in ("updates_per_s", "batch_ms.p50", "batch_ms.tail", "setup_s")
            )
            print(f"{name} seed {seed} ({walls[-1]:.0f} s): {values}; {probe[2:]}", flush=True)
        if not runs:
            continue
        print(f"\n{name}: {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{args.seconds} s each, run wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"| metric | unit | median | IQR / median | bound |")
        print(f"| --- | --- | --- | --- | --- |")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, iqr = spread(values)
            bound = bounds.get(metric)
            print(f"| {metric} | {runs[0]['metrics'][metric]['unit']} | {med:.6g} | "
                  f"{100 * iqr:.1f}% | {'' if bound is None else f'{100 * bound:.0f}%'} |")
    return worst


if __name__ == "__main__":
    sys.exit(main())
