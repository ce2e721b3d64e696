"""Closed-loop serving benchmark with host-drift normalization.

One client submits the next update batch only after the previous
batch's report returns. Each workload (see ``workloads.py`` and the
README beside this file) runs through the public ``MatchingService`` /
``ShardedMatchingService`` API::

    python3 servebench/run.py --workload lj_serving --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer spans of ``spans.py`` on every second cycle of the window and
prints the per-layer metrics. Every timed interval is normalized by
the host probe of ``probe.py``. The last line of standard output is one
JSON object; the lines before it, each starting with ``#``, are
diagnostics (raw wall, probe spread, digest, tracing overhead).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
from contextlib import nullcontext
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: the seed whose modeled-stats digest is frozen in ``digests.json``
DEFAULT_SEED = 1
#: set-up is timed this many times at least, and more while the budget lasts
SETUP_MIN_REPS = 5
SETUP_BUDGET_S = 2.0
#: batches a tail percentile must leave beyond it
TAIL_BEYOND = 10


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it:
    ``(value, percentile)``. With ``n`` samples that is the
    ``(n - beyond)``-th smallest, at percentile ``100 (n - beyond) / n``."""
    n = len(values)
    if n < 2 * beyond:
        raise ValueError(
            f"{n} batches are too few for a tail above the median; run more --seconds"
        )
    return sorted(values)[n - 1 - beyond], 100.0 * (n - beyond) / n


def _proc_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def worker_cpu_s() -> dict[int, float]:
    """User + system CPU seconds of every live child process."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for child in multiprocessing.active_children():
        fields = _proc_fields(child.pid)
        out[child.pid] = (int(fields[11]) + int(fields[12])) / tick
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    kb += int(line.split()[1])
    return kb / 1024.0


def close(service) -> None:
    if service is not None and hasattr(service, "close"):
        service.close()


def _child_pids() -> list[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if _proc_fields(int(entry))[1] == me:
                    pids.append(int(entry))
            except (OSError, IndexError):
                pass  # exited while listing
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Besides service workers a failed close left behind, that is the
    multiprocessing resource tracker: publishing a shared-memory
    snapshot starts it, and left alone it outlives this process until
    it notices its pipe closed."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def modeled_digest(reports) -> str:
    """Digest of every ``KernelStats``, ``GpmaUpdateStats`` and stage
    seconds of ``reports`` — the modeled currency a host-wall change
    must leave untouched."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr(rep.gpma_stats).encode())
        h.update(repr(sorted(rep.stage_seconds.items())).encode())
        for name in sorted(rep.queries):
            h.update(name.encode())
            h.update(repr(rep.queries[name].result.kernel_stats).encode())
    return h.hexdigest()[:16]


class Served:
    """A service under load plus the checks that keep it honest."""

    def __init__(self, workload, service, clock) -> None:
        self.w = workload
        self.service = service
        self.clock = clock
        self.names = list(service.query_names)
        self.start_matches = {n: service.matches(n) for n in self.names}
        from repro.graph import CSRGraph

        self.start_arrays = CSRGraph.from_graph(workload.graph).snapshot_arrays()
        self.errors: list[str] = []

    # -- checks ------------------------------------------------------------
    def batch_ok(self, rep) -> bool:
        healthy = (
            not rep.aborted
            and not rep.rolled_back
            and rep.failure is None
            and sorted(rep.health) == sorted(self.names)
            and all(h == "ok" for h in rep.health.values())
            and all(h == "ok" for h in getattr(rep, "shard_health", {}).values())
        )
        if not healthy:
            self.errors.append(f"batch not healthy: {rep.failure or rep.health}")
        if self.w.expect_no_matches and rep.total_positives + rep.total_negatives:
            self.errors.append("hub_heavy batch emitted a match")
            return False
        return healthy

    def cycle_ok(self) -> bool:
        """After a whole cycle the graph is back at its start state, the
        store is consistent, and every query holds its bootstrap set."""
        store = self.service.store
        try:
            store.check_consistency()
        except Exception as err:  # noqa: BLE001 - reported as a failed check
            self.errors.append(f"store inconsistent: {err}")
            return False
        now = store.csr_snapshot().snapshot_arrays()
        if any(not np.array_equal(now[k], v) for k, v in self.start_arrays.items()):
            self.errors.append("graph differs from its start state after a cycle")
            return False
        for n in self.names:
            if self.service.matches(n) != self.start_matches[n]:
                self.errors.append(f"query {n} does not hold its bootstrap set")
                return False
        return True

    # -- counters ----------------------------------------------------------
    def gpu_counters(self) -> dict[str, int]:
        out = dict.fromkeys(
            ("gpu.launches", "gpu.blocks_run", "gpu.blocks_memoized", "gpu.level_steps"), 0
        )
        if not hasattr(self.service, "runtime"):  # sharded: devices live in workers
            return out
        for n in self.names:
            gpu = self.service.runtime(n).gpu
            out["gpu.launches"] += gpu.launch_count
            out["gpu.blocks_run"] += gpu.blocks_run
            out["gpu.blocks_memoized"] += gpu.blocks_memoized
            out["gpu.level_steps"] += gpu.level_steps
        return out

    @staticmethod
    def report_counters(rep) -> dict[str, float]:
        tasks = steals = 0
        for q in rep.queries.values():
            tasks += q.result.kernel_stats.tasks_completed
            steals += q.result.kernel_stats.steals
        return {
            "graph.delta_edges": rep.delta_inserted + rep.delta_deleted,
            "filtering.reencoded": rep.reencoded_vertices,
            "pma.segments_touched": rep.gpma_stats.segments_touched,
            "pma.escalations": rep.gpma_stats.escalations,
            "matching.tasks": tasks,
            "matching.steals": steals,
            "matching.matches": rep.total_positives + rep.total_negatives,
        }

    # -- load --------------------------------------------------------------
    def warm_up(self):
        """One untimed whole cycle; returns its reports."""
        reports = [self.service.process_batch(b) for b in self.w.cycle]
        ok = all([self.batch_ok(r) for r in reports]) and self.cycle_ok()
        return reports, ok

    def window(self, seconds: float, tracer=None) -> list[dict]:
        """Whole cycles until ``seconds`` pass. Batches started before
        the deadline are timed; the rest of the last cycle runs untimed
        so its end-of-cycle check still happens. A failed check marks
        every batch of its cycle failed. With a tracer, every second
        cycle runs traced, so traced and untraced batches see the same
        host drift and their difference is the tracing overhead."""
        rows: list[dict] = []
        deadline = perf_counter() + seconds
        sharded = self.w.sharded
        cycles = 0
        while perf_counter() < deadline:
            traced = tracer if cycles % 2 else None
            cycles += 1
            cycle_rows = []
            untimed_ok = True
            for pos, batch in enumerate(self.w.cycle):
                if perf_counter() >= deadline:
                    untimed_ok &= self.batch_ok(self.service.process_batch(batch))
                    continue
                gpu0 = self.gpu_counters() if traced else None
                cpu0 = worker_cpu_s() if traced and sharded else None
                with traced if traced else nullcontext():
                    rep, raw, norm = self.clock.time(self.service.process_batch, batch)
                row = {
                    "pos": pos, "ops": len(batch), "raw": raw, "norm": norm,
                    "ok": self.batch_ok(rep), "traced": traced is not None,
                }
                if traced:
                    scale = norm / raw
                    row["layers"] = {k: v * scale for k, v in traced.take().items()}
                    row["counters"] = self.report_counters(rep)
                    gpu1 = self.gpu_counters()
                    row["counters"].update({k: gpu1[k] - gpu0[k] for k in gpu1})
                    if sharded:
                        cpu1 = worker_cpu_s()
                        row["worker_cpu"] = [
                            (cpu1[p] - cpu0.get(p, 0.0)) * scale for p in cpu1
                        ]
                cycle_rows.append(row)
            if not (self.cycle_ok() and untimed_ok):
                for row in cycle_rows:
                    row["ok"] = False
            rows.extend(cycle_rows)
            self.clock.refresh()
        return rows


def throughput(rows, key="norm") -> float:
    return sum(r["ops"] for r in rows) / sum(r[key] for r in rows)


def median_latency(rows) -> float:
    """Median batch seconds, taken per position in the cycle and averaged
    over positions. Insert-heavy and delete-heavy batches form separate
    latency clusters; a pooled median would sit in the gap between them
    and jump with the count on either side."""
    by_pos: dict[int, list[float]] = {}
    for r in rows:
        by_pos.setdefault(r["pos"], []).append(r["norm"])
    return statistics.fmean(statistics.median(v) for v in by_pos.values())


def layer_metrics(rows: list[dict]) -> dict[str, float]:
    """Per traced batch: mean normalized self ms of every layer and mean
    of every counter."""
    from spans import SPANS

    n = len(rows)
    out = {metric: 0.0 for _, _, metric in SPANS}
    for row in rows:
        for k, v in row["layers"].items():
            out[k] += v * 1000.0 / n
    # bootstrap is set-up work, reported per construction by the caller
    out.pop("matching.bootstrap_ms")
    for k in rows[0]["counters"]:
        out[k] = sum(r["counters"][k] for r in rows) / n
    blocks = out["gpu.blocks_run"] + out["gpu.blocks_memoized"]
    out["gpu.memo_frac"] = out["gpu.blocks_memoized"] / blocks if blocks else 0.0
    cpu = [r["worker_cpu"] for r in rows if r.get("worker_cpu")]
    if cpu:
        per_worker = [sum(c) for c in zip(*cpu)]
        out["sharded.worker_cpu_ms"] = sum(per_worker) * 1000.0 / n
        mean = sum(per_worker) / len(per_worker)
        out["sharded.skew"] = max(per_worker) / mean if mean else 0.0
    else:
        out["sharded.worker_cpu_ms"] = 0.0
        out["sharded.skew"] = 0.0
    selfs = sum(sum(r["layers"].values()) for r in rows)
    out["trace.coverage_pct"] = 100.0 * selfs / sum(r["norm"] for r in rows)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    from probe import NOMINAL_S, HostProbe, ProbedClock
    from spans import LayerTracer
    from workloads import build

    w = build(name, seed)
    clock = ProbedClock(HostProbe())
    tracer = LayerTracer() if traced else None
    setup: list[float] = []
    bootstrap_ms: list[float] = []
    service = None
    try:
        budget = perf_counter() + SETUP_BUDGET_S
        while len(setup) < SETUP_MIN_REPS or perf_counter() < budget:
            with tracer if tracer else nullcontext():
                service, raw, norm = clock.time(w.make_service)
            setup.append(norm)
            if tracer:
                spent = tracer.take().get("matching.bootstrap_ms", 0.0)
                bootstrap_ms.append(spent * 1000.0 * norm / raw)
            close(service)
            service = None
            clock.refresh()
        # the served instance is built untraced, so forked workers never
        # inherit the span wrappers
        service = w.make_service()
        served = Served(w, service, clock)
        warm, warm_ok = served.warm_up()
        model_ms = 1000.0 * sum(r.total_seconds for r in warm) / len(warm)
        digest = modeled_digest(warm) if seed == DEFAULT_SEED else None
        gc.collect()
        clock.refresh()
        timed = served.window(seconds, tracer)
        rss = peak_rss_mb()
    finally:
        close(service)
    errors = list(served.errors)
    if not warm_ok:
        errors.append("warm-up cycle failed its checks")
    frozen = json.loads((HERE / "digests.json").read_text())
    if digest is not None and frozen.get(name) != digest:
        errors.append(f"modeled digest {digest} != frozen {frozen.get(name)}")

    plain = [r for r in timed if not r["traced"]]
    rows = [r for r in timed if r["traced"]] if traced else timed
    ok = sum(r["ok"] for r in timed)
    norm = [r["norm"] for r in rows]
    probes = clock.probes
    diag = [
        f"workload {name} seed {seed}: {len(rows)} timed batches "
        f"({len(w.cycle)} per cycle), {sum(r['ops'] for r in rows)} update ops",
        f"updates_per_s normalized {throughput(rows):.1f}, raw wall {throughput(rows, 'raw'):.1f}",
        f"probe ms min/median/max {1000 * min(probes):.2f}/"
        f"{1000 * statistics.median(probes):.2f}/{1000 * max(probes):.2f} "
        f"over {len(probes)} probes (nominal {1000 * NOMINAL_S:.1f})",
        f"setup_s median of {len(setup)} constructions",
        f"modeled digest {digest or 'not checked (not the default seed)'}",
    ]
    diag += [f"ERROR {e}" for e in dict.fromkeys(errors)]
    if traced:
        if not rows:
            raise ValueError("no cycle ran traced; run more --seconds")
        metrics = layer_metrics(rows)
        metrics["matching.bootstrap_ms"] = statistics.median(bootstrap_ms)
        metrics["trace.overhead_pct"] = 100.0 * (throughput(plain) / throughput(rows) - 1.0)
        metrics["host.probe_ms"] = 1000.0 * statistics.median(probes)
        metrics["host.raw_updates_per_s"] = throughput(rows, "raw")
        diag.append(
            f"tracing overhead {metrics['trace.overhead_pct']:.1f}%: "
            f"untraced {throughput(plain):.1f} vs traced {throughput(rows):.1f} updates/s"
        )
    else:
        tail_s, tail_pct = tail(norm)
        diag.append(f"batch_ms.tail is p{tail_pct:.1f} of {len(norm)} batches")
        metrics = {
            "updates_per_s": throughput(rows),
            "batch_ms.p50": 1000.0 * median_latency(rows),
            "batch_ms.tail": 1000.0 * tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "ok_frac": ok / len(timed),
            "model_ms_per_batch": model_ms,
        }
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not errors and ok == len(timed),
        "attempted": len(timed),
        "failed": len(timed) - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, diag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"servebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, diag = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    for line in diag:
        print("#", line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
