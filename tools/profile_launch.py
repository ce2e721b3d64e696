"""cProfile harness for the non-DFS launch machinery.

``servebench/`` times ``VirtualGPU.launch`` as one opaque layer;
this tool breaks the serving loop open with cProfile so the
*machinery* share — the per-phase edge index (``PhaseEdges``), the
host's shared working-items and entry passes (``working_items``,
``record_entries``), the idle-scan handler, the filler-block templates (one memoized ``BlockStats`` per filler span),
scheduler bookkeeping — is attributable function by function, next to
the genuine candidate-generation work.

Usage::

    PYTHONPATH=src python tools/profile_launch.py [--scale 0.3]
        [--batches 2] [--queries 3] [--top 25] [--sort cumtime]
        [--dataset LJ]

``--dataset hub`` serves servebench's ``hub_heavy`` shape instead: the
graph, insert batch and 5-cycle of ``repro.bench.workloads.hub_schedule``,
the batch and its inverse alternating.

First serves the stream once without the profiler and prints the host
cost of the DFS control path: µs per level step (``gpu.exec`` wall ÷
the devices' ``level_steps``), µs per active-stealing idle-handler
call (the handler's own wall ÷ its calls), the share of scheduled
blocks whose idle probes were priced in closed form (lone-worker
blocks, and how many of them handed pollers back to the heap to
steal) and µs per inline Gen-Candidates call (``_entry_candidates``
plus ``_level_children`` wall ÷ their calls), with the frames generated
inline by candidate count (1, 2–9, ≥10), so per-step overhead shows
without cProfile. Per batch it prints the wall of the host's three
shared passes — the candidate-stack refresh, the working-items pass
and the entry and level pass over both sign phases — and the number of
query groups the working-items pass resolves against the number of
distinct label keys among them; the rows the array Gen-Candidates
primitive planned (``level_batch._plan_requests``) against the rows it
narrowed (``_expand_requests``), with host µs per narrowed request, per
caller — the entry pass (level 2), the level pass (every deeper level,
``entry_pass._record_level``; rows planned past the narrowed ones
belong to frames the bound left out), an inline item entry
(``_entry_candidates``), an inline frame and a fused sibling class
(``_level_children`` over one frame or several); and the level pass's
wall with,
for item entries and each DFS level (2 … n−2), the generations the
pass recorded against those generated inline (frames past the pass's
bound and boundary-permuted items); and the DFS-cursor resumptions
next to the oracle's level steps (``gpu.level_steps``), the run-ahead
runs (a cursor consuming a frame's next candidates after an empty
generation, up to its block's observer horizon), the generations they
covered and the horizon queries that found no room. It also prints whether serving
materialized the store's dict mirror (it should not: the serving paths
read the CSR snapshot and per-vertex snapshot rows).
Then serves it again under cProfile and prints the per-layer self
times of that run (``servebench/spans.py``'s
``LayerTracer``: ``gpu.exec_ms`` is the wall inside ``VirtualGPU.launch``),
then, per batch, the pickled size and dump/load time of its per-query
results (the payload a sharded worker ships back on every reply),
and the cProfile table restricted to repro code (plus numpy entry
points). No JSON artifact: this is an investigation tool, not a CI gate
(end-to-end serving numbers come from ``servebench/run.py``).

Write-path profile (store commit alone: GPMA, CSR splice, re-encoding —
the shape of servebench's ``lj_ingest``)::

    PYTHONPATH=src python tools/profile_launch.py --queries 0 --scale 4.0 --rate 0.10

Reading the cProfile table: for numpy's dispatcher-wrapped C functions
(``lexsort``, ``concatenate``, ``bincount``, ...) cProfile records no
row for the C work — only a near-zero row for the dispatcher stub in
``numpy/_core/multiarray.py`` — so their time lands in the *caller's*
``tottime``. A large self time on an array function usually means one
of those calls, not Python overhead: a 41 ms ``lexsort`` once showed up
only as the CSR ``apply_delta``'s self time. Cross-check with the layer
self times above.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pickle
import pstats
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.bench.harness import BENCH_PARAMS  # noqa: E402
from repro.bench.workloads import holdout_stream, hub_schedule  # noqa: E402
from repro.filtering import CandidateStack  # noqa: E402
from repro.graph import load_dataset  # noqa: E402
from repro.matching import WBMConfig, find_matches  # noqa: E402
from repro.matching.entry_pass import _record_level, entry_pass  # noqa: E402
from repro.matching.level_batch import (  # noqa: E402
    _entry_candidates,
    _expand_requests,
    _level_children,
    _plan_requests,
)
from repro.matching.dfs import _DfsLevelCursor  # noqa: E402
from repro.matching.stealing import _active_idle_handler  # noqa: E402
from repro.service import MatchingService  # noqa: E402
from repro.service.matching_service import InProcessHost  # noqa: E402
from servebench.spans import LayerTracer  # noqa: E402
from servebench.workloads import make_cycle  # noqa: E402


def collect_queries(graph, count: int, max_static: int = 200):
    """Selective serving queries (same policy as the kernel benches)."""
    from repro.bench.workloads import extract_query
    from repro.errors import BenchmarkError

    out, seed = [], 29
    while len(out) < count and seed < 2000:
        for kind in ("dense", "sparse", "tree"):
            try:
                q = extract_query(graph, 6, kind, seed=seed)
            except BenchmarkError:
                continue
            if len(find_matches(q, graph, limit=max_static)) < max_static:
                out.append(q)
            if len(out) >= count:
                break
        seed += 97
    return out


def serve(g0, batches, queries, after_batch=None) -> tuple[MatchingService, list]:
    """Serve ``batches``; return the service and their
    ``ServiceBatchReport``s. ``after_batch(service)`` runs after each."""
    service = MatchingService(g0, params=BENCH_PARAMS, vectorized=True)
    for i, q in enumerate(queries):
        service.register_query(q, WBMConfig(), name=f"q{i}", bootstrap=False)
    reports = []
    for batch in batches:
        reports.append(service.process_batch(batch))
        if after_batch is not None:
            after_batch(service)
    return service, reports


def _timed(fn, tally: list):
    """``fn`` wrapped to add one call and its wall to ``tally``
    (``[calls, seconds]``)."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tally[0] += 1
            tally[1] += time.perf_counter() - t0

    return wrapper


@contextmanager
def patched(fn, replacement):
    """Install ``replacement`` for ``fn`` while active, in every loaded
    ``repro`` module whose global ``fn.__name__`` is ``fn``: its
    defining module and each module that imported it by name, so every
    binding a call site reads. Fails unless the defining module
    (``fn.__module__``) still holds ``fn`` under that name, so a moved,
    renamed or already wrapped target stops the run instead of printing
    zero calls."""
    name = fn.__name__
    assert getattr(sys.modules[fn.__module__], name, None) is fn, f"{fn.__module__}.{name} moved"
    modules = [
        module
        for key, module in list(sys.modules.items())
        if (key == "repro" or key.startswith("repro.")) and getattr(module, name, None) is fn
    ]
    for module in modules:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module in modules:
            setattr(module, name, fn)


@contextmanager
def timed_idle_handlers():
    """Count and time every active-stealing idle-handler call made
    while installed; yields ``[calls, seconds]``."""
    tally = [0, 0.0]
    make_handler = _active_idle_handler
    with patched(make_handler, lambda sched, env: _timed(make_handler(sched, env), tally)):
        yield tally


@contextmanager
def timed_methods(*targets):
    """Count and time every call of the ``(class, method name)``
    targets while installed; yields one ``[calls, seconds]`` per
    target."""
    tallies = [[0, 0.0] for _ in targets]
    originals = [(cls, name, getattr(cls, name)) for cls, name in targets]
    for (cls, name, fn), tally in zip(originals, tallies):
        setattr(cls, name, _timed(fn, tally))
    try:
        yield tallies
    finally:
        for cls, name, fn in originals:
            setattr(cls, name, fn)


@contextmanager
def run_ahead_counts():
    """Count DFS run-ahead while installed. Yields ``[queries, runs,
    generations, no_room]``: the horizon queries a cursor made after
    an empty generation, the runs among them (each performed at least
    one further resumption), the resumptions (one generation each)
    the runs covered, and the queries whose horizon left no room."""
    counts = [0, 0, 0, 0]
    run_ahead = _DfsLevelCursor._run_ahead

    def counting(cursor, *args):
        k = run_ahead(cursor, *args)
        counts[0] += 1
        counts[1] += k > 0
        counts[2] += k
        counts[3] += k == 0
        return k

    _DfsLevelCursor._run_ahead = counting
    try:
        yield counts
    finally:
        _DfsLevelCursor._run_ahead = run_ahead


def run_ahead_report(service, counts, seen: list) -> None:
    """Print one batch's DFS-cursor resumptions next to the oracle's
    level steps (``gpu.level_steps``, which counts the resumptions runs
    covered too), its run-ahead runs, the generations they covered and
    the horizon queries that found no room (growth since the previous
    batch)."""
    steps = sum(service.runtime(n).gpu.level_steps for n in service.query_names)
    now = [steps, *counts]
    grown = [a - b for a, b in zip(now, seen or [0] * len(now))]
    seen[:] = now
    steps, _, runs, generations, no_room = grown
    print(
        f"  batch {service.batches_processed - 1}: {steps - generations} DFS-cursor "
        f"resumptions for {steps} oracle level steps; {runs} run-ahead runs covered "
        f"{generations} generations; {no_room} horizon queries found no room"
    )


def shared_pass_report(service, tallies, seen: list) -> None:
    """Print one batch's shared-pass walls (the tallies' growth since
    the previous batch) and its groups against distinct label keys."""
    (n_ref, ref_s), (n_items, items_s), (n_entry, entry_s) = (
        (t[0] - s[0], t[1] - s[1]) for t, s in zip(tallies, seen)
    )
    seen[:] = [list(t) for t in tallies]
    keys = [
        key
        for name in service.query_names
        for _, key in service.runtime(name).plan.label_keys(service.runtime(name).query)
    ]
    print(
        f"  batch {service.batches_processed - 1}: "
        f"shared refresh {ref_s * 1e3:.2f}ms ({n_ref} calls), "
        f"shared working items {items_s * 1e3:.2f}ms ({n_items} passes), "
        f"entry and level pass {entry_s * 1e3:.2f}ms ({n_entry} passes), "
        f"{len(keys)} groups over {len(set(keys))} distinct keys"
    )


#: callers of the array primitive (``_plan_requests`` then
#: ``_expand_requests``), as ``narrowing_report`` prints them
NARROWERS = ("entry pass", "level pass", "inline entry", "inline frame", "fused class")
#: the candidate-count buckets of frames generated inline
FRAME_SIZES = ("1", "2-9", ">=10")


@contextmanager
def gen_coverage():
    """Count and time Gen-Candidates while installed. Yields ``(tally,
    coverage, narrowed, level_pass, sizes)``: ``tally`` is ``[calls,
    seconds]`` of the inline ``_entry_candidates`` and
    ``_level_children`` calls; ``coverage`` maps ``"entries"`` (item
    entry generations) and each DFS level (a frame's children
    generation there) to ``[recorded, inline]``: those the host's level
    pass recorded, and those generated inline — entries by
    ``_entry_candidates``, frames by ``_level_children``;
    ``narrowed`` maps each ``NARROWERS`` caller to ``[rows planned,
    rows narrowed, seconds]`` of the array primitive: the requests its
    ``_plan_requests`` calls planned, those its ``_expand_requests``
    calls narrowed and the wall of both (the entry pass's level 2, the
    level pass's deeper levels ``_record_level``, an inline entry, a
    ``_level_children`` call over one frame or over a fused sibling
    class); ``level_pass`` is ``[calls, seconds]`` of
    ``_record_level``; ``sizes`` counts the frames generated inline per
    ``FRAME_SIZES`` bucket."""
    tally = [0, 0.0]
    level_pass = [0, 0.0]
    coverage: dict = {"entries": [0, 0]}
    narrowed = {name: [0, 0, 0.0] for name in NARROWERS}
    sizes = dict.fromkeys(FRAME_SIZES, 0)
    caller: list[str] = []  # the innermost caller of the primitive
    timed_entry = _timed(_entry_candidates, tally)
    timed_children = _timed(_level_children, tally)
    timed_level = _timed(_record_level, level_pass)

    def calling(name, fn, *args):
        caller.append(name)
        try:
            return fn(*args)
        finally:
            caller.pop()

    def count(key, recorded=0, inline=0):
        slot = coverage.setdefault(key, [0, 0])
        slot[0] += recorded
        slot[1] += inline

    def counting_pass(*args):
        n_entries, frames = calling("entry pass", entry_pass, *args)
        count("entries", recorded=n_entries)
        for lv, n in frames.items():
            count(lv, recorded=n)
        return n_entries, frames

    def counting_entry(*args):
        count("entries", inline=1)
        return calling("inline entry", timed_entry, *args)

    def counting_children(env, group, lv, requests, params):
        count(lv, inline=len(requests))
        for _, cands, _ in requests:
            sizes[FRAME_SIZES[(len(cands) > 1) + (len(cands) >= 10)]] += 1
        name = "fused class" if len(requests) > 1 else "inline frame"
        return calling(name, timed_children, env, group, lv, requests, params)

    def counting_level(*args):
        return calling("level pass", timed_level, *args)

    def counting_plan(snap, prefix, *args):
        tally_of = narrowed[caller[-1]]
        t0 = time.perf_counter()
        try:
            return _plan_requests(snap, prefix, *args)
        finally:
            tally_of[0] += len(prefix)
            tally_of[2] += time.perf_counter() - t0

    def counting_expand(snap, plan, lo, hi):
        tally_of = narrowed[caller[-1]]
        t0 = time.perf_counter()
        try:
            return _expand_requests(snap, plan, lo, hi)
        finally:
            tally_of[1] += hi - lo
            tally_of[2] += time.perf_counter() - t0

    with ExitStack() as stack:
        for fn, wrapper in (
            (entry_pass, counting_pass),
            (_record_level, counting_level),
            (_entry_candidates, counting_entry),
            (_level_children, counting_children),
            (_plan_requests, counting_plan),
            (_expand_requests, counting_expand),
        ):
            stack.enter_context(patched(fn, wrapper))
        yield tally, coverage, narrowed, level_pass, sizes


def narrowing_report(service, narrowed, seen: dict) -> None:
    """Print one batch's primitive rows planned against rows narrowed
    and host µs per narrowed request, per ``NARROWERS`` caller (the
    counts' growth since the previous batch)."""
    grown = {
        name: [now - before for now, before in zip(narrowed[name], seen.get(name, (0, 0, 0.0)))]
        for name in NARROWERS
    }
    seen.update({name: list(counts) for name, counts in narrowed.items()})
    rows = ", ".join(
        f"{name} {planned}/{done} ({secs * 1e6 / max(done, 1):.2f}us)"
        for name, (planned, done, secs) in grown.items()
    )
    print(
        f"  batch {service.batches_processed - 1}: array primitive rows planned/narrowed "
        f"(host us per request): {rows}"
    )


def coverage_report(service, coverage, level_pass, seen: dict) -> None:
    """Print one batch's level-pass wall and, for item entries and per
    DFS level, the generations the pass recorded against those run
    inline (the growth since the previous batch)."""
    grown = {
        key: [now - before for now, before in zip(counts, seen.get(key, (0, 0)))]
        for key, counts in coverage.items()
    }
    pass_s = level_pass[1] - seen.get("wall", 0.0)
    seen.update({key: list(counts) for key, counts in coverage.items()}, wall=level_pass[1])
    levels = sorted(key for key in grown if key != "entries")
    shares = ", ".join(
        f"{name} {rec} of {rec + inl}"
        for name, (rec, inl) in [("entries", grown["entries"])]
        + [(f"level {lv}", grown[lv]) for lv in levels]
    )
    print(
        f"  batch {service.batches_processed - 1}: level pass {pass_s * 1e3:.2f}ms; "
        f"recorded generations: {shares}"
    )


def step_costs(g0, batches, queries) -> None:
    """Print host µs per DFS level step, per idle-handler call and per
    Gen-Candidates call from an un-profiled run (cProfile would inflate
    all three), and whether serving materialized the store's dict
    mirror."""
    print(
        "shared per-batch host passes, the requests each batch narrowed, "
        "the generations the level pass recorded, and DFS run-ahead:"
    )
    with (
        LayerTracer() as tracer,
        timed_idle_handlers() as idle,
        run_ahead_counts() as ahead,
        gen_coverage() as (gen, coverage, narrowed, level_pass, sizes),
        timed_methods(
            (CandidateStack, "refresh_rows"),
            (InProcessHost, "_phase_items"),
            (InProcessHost, "_entry_pass"),
        ) as shared,
    ):
        seen = [[0, 0.0], [0, 0.0], [0, 0.0]]
        seen_narrowed: dict = {}
        seen_coverage: dict = {}
        seen_ahead: list = []

        def after_batch(svc) -> None:
            shared_pass_report(svc, shared, seen)
            narrowing_report(svc, narrowed, seen_narrowed)
            coverage_report(svc, coverage, level_pass, seen_coverage)
            run_ahead_report(svc, ahead, seen_ahead)

        service, _ = serve(g0, batches, queries, after_batch)
    exec_s = tracer.take().get("gpu.exec_ms", 0.0)
    gpus = [service.runtime(n).gpu for n in service.query_names]
    steps = sum(gpu.level_steps for gpu in gpus)
    run, priced, materialized = (
        sum(getattr(gpu, name) for gpu in gpus)
        for name in ("blocks_run", "blocks_idle_priced", "blocks_idle_materialized")
    )
    calls, idle_s = idle
    print(
        f"host per level step: {exec_s * 1e6 / max(steps, 1):.2f}us "
        f"(gpu.exec {exec_s * 1e3:.1f}ms / {steps} oracle level steps, "
        f"{steps - ahead[2]} of them DFS-cursor resumptions)"
    )
    print(
        f"host per idle-handler call: {idle_s * 1e6 / max(calls, 1):.2f}us "
        f"({idle_s * 1e3:.1f}ms / {calls} calls)"
    )
    print(
        f"lone-worker blocks priced in closed form: {priced} of {run} scheduled "
        f"({priced / max(run, 1):.0%}); {materialized} of them handed pollers "
        f"back to the heap to steal"
    )
    n_batches = max(service.batches_processed, 1)
    print(f"entry and level pass: {shared[2][1] * 1e3 / n_batches:.2f}ms per batch; covered")
    for key, (recorded, inline) in coverage.items():
        name = key if key == "entries" else f"level {key} frames"
        print(
            f"  {name}: {recorded} of {recorded + inline} "
            f"({recorded / max(recorded + inline, 1):.0%})"
        )
    gen_calls, gen_s = gen
    print(
        f"host per inline Gen-Candidates call: {gen_s * 1e6 / max(gen_calls, 1):.2f}us "
        f"(_entry_candidates + _level_children {gen_s * 1e3:.1f}ms / {gen_calls} calls)"
    )
    by_size = ", ".join(f"{sizes[bucket]} of {bucket}" for bucket in FRAME_SIZES)
    print(f"frames generated inline by candidate count: {by_size}")
    print(f"store mirror materialized: {service.store.graph.is_materialized}")


def payload_cost(report) -> tuple[int, float, float]:
    """Pickled bytes and dump/load seconds of one batch's per-query
    results, pickled as one object like a worker's batch reply."""
    results = {name: q.result for name, q in report.queries.items()}
    t0 = time.perf_counter()
    blob = pickle.dumps(results)
    t1 = time.perf_counter()
    pickle.loads(blob)
    t2 = time.perf_counter()
    return len(blob), t1 - t0, t2 - t1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--dataset", default="LJ",
        help="a load_dataset name, or hub: hub_schedule()'s graph, batch and 5-cycle "
        "(--scale, --queries and --rate do not apply)",
    )
    ap.add_argument("--scale", type=float, default=0.3)
    ap.add_argument("--batches", type=int, default=2)
    ap.add_argument("--queries", type=int, default=3)
    ap.add_argument("--rate", type=float, default=0.10)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--sort", default="cumtime", choices=["cumtime", "tottime"])
    args = ap.parse_args()

    if args.dataset == "hub":
        # servebench's hub_heavy shape: the batch, then its inverse
        g0, batch, query = hub_schedule()
        cycle = make_cycle(g0, [batch])
        batches = [cycle[i % len(cycle)] for i in range(args.batches)]
        queries = [query]
    else:
        graph = load_dataset(args.dataset, scale=args.scale)
        g0, stream = holdout_stream(
            graph, args.rate * args.batches, n_batches=args.batches,
            mode="mixed", seed=11,
        )
        batches = list(stream)
        queries = collect_queries(g0, args.queries)
    scale = "" if args.dataset == "hub" else f" scale={args.scale}"
    print(
        f"profiling {args.dataset}{scale}: |V|={g0.n_vertices} "
        f"|E|={g0.n_edges}, {len(batches)} batches, {len(queries)} queries"
    )

    step_costs(g0, batches, queries)

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    with LayerTracer() as tracer:
        prof.enable()
        _, reports = serve(g0, batches, queries)
        prof.disable()
    wall = time.perf_counter() - t0
    layers = tracer.take()
    print(f"profiled wall {wall*1e3:.1f}ms; layer self times:")
    for metric, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {metric:<26} {seconds*1e3:9.1f}ms ({seconds/max(wall,1e-12):.0%})")
    rest = wall - sum(layers.values())
    print(f"  {'outside traced layers':<26} {rest*1e3:9.1f}ms ({rest/max(wall,1e-12):.0%})")

    print("per-query results, pickled as one reply:")
    for i, report in enumerate(reports):
        size, dump, load = payload_cost(report)
        print(
            f"  batch {i}: {size/1024:9.1f} KB  dump {dump*1e3:6.1f}ms  "
            f"load {load*1e3:6.1f}ms"
        )

    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf).sort_stats(args.sort)
    stats.print_stats(r"repro|numpy", args.top)
    print(buf.getvalue())


if __name__ == "__main__":
    main()
