"""Outside-in layer spans for the traced run.

Nothing inside the program is traced: :class:`LayerTracer` replaces the
public entry point of each layer with a timing wrapper for as long as
it is installed, and restores the originals afterwards. Spans nest at
run time, so a layer's *self* time is its span minus the spans that
ran inside it (a commit's self time excludes the GPMA, CSR splice,
mirror and encoding calls it makes), and the self times of one batch
sum to that batch's ``process_batch`` span.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from repro.filtering import CandidateTable, EncodingTable
from repro.gpu import VirtualGPU
from repro.graph import CSRGraph, LabeledGraph
from repro.matching import QueryRuntime
from repro.pma import GPMAGraph
from repro.service import (
    DynamicGraphStore,
    MatchingService,
    ShardedMatchingService,
    sharded,
)

#: (owner, attribute, layer metric) — the metric is the span's self time
SPANS = (
    (MatchingService, "process_batch", "service.self_ms"),
    (ShardedMatchingService, "process_batch", "service.self_ms"),
    (DynamicGraphStore, "prepare", "store.prepare_ms"),
    (DynamicGraphStore, "commit", "store.commit_self_ms"),
    (GPMAGraph, "apply_delta", "pma.apply_ms"),
    (CSRGraph, "apply_delta", "graph.csr_splice_ms"),
    (LabeledGraph, "absorb_delta", "graph.mirror_ms"),
    (EncodingTable, "apply_delta", "filtering.encode_ms"),
    (CandidateTable, "refresh_rows", "filtering.refresh_ms"),
    (QueryRuntime, "launch", "matching.launch_setup_ms"),
    (VirtualGPU, "launch", "gpu.exec_ms"),
    (QueryRuntime, "bootstrap", "matching.bootstrap_ms"),
    # the sharded parent: snapshot publication as the sharded module
    # calls it, and its one blocking point on the workers (the module's
    # alias of ``multiprocessing.connection.wait``)
    (sharded, "publish_snapshot", "sharded.publish_ms"),
    (sharded, "_conn_wait", "sharded.wait_ms"),
)


class LayerTracer:
    """Accumulates self seconds per layer while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # child seconds of open spans
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, metric: str, fn):
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[metric] += dur - children[0]
                if stack:
                    stack[-1][0] += dur

        return span

    def __enter__(self) -> "LayerTracer":
        for owner, attr, metric in SPANS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(metric, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self._stack.clear()

    def take(self) -> dict[str, float]:
        """Self seconds per layer since the last call, then reset."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out
