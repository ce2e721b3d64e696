"""GAMMA: GPU-Accelerated Batch-Dynamic Subgraph Matching (ICDE 2024).

A complete reproduction of the paper's system on a simulated SIMT GPU,
grown into a multi-query serving stack:

* :class:`~repro.service.MatchingService` — N concurrent queries over
  one shared :class:`~repro.service.DynamicGraphStore` (one graph, one
  GPMA, one encoding table; each batch applied exactly once);
* :class:`~repro.pipeline.gamma.GammaSystem` — the single-query
  end-to-end system (preprocess → GPMA update → WBM kernel →
  postprocess), a thin wrapper over the service;
* :mod:`repro.matching` — the warp-centric DFS kernel with work
  stealing and coalesced search, run per query by a
  :class:`~repro.matching.wbm.QueryRuntime` over a shared store;
* :mod:`repro.baselines` — TurboFlux / SymBi / RapidFlow / CaLiG
  reimplementations;
* :mod:`repro.gpu` — the virtual GPU substrate;
* :mod:`repro.pma` — PMA / GPMA dynamic graph container;
* :mod:`repro.bench` — workloads, harness, and reporting for every
  table and figure in the paper's evaluation.

Single-query quickstart::

    from repro import GammaSystem, LabeledGraph, make_batch

    query = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (0, 2), (1, 2), (1, 3)])
    data = LabeledGraph.from_edges([0, 1, 1, 2], [(0, 1), (1, 2), (1, 3)])
    system = GammaSystem(query, data)
    report = system.process_batch(make_batch([("+", 0, 2)]))
    print(report.result.positives)

Multi-query serving::

    from repro import MatchingService

    service = MatchingService(data)
    service.register_query(query_a, name="fraud-ring")
    service.register_query(query_b, name="fanout")
    report = service.process_batch(make_batch([("+", 0, 2)]))
    print(report.queries["fraud-ring"].result.positives)
"""

from repro.errors import (
    BenchmarkError,
    BudgetExceeded,
    DeviceMemoryError,
    GpuError,
    GraphError,
    MatchingError,
    PmaError,
    ReproError,
    UpdateError,
)
from repro.graph import (
    CSRGraph,
    LabeledGraph,
    UpdateBatch,
    UpdateOp,
    UpdateStream,
    dataset_summary,
    load_dataset,
)
from repro.graph.updates import apply_batch, effective_delta, make_batch
from repro.gpu import CostTrace, DeviceParams, TraceBuilder, VirtualGPU
from repro.pma import GPMAGraph, PMA
from repro.filtering import CandidateTable, EncodingSchema, EncodingTable
from repro.matching import (
    BFSEngine,
    QueryRuntime,
    WBMConfig,
    build_coalesced_plan,
    find_matches,
    oracle_delta,
)
from repro.baselines import BASELINES, CaLiG, Graphflow, IncIsoMat, RapidFlow, SymBi, TurboFlux
from repro.pipeline import GammaSystem, MatchCollector, PipelineModel
from repro.service import (
    DynamicGraphStore,
    MatchingService,
    ServiceBatchReport,
    StoreCommit,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "GraphError",
    "UpdateError",
    "GpuError",
    "DeviceMemoryError",
    "PmaError",
    "MatchingError",
    "BudgetExceeded",
    "BenchmarkError",
    # graph
    "LabeledGraph",
    "CSRGraph",
    "UpdateOp",
    "UpdateBatch",
    "UpdateStream",
    "make_batch",
    "apply_batch",
    "effective_delta",
    "load_dataset",
    "dataset_summary",
    # substrates
    "CostTrace",
    "DeviceParams",
    "TraceBuilder",
    "VirtualGPU",
    "PMA",
    "GPMAGraph",
    "EncodingSchema",
    "EncodingTable",
    "CandidateTable",
    # matching
    "WBMConfig",
    "BFSEngine",
    "find_matches",
    "oracle_delta",
    "build_coalesced_plan",
    # baselines
    "BASELINES",
    "TurboFlux",
    "SymBi",
    "RapidFlow",
    "CaLiG",
    "Graphflow",
    "IncIsoMat",
    # system
    "GammaSystem",
    "MatchCollector",
    "PipelineModel",
    # multi-query service
    "DynamicGraphStore",
    "StoreCommit",
    "QueryRuntime",
    "MatchingService",
    "ServiceBatchReport",
    "__version__",
]
