"""GammaSystem: the end-to-end system facade (paper Figure 3).

A thin *single-query* wrapper over the multi-query serving layer: a
private :class:`~repro.service.MatchingService` over its own
:class:`~repro.service.DynamicGraphStore` hosts the one query, and runs
preprocessing (incremental encoding + candidate table), the GPMA
update, the WBM computational kernel, and postprocessing, and prices
every stage so the asynchronous pipeline model can overlap them. This
is the class a downstream user instantiates for one query; concurrent
queries over one graph go through ``MatchingService`` directly.

Kernel stages launch on the pooled array-native virtual-GPU path
(``WBMConfig.vectorized``, the default) or its generator oracle; the
stage model-seconds reported here are byte-derived from identical
``KernelStats`` either way, so the flag never moves a figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.cost import CostModel, DEFAULT_COST_MODEL
from repro.errors import QueryQuarantinedError, ServiceError
from repro.filtering import EncodingSchema
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import UpdateBatch, UpdateStream
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.matching.wbm import BatchResult, WBMConfig
from repro.pipeline.async_exec import PipelineModel, PipelineReport
from repro.pipeline.postprocess import ThroughputMeter

GAMMA_STAGES = [
    ("preprocess", "cpu"),
    ("transfer", "pcie"),
    ("update", "gpu"),
    ("kernel", "gpu"),
    ("postprocess", "cpu"),
]

_QUERY_NAME = "q0"


@dataclass
class GammaBatchReport:
    """Everything one batch produced, with per-stage model seconds."""

    result: BatchResult
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def kernel_seconds(self) -> float:
        return self.stage_seconds.get("kernel", 0.0)


class GammaSystem:
    """GPU-accelerated batch-dynamic subgraph matching, end to end."""

    def __init__(
        self,
        query: LabeledGraph,
        graph: LabeledGraph,
        params: DeviceParams = DEFAULT_PARAMS,
        config: WBMConfig = WBMConfig(),
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        # deferred: repro.service imports this module's package
        from repro.service.matching_service import MatchingService
        from repro.service.store import DynamicGraphStore

        # the query-restricted schema reproduces the paper's encoding
        # exactly; shared stores use the full-alphabet superset schema,
        # which filters identically
        store = DynamicGraphStore(
            graph,
            params,
            schema=EncodingSchema.for_query(query, config.bits_per_label),
            vectorized=config.vectorized,
        )
        self.params = params
        self.cost_model = cost_model
        self._service = MatchingService(store=store, params=params, cost_model=cost_model)
        # no bootstrap: the classic system tracks births/deaths only
        self._service.register_query(query, config, name=_QUERY_NAME, bootstrap=False)
        self.collector = self._service.runtime(_QUERY_NAME).collector
        self.meter = ThroughputMeter()

    @property
    def query(self) -> LabeledGraph:
        return self._service.runtime(_QUERY_NAME).query

    @property
    def graph(self) -> LabeledGraph:
        """Current state of the data graph (after processed batches)."""
        return self._service.graph

    @property
    def service(self):
        """The underlying single-query :class:`MatchingService`."""
        return self._service

    # ------------------------------------------------------------------
    def process_batch(self, batch: UpdateBatch) -> GammaBatchReport:
        """Run one batch through the full pipeline; stage timings are
        model seconds under the shared cost model. A batch whose net
        effective delta is empty prices every stage at zero.

        A fault the service would isolate raises here instead: with one
        query there is no healthy query left to serve, so a dropped
        batch raises :class:`~repro.errors.ServiceError` and a
        quarantined query raises
        :class:`~repro.errors.QueryQuarantinedError`, each carrying the
        original error's type and message."""
        sreport = self._service.process_batch(batch)
        if sreport.failure is not None:
            raise ServiceError(f"batch dropped at {sreport.failure}")
        qreport = sreport.queries[_QUERY_NAME]
        if _QUERY_NAME in sreport.quarantined:
            raise QueryQuarantinedError(_QUERY_NAME, qreport.error)
        stage_seconds = {
            "preprocess": sreport.stage_seconds["preprocess"],
            "transfer": sreport.stage_seconds["transfer"],
            "update": sreport.stage_seconds["update"],
            "kernel": sreport.stage_seconds[f"kernel:{_QUERY_NAME}"],
            "postprocess": sreport.stage_seconds["postprocess"],
        }
        report = GammaBatchReport(result=qreport.result, stage_seconds=stage_seconds)
        self.meter.record(report.total_seconds, len(batch))
        return report

    # ------------------------------------------------------------------
    def process_stream(
        self,
        stream: UpdateStream,
    ) -> tuple[list[GammaBatchReport], PipelineReport]:
        """Process a whole stream; returns per-batch reports plus the
        asynchronous-pipeline schedule over all batches (the overlap
        the paper's Figure 3 describes)."""
        reports = [self.process_batch(batch) for batch in stream]
        model = PipelineModel(GAMMA_STAGES)
        pipeline = model.schedule([r.stage_seconds for r in reports])
        return reports, pipeline
