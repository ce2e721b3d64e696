"""MatchingService: N concurrent queries over one dynamic graph.

The multi-query deployment surface the ROADMAP's production setting
needs: queries register and unregister **at runtime** while update
batches stream through. One :class:`DynamicGraphStore` absorbs each
batch exactly once (one ``effective_delta``, one GPMA ``apply_delta``,
one encoding refresh, one PCIe upload) and every registered
:class:`~repro.matching.wbm.QueryRuntime` matches against it — versus
N independent :class:`~repro.pipeline.gamma.GammaSystem` instances,
which would each copy the graph and replay every update N times.

Per batch the service emits a :class:`ServiceBatchReport` with
per-query results plus a stage-priced view: the shared ``preprocess``
/ ``transfer`` / ``update`` stages appear once, and each query
contributes its own ``kernel:<name>`` GPU stage, which is exactly what
:class:`~repro.pipeline.async_exec.PipelineModel` schedules to model
multi-query overlap on the virtual GPU.

The batch protocol is written once, here, over a list of
:class:`QueryHost`\\ s — the places query runtimes execute. A
:class:`MatchingService` has one :class:`InProcessHost` (runtimes on
the parent store); :class:`~repro.service.sharded.ShardedMatchingService`
has one ``WorkerHost`` per supervised process, and degrading a latched
shard swaps its host for an :class:`InProcessHost`. Every worker runs
an :class:`InProcessHost` over its replica store, so the per-query
guards below are the same code in every hosting mode.

``process_batch`` is fault-isolated (see :mod:`repro.service.resilience`
and docs/ARCHITECTURE.md): it runs as a staged transaction — recovery →
prepare → pre-commit launches → commit → post-commit observe/launch →
collect → assemble → price — where per-query stages are guarded (a
fault quarantines that query behind its circuit breaker) and store
stages are transactional (a failed commit rolls back via its journal
and is retried within ``ResiliencePolicy.store_retries``; exhaustion
drops the batch at the restored pre-batch boundary). The service never
raises for a runtime or store *fault*. Defects still raise: invalid
input batches (``UpdateError``/``GraphError`` from validation) and
strict-backend escapes (:func:`is_defect`), wherever the query runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import xp
from repro.bench.cost import CostModel, DEFAULT_COST_MODEL
from repro.errors import (
    GraphError,
    MatchingError,
    QueryQuarantinedError,
    ServiceError,
    UpdateError,
)
from repro.filtering import CandidateStack
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import UpdateBatch, UpdateStream
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.matching.coalesced import CoalescedPlan
from repro.matching.launch_env import BatchResult, KernelOutput, Match, PhaseEdges, WBMConfig
from repro.matching.wbm import QueryRuntime, record_entries, working_items
from repro.pipeline.async_exec import PipelineModel, PipelineReport
from repro.pipeline.postprocess import MatchCollector, ThroughputMeter
from repro.pma.gpma import GpmaUpdateStats
from repro.service.resilience import (
    HEALTH_DEGRADED,
    HEALTH_OK,
    HEALTH_QUARANTINED,
    HEALTH_RECOVERED,
    CircuitBreaker,
    ResiliencePolicy,
)
from repro.service.store import DynamicGraphStore, StoreCommit

# CPU-side preprocessing cost constants (ops per touched item)
ENCODE_OPS_PER_VERTEX = 24.0
TABLE_OPS_PER_ROW = 8.0
POSTPROCESS_OPS_PER_MATCH = 4.0

#: shared stages of every service batch; each registered query adds its
#: own ``("kernel:<name>", "gpu")`` stage between ``update`` and
#: ``postprocess``
SERVICE_SHARED_STAGES = [
    ("preprocess", "cpu"),
    ("transfer", "pcie"),
    ("update", "gpu"),
]


def is_defect(err: BaseException) -> bool:
    """A strict-backend scalar escape is a kernel bug, not a fault:
    every guard re-raises it, because quarantining would hide the
    diagnostic."""
    return isinstance(err, xp.ScalarEscapeError)


@dataclass
class QueryBatchReport:
    """One query's slice of a processed batch."""

    name: str
    result: BatchResult
    kernel_seconds: float = 0.0
    #: this query's health for this batch:
    #: ``ok | degraded | quarantined | recovered``
    health: str = HEALTH_OK
    #: the breaker's last recorded error (quarantined rows only)
    error: str | None = None


@dataclass
class ServiceBatchReport:
    """Everything one batch produced across all registered queries."""

    batch_size: int = 0
    delta_inserted: int = 0
    delta_deleted: int = 0
    reencoded_vertices: int = 0
    gpma_stats: GpmaUpdateStats = field(default_factory=GpmaUpdateStats)
    queries: dict[str, QueryBatchReport] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: ordered (stage, resource) pairs for this batch — feeds the
    #: pipeline model's per-batch stage lists
    stages: list[tuple[str, str]] = field(default_factory=list)
    aborted: bool = False
    #: per-query health for this batch (mirrors ``queries[...].health``)
    health: dict[str, str] = field(default_factory=dict)
    #: an unrecoverable store fault rolled the batch back; the store
    #: sits at the consistent pre-batch boundary and no query observed
    #: any part of this batch
    rolled_back: bool = False
    #: ``"<stage>: <error>"`` when the whole batch was dropped
    failure: str | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def total_positives(self) -> int:
        return sum(len(q.result.positives) for q in self.queries.values())

    @property
    def total_negatives(self) -> int:
        return sum(len(q.result.negatives) for q in self.queries.values())

    @property
    def quarantined(self) -> list[str]:
        return [n for n, h in self.health.items() if h == HEALTH_QUARANTINED]


@dataclass
class QueryOutcome:
    """What one query's guarded batch work produced on its host (sent
    back over the pipe by worker hosts)."""

    neg: KernelOutput | None = None
    pos: KernelOutput | None = None
    #: the fault that stopped this query (quarantines it)
    error: BaseException | None = None
    #: launches that reran on the scalar-oracle arm
    degraded: int = 0


# ---------------------------------------------------------------------------
# query hosts
# ---------------------------------------------------------------------------
class QueryHost:
    """Where a set of query runtimes execute.

    ``label`` names the host in reports (``None`` for a plain service's
    one host, whose table refresh is priced inside ``preprocess``);
    ``cpu``/``gpu`` are the pipeline resources its refresh and kernel
    stages are priced on. The service owns the breakers and the
    protocol; a host only runs the per-query work and keeps each
    query's match view.
    """

    def __init__(self, label: str | None = None, cpu: str = "cpu", gpu: str = "gpu") -> None:
        self.label = label
        self.cpu = cpu
        self.gpu = gpu

    @property
    def names(self) -> list[str]:
        """Hosted queries in registration order."""
        raise NotImplementedError

    def register(
        self, name, query, config, bootstrap
    ) -> tuple[set[Match] | None, CoalescedPlan]:
        """Host a new query; returns its bootstrap matches (if any) and
        the plan it was gated with."""
        raise NotImplementedError

    def unregister(self, name: str) -> None:
        raise NotImplementedError

    def rebootstrap(self, name: str) -> set[Match]:
        """Rebuild one query at the current boundary (recovery)."""
        raise NotImplementedError

    def matches(self, name: str) -> set[Match]:
        raise NotImplementedError

    def consume(self, name: str, result: BatchResult) -> None:
        """Advance one query's match view by an assembled batch."""
        raise NotImplementedError

    def before_commit(self, names, delta, outcomes) -> None:
        """Negative phase against the pre-update graph (in-process only:
        a worker runs the whole batch after the broadcast)."""

    def after_commit(self, names, delta, commit, outcomes) -> None:
        """Observe the commit, then the positive phase."""


class InProcessHost(QueryHost):
    """Runtimes on a store in this process: the parent store, or a
    worker's replica store.

    The host does its per-batch filtering and work-item discovery once
    for all its queries: the runtimes it registers are column ranges of
    one :class:`~repro.filtering.CandidateStack`, refreshed once per
    commit, and each sign phase resolves every healthy query's work
    items in one :func:`~repro.matching.wbm.working_items` pass, then
    records their search trees, one array pass per DFS level
    (:func:`~repro.matching.wbm.record_entries`)."""

    def __init__(self, store, params: DeviceParams, policy: ResiliencePolicy, label=None) -> None:
        super().__init__(label)
        self.store = store
        self.params = params
        self.policy = policy
        self.stack = CandidateStack(store.encodings, vectorized=store.vectorized)
        self.runtimes: dict[str, QueryRuntime] = {}  # insertion-ordered
        #: called with a query name after each of its launches (a
        #: worker's heartbeat to its supervisor)
        self.heartbeat = None

    @property
    def names(self) -> list[str]:
        return list(self.runtimes)

    def register(
        self, name, query, config, bootstrap=True, plan: CoalescedPlan | None = None
    ) -> tuple[set[Match] | None, CoalescedPlan]:
        """``plan`` is the plan gated at the query's first registration,
        passed by a respawned or degraded host re-registering it: the
        query keeps launching the kernels it registered with instead of
        re-gating on the current candidate table."""
        runtime = QueryRuntime(
            query, self.store, self.params, config, name=name,
            collector=MatchCollector(), stack=self.stack, plan=plan,
        )
        try:
            initial = runtime.bootstrap() if bootstrap else None
        except Exception:
            self.stack.remove(runtime.table)  # nothing hosts the query
            raise
        self.runtimes[name] = runtime
        return initial, runtime.plan

    def unregister(self, name: str) -> None:
        runtime = self.runtimes.pop(name, None)
        if runtime is not None:
            self.stack.remove(runtime.table)

    def rebootstrap(self, name: str) -> set[Match]:
        return self.runtimes[name].rebootstrap()

    def matches(self, name: str) -> set[Match]:
        return self.runtimes[name].current_matches()

    def consume(self, name: str, result: BatchResult) -> None:
        self.runtimes[name].collector.consume(result)

    def before_commit(self, names, delta, outcomes) -> None:
        self._launch_phase(names, delta.deleted, outcomes, "neg")

    def after_commit(self, names, delta, commit, outcomes) -> None:
        # every healthy runtime observes the commit, each in its own
        # guard — a mid-loop fault must not leave later runtimes on a
        # version they never observed
        for name in names:
            out = outcomes[name]
            if out.error is None:
                try:
                    self.runtimes[name].observe_commit(commit)
                except Exception as err:  # noqa: BLE001 — isolation boundary
                    if is_defect(err):
                        raise
                    out.error = err
        self._launch_phase(names, delta.inserted, outcomes, "pos")

    def _launch_phase(self, names, edges, outcomes, phase: str) -> None:
        if not edges or not names:
            return
        # one indexed edge set per phase, shared by every runtime's launch
        edges = PhaseEdges(edges)
        live = [name for name in names if outcomes[name].error is None]
        items = self._phase_items(edges, live)
        self._entry_pass(edges, items)
        for name in live:
            out = outcomes[name]
            setattr(out, phase, self._guarded_launch(name, edges, out, items.get(name)))
            if self.heartbeat is not None:
                self.heartbeat(name)

    def _phase_items(self, edges: PhaseEdges, names) -> dict:
        """Every vectorized runtime's work items for one phase, from one
        shared pass. Should the pass fault, each launch resolves its own
        items inside its own guard instead."""
        names = [n for n in names if self.runtimes[n].config.vectorized]
        if not names:
            return {}
        try:
            per_query = working_items(
                edges, self.store.csr_snapshot(), [self.runtimes[n] for n in names]
            )
        except Exception as err:  # noqa: BLE001 — isolation boundary
            if is_defect(err):
                raise
            return {}
        return dict(zip(names, per_query))

    def _entry_pass(self, edges: PhaseEdges, items: dict) -> None:
        """The host-wide level pass over the phase's shared work items
        (:func:`~repro.matching.wbm.record_entries`). Should it fault,
        each item it did not record generates inline. The records live
        on the items, so they go when the phase does."""
        if not items:
            return
        try:
            record_entries(
                edges,
                self.store.csr_snapshot(),
                [self.runtimes[n] for n in items],
                list(items.values()),
            )
        except Exception as err:  # noqa: BLE001 — isolation boundary
            if is_defect(err):
                raise

    def _guarded_launch(self, name, edges, out: QueryOutcome, items=None):
        """One launch inside its isolation guard, with the policy's
        degrade-to-scalar rerun; a fault lands in ``out.error``."""
        runtime = self.runtimes[name]
        try:
            return runtime.launch(edges, items=items)
        except Exception as err:  # noqa: BLE001 — isolation boundary
            if is_defect(err):
                raise
            if self.policy.degrade_to_scalar and runtime.config.vectorized:
                try:
                    result = runtime.launch(edges, degraded=True)
                except Exception as err2:  # noqa: BLE001
                    if is_defect(err2):
                        raise
                    err = err2
                else:
                    out.degraded += 1
                    return result
            out.error = err
            return None


# ---------------------------------------------------------------------------
# the serving protocol
# ---------------------------------------------------------------------------
@dataclass
class _Batch:
    """Per-batch bookkeeping threaded through the protocol steps."""

    index: int
    report: ServiceBatchReport
    outcomes: dict[str, QueryOutcome] = field(default_factory=dict)
    health: dict[str, str] = field(default_factory=dict)
    #: row errors that override the breaker's (a faulted shard's reason)
    errors: dict[str, str] = field(default_factory=dict)

    def failed(self, name: str) -> bool:
        return self.health.get(name) == HEALTH_QUARANTINED


class _ServiceCore:
    """The one batch protocol, registration, and reads over a list of
    :class:`QueryHost`\\ s; see the module docstring."""

    _report_cls = ServiceBatchReport
    #: schedule per-host refresh/kernel stages as fork-join groups
    _fork_join = False

    def __init__(
        self,
        graph: LabeledGraph | None = None,
        *,
        store: DynamicGraphStore | None = None,
        params: DeviceParams = DEFAULT_PARAMS,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        bits_per_label: int = 2,
        extra_labels: tuple[int, ...] = (),
        vectorized: bool = True,
        policy: ResiliencePolicy | None = None,
        faults=None,
    ) -> None:
        if store is None:
            if graph is None:
                raise MatchingError(f"{type(self).__name__} needs a data graph or a store")
            store = DynamicGraphStore(
                graph,
                params,
                bits_per_label=bits_per_label,
                extra_labels=extra_labels,
                vectorized=vectorized,
                faults=faults,
            )
        elif faults is not None:
            store.attach_faults(faults)
        self.store = store
        self.params = params
        self.cost_model = cost_model
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.breaker = CircuitBreaker(self.policy)
        self.meter = ThroughputMeter()
        self._hosts: list[QueryHost] = [InProcessHost(store, params, self.policy)]
        self._hosted: dict[str, QueryHost] = {}  # registration order
        self._counter = 0
        self.batches_processed = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledGraph:
        """Current state of the shared data graph."""
        return self.store.graph

    @property
    def n_queries(self) -> int:
        return len(self._hosted)

    @property
    def query_names(self) -> list[str]:
        return list(self._hosted)

    def register_query(
        self,
        query: LabeledGraph,
        config: WBMConfig = WBMConfig(),
        name: str | None = None,
        bootstrap: bool = True,
    ) -> str:
        """Register a query against the *current* graph state, on the
        least-loaded serving host.

        With ``bootstrap`` (default) the query is answered immediately
        via a static enumeration, so :meth:`matches` is complete from
        the first batch the new runtime observes. Returns the name the
        query is addressed by.
        """
        name = self._claim_name(name)
        serving = [h for h in self._hosts if self._host_fault(h) is None]
        if not serving:
            raise ServiceError("no serving host available for registration")
        host = min(serving, key=lambda h: len(h.names))
        host.register(name, query, config, bootstrap)
        self._hosted[name] = host
        self._counter += 1
        return name

    def _claim_name(self, name: str | None) -> str:
        if name is None:
            # explicit registrations may have claimed counter-shaped names
            while f"q{self._counter}" in self._hosted:
                self._counter += 1
            name = f"q{self._counter}"
        if name in self._hosted:
            raise ServiceError(f"query {name!r} already registered")
        return name

    def unregister_query(self, name: str, *, force: bool = False) -> None:
        """Drop a query; only its per-query state (candidate table,
        plan, collector, virtual GPU, breaker record) is freed — the
        shared store is untouched.

        A quarantined query cannot be silently dropped mid-recovery
        (its match view is incomplete and its breaker holds the fault
        evidence): pass ``force=True`` to discard it anyway.
        """
        host = self._host(name)
        reason = self._quarantine_reason(name)
        if reason is not None and not force:
            raise QueryQuarantinedError(name, f"unregister requires force=True; {reason}")
        host.unregister(name)
        del self._hosted[name]
        self.breaker.drop(name)

    def _host(self, name: str) -> QueryHost:
        host = self._hosted.get(name)
        if host is None:
            raise ServiceError(f"no registered query named {name!r}")
        return host

    def _host_fault(self, host: QueryHost) -> str | None:
        """Why a whole host cannot serve (``None`` when it can)."""
        return None

    def _quarantine_reason(self, name: str) -> str | None:
        if self.breaker.is_quarantined(name):
            return self.breaker.record(name).last_error or HEALTH_QUARANTINED
        return self._host_fault(self._host(name))

    def matches(self, name: str) -> set[Match]:
        """Current match set of one registered query (bootstrap state
        plus every observed birth/death).

        A quarantined query's view is incomplete (it missed at least
        one commit), so reading it raises
        :class:`~repro.errors.QueryQuarantinedError` rather than
        returning silently stale matches.
        """
        host = self._host(name)
        reason = self._quarantine_reason(name)
        if reason is not None:
            raise QueryQuarantinedError(name, reason)
        return host.matches(name)

    def query_health(self, name: str) -> str:
        """Current health of one registered query."""
        if self._host_fault(self._host(name)) is not None:
            return HEALTH_QUARANTINED
        return self.breaker.health(name)

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------
    def stage_plan(self) -> list[tuple[str, str]]:
        """Ordered stages of the next batch given current registrations:
        the shared stages, one ``refresh:<host>`` stage per labeled host
        on its CPU, one kernel stage per query on its host's GPU, then
        postprocess."""
        refresh = [
            (f"refresh:{h.label}", h.cpu) for h in self._hosts if h.label is not None and h.names
        ]
        kernels = [(f"kernel:{name}", host.gpu) for name, host in self._hosted.items()]
        return list(SERVICE_SHARED_STAGES) + refresh + kernels + [("postprocess", "cpu")]

    def _serve_batch(self, batch: UpdateBatch) -> ServiceBatchReport:
        """One batch through every host, inside the fault-isolation
        envelope.

        The store computes the net delta once; all negative-phase
        kernels run against the pre-update graph; the store commits the
        GPMA/encoding update exactly once (transactionally — a failed
        commit rolls back and is retried up to ``policy.store_retries``
        times); every healthy runtime observes the commit and runs its
        positive-phase kernel. A fault inside one query's
        launch/observe quarantines that query; healthy queries' results
        are byte-identical to a fault-free run.
        """
        index = self.batches_processed

        # 0. recovery: quarantined queries whose cooldown elapsed retry
        # with a full re-bootstrap at the current consistent boundary
        for name, host in self._hosted.items():
            if self.breaker.retry_due(name, index) and self._host_fault(host) is None:
                try:
                    host.rebootstrap(name)
                except Exception as err:  # noqa: BLE001 — isolation boundary
                    if is_defect(err):
                        raise
                    self.breaker.note_retry_failure(name, index, err)
                else:
                    self.breaker.mark_recovered(name, index)

        # 1. prepare (reads only — a retry re-runs it from scratch)
        delta, err = self._guarded_store(lambda: self.store.prepare(batch))
        if err is not None:
            return self._dropped_batch_report(batch, "prepare", err)
        st = _Batch(
            index,
            self._report_cls(
                batch_size=len(batch),
                delta_inserted=len(delta.inserted),
                delta_deleted=len(delta.deleted),
                stages=self.stage_plan(),
            ),
        )
        live = [
            (h, [n for n in h.names if not self.breaker.is_quarantined(n)])
            for h in self._hosts
            if self._host_fault(h) is None
        ]
        st.outcomes = {n: QueryOutcome() for _, names in live for n in names}

        # 2. pre-commit launches, against the still-live pre-update graph
        for host, names in live:
            host.before_commit(names, delta, st.outcomes)

        # 3. commit — transactional: a failing attempt restores the
        # pre-batch boundary (rollback journal) before raising, so a
        # retry replays the identical delta; exhausted retries drop the
        # whole batch at that boundary (negative results are discarded,
        # nothing was observed, no collector advanced)
        commit, err = self._guarded_store(lambda: self.store.commit(batch, delta))
        if err is not None:
            return self._dropped_batch_report(batch, "commit", err, rolled_back=True)
        st.report.gpma_stats = commit.gpma_stats
        st.report.reencoded_vertices = len(commit.changed_vertices)

        # 4. post-commit: workers get the batch first so they run while
        # in-process hosts observe and launch; then collect their replies
        self._broadcast(st, delta, commit)
        for host, names in live:
            host.after_commit(names, delta, commit, st.outcomes)
        self._collect(st)

        # 5. fold outcomes into the breakers
        for name, out in st.outcomes.items():
            if st.failed(name):
                continue  # its whole host faulted this batch
            if out.degraded:
                st.health[name] = HEALTH_DEGRADED
                self.breaker.note_degraded(name, out.degraded)
            if out.error is not None:
                self._trip(st, name, out.error)

        # 6. assemble: healthy queries exactly as a fault-free run;
        # quarantined ones contribute an empty health-only row (their
        # collector does not advance past the fault)
        report = st.report
        for name, host in self._hosted.items():
            if name not in st.outcomes or st.failed(name):
                state = st.health.setdefault(name, HEALTH_QUARANTINED)
                report.queries[name] = QueryBatchReport(
                    name=name,
                    result=BatchResult(),
                    health=state,
                    error=st.errors.get(name) or self.breaker.record(name).last_error,
                )
                continue
            result = self._assemble_result(st.outcomes[name], commit)
            host.consume(name, result)
            state = st.health.get(name)
            if state is None:
                state = (
                    HEALTH_RECOVERED
                    if self.breaker.health(name) == HEALTH_RECOVERED
                    else HEALTH_OK
                )
            st.health[name] = state
            report.queries[name] = QueryBatchReport(
                name=name,
                result=result,
                kernel_seconds=self.cost_model.gpu_seconds(result.kernel_stats.kernel_cycles),
                health=state,
            )
            report.aborted |= result.aborted

        # 7. price and report
        report.health = dict(st.health)
        self._settle(report)
        report.stage_seconds = self._price_stages(report, commit)
        self.meter.record(report.total_seconds, len(batch))
        self.batches_processed += 1
        return report

    def _broadcast(self, st: _Batch, delta, commit: StoreCommit) -> None:
        """Hand the committed batch to out-of-process hosts."""

    def _collect(self, st: _Batch) -> None:
        """Fold out-of-process hosts' outcomes into ``st.outcomes``."""

    def _settle(self, report: ServiceBatchReport) -> None:
        """End of batch: fold one-shot ``recovered`` states."""
        self.breaker.settle()

    # -- fault-isolation helpers ---------------------------------------
    def _guarded_store(self, call):
        """Run a store transaction with the policy's bounded retry.

        Returns ``(value, None)`` on success or ``(None, last_error)``
        after exhausting retries. A failed ``commit`` has already rolled
        the store back when it raises, so each retry starts from the
        same consistent boundary. Invalid-batch validation errors are
        caller misuse, not faults — they propagate immediately, as do
        defects.
        """
        last: BaseException | None = None
        for _ in range(self.policy.store_retries + 1):
            try:
                return call(), None
            except (UpdateError, GraphError):
                raise
            except Exception as err:  # noqa: BLE001 — isolation boundary
                if is_defect(err):
                    raise
                last = err
        return None, last

    def _trip(self, st: _Batch, name: str, err: BaseException) -> None:
        self.breaker.trip(name, st.index, err)
        st.health[name] = HEALTH_QUARANTINED

    def _dropped_batch_report(
        self, batch: UpdateBatch, stage: str, err: BaseException, rolled_back: bool = False
    ) -> ServiceBatchReport:
        """The whole batch failed in a store stage. The store sits at
        the consistent pre-batch boundary (verified by the rollback
        path); no runtime observed anything, so every healthy query is
        still synced and the next batch proceeds normally."""
        report = self._report_cls(
            batch_size=len(batch),
            stages=self.stage_plan(),
            aborted=True,
            rolled_back=rolled_back,
            failure=f"{stage}: {type(err).__name__}: {err}",
        )
        for name in self._hosted:
            state = self.breaker.health(name)
            report.health[name] = state
            report.queries[name] = QueryBatchReport(
                name=name,
                result=BatchResult(),
                health=state,
                error=self.breaker.record(name).last_error,
            )
        report.stage_seconds = {stage_name: 0.0 for stage_name, _ in report.stages}
        self._settle(report)
        self.batches_processed += 1
        return report

    @staticmethod
    def _assemble_result(out: QueryOutcome, commit: StoreCommit) -> BatchResult:
        result = BatchResult()
        result.gpma_stats = commit.gpma_stats  # shared: applied once for all
        result.reencoded_vertices = len(commit.changed_vertices)
        result.transfer_words = commit.transfer_words
        # every runtime observes the single shared upload; its cycles
        # appear in each per-query result (as they did when engines
        # uploaded privately) but are priced once at the service level
        result.kernel_stats.transfer_cycles += commit.transfer_cycles
        if out.neg is not None:
            result.negatives = set(out.neg.matches)
            result.kernel_stats.merge(out.neg.stats)
            result.aborted |= out.neg.aborted
        if out.pos is not None:
            result.positives = set(out.pos.matches)
            result.kernel_stats.merge(out.pos.stats)
            result.aborted |= out.pos.aborted
        return result

    def _price_stages(
        self, report: ServiceBatchReport, commit: StoreCommit
    ) -> dict[str, float]:
        """Model seconds per stage. A batch that nets out to nothing
        after ``effective_delta`` costs zero on every stage.

        One shared encode pass, plus each query refreshing its own
        candidate rows: an unlabeled host's refresh is part of the
        parent's ``preprocess``; a labeled host's runs on that host's
        CPU as its own ``refresh:<label>`` stage. Summed over all
        stages the op totals are the same in every hosting mode."""
        cm = self.cost_model
        if commit.is_noop:
            return {stage: 0.0 for stage, _ in report.stages}
        changed = max(len(commit.changed_vertices), 1)
        n_matches = report.total_positives + report.total_negatives
        preprocess_ops = ENCODE_OPS_PER_VERTEX * changed
        refresh = {}
        for host in self._hosts:
            if host.label is None:
                preprocess_ops += TABLE_OPS_PER_ROW * changed * max(len(host.names), 1)
            elif host.names:
                refresh[f"refresh:{host.label}"] = cm.cpu_seconds(
                    TABLE_OPS_PER_ROW * changed * len(host.names)
                )
        stage_seconds = {
            "preprocess": cm.cpu_seconds(preprocess_ops),
            "transfer": cm.gpu_seconds(commit.transfer_cycles),
            "update": cm.gpu_seconds(commit.gpma_stats.total_cycles),
            "postprocess": cm.cpu_seconds(POSTPROCESS_OPS_PER_MATCH * max(n_matches, 1)),
            **refresh,
        }
        if not self._hosted and all(h.label is not None for h in self._hosts):
            # the single-host max(n, 1) row floor, priced on the parent
            stage_seconds["preprocess"] += cm.cpu_seconds(TABLE_OPS_PER_ROW * changed)
        for name, qrep in report.queries.items():
            stage_seconds[f"kernel:{name}"] = qrep.kernel_seconds
        return stage_seconds

    # ------------------------------------------------------------------
    def process_stream(
        self, stream: UpdateStream
    ) -> tuple[list[ServiceBatchReport], PipelineReport]:
        """Process a whole stream and schedule it on the asynchronous
        pipeline model, with one GPU kernel stage per registered query
        (registrations may change between batches — each batch carries
        its own stage list)."""
        reports = [self.process_batch(batch) for batch in stream]
        model = PipelineModel(self.stage_plan())
        pipeline = model.schedule(
            [r.stage_seconds for r in reports],
            batch_stages=[
                _grouped_stages(r.stages) if self._fork_join else r.stages for r in reports
            ],
        )
        return reports, pipeline


def _grouped_stages(
    stages: list[tuple[str, str]],
) -> list[tuple[str, str] | list[tuple[str, str]]]:
    """Fold a batch's per-host refresh stages and kernel stages into
    fork-join groups so the pipeline model overlaps distinct hosts'
    ``cpu:<k>``/``gpu:<k>`` resources; same-host stages still serialize
    on their resource's FIFO."""
    pre: list = []
    refresh: list[tuple[str, str]] = []
    kernels: list[tuple[str, str]] = []
    post: list = []
    for stage in stages:
        name = stage[0]
        if name.startswith("refresh:"):
            refresh.append(stage)
        elif name.startswith("kernel:"):
            kernels.append(stage)
        elif kernels or refresh:
            post.append(stage)
        else:
            pre.append(stage)
    return pre + ([refresh] if refresh else []) + ([kernels] if kernels else []) + post


class MatchingService(_ServiceCore):
    """Facade: register queries, stream batches, read per-query results.

    All queries run in this process on one :class:`InProcessHost`.
    """

    def runtime(self, name: str) -> QueryRuntime:
        return self._host(name).runtimes[name]

    def process_batch(self, batch: UpdateBatch) -> ServiceBatchReport:
        """Fan one batch out across every registered query (see
        :meth:`_ServiceCore._serve_batch`). Runtime/store faults never
        propagate to the caller; invalid input batches
        (``UpdateError``/``GraphError``) and defects still raise."""
        return self._serve_batch(batch)
