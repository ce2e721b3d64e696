"""ShardedMatchingService: crash-tolerant multi-process serving tier.

The single-process :class:`~repro.service.MatchingService` fans every
batch across all query runtimes in one interpreter — one hung or
crashed interpreter takes down the whole query population, and one core
caps throughput. This module partitions the *query population* across N
worker processes (gMatch-style fine-grained work partitioning, applied
to standing queries rather than the graph). The batch protocol itself
is :mod:`repro.service.matching_service`'s, unchanged; this module adds
only what is process-specific:

* a :class:`WorkerHost` per shard: the parent-side handle of one worker
  process, which runs an
  :class:`~repro.service.matching_service.InProcessHost` over a
  read-only CSR snapshot attached via ``multiprocessing.shared_memory``
  (the flat int64/uint64 arrays of :class:`~repro.graph.csr.CSRGraph`
  plus the packed encoding matrix);
* snapshot publication: the parent's single authoritative
  :class:`~repro.service.store.DynamicGraphStore` commits each batch
  exactly once, then publishes the post-commit snapshot and broadcasts
  the committed delta to every worker;
* supervision: per-worker heartbeats and a per-batch deadline, watched
  over all worker pipes at once. A crashed, hung, or protocol-violating
  worker trips a shard-level
  :class:`~repro.service.resilience.CircuitBreaker`: the worker is
  killed and respawned, and its queries re-bootstrapped at the
  committed boundary (bounded retries — exhaustion latches the shard,
  optionally swapping its host for an in-process one so the service
  keeps answering).

Failure model. Worker faults never corrupt results: a shard that fails
mid-batch contributes quarantined rows for that batch (its collectors
do not advance) and is re-anchored by a fresh bootstrap before it
serves again, so healthy shards' matches and ``KernelStats`` stay
byte-identical to single-process serving. Reports carry per-shard
health (:attr:`ShardedBatchReport.shard_health`) alongside per-query
health. A defect (a strict-backend escape) inside a worker is not a
worker fault: it comes back to the parent and is re-raised there.

Determinism. Process-level faults come from the same seeded
:class:`~repro.testing.faults.FaultPlan` as the single-process chaos
suite: the plan is pickled into each worker at spawn, the behavioral
``worker.*`` sites count exactly one arrival per batch message (all
sites are polled via :meth:`FaultPlan.due` at message receipt, then
acted on at their effect points), and the parent pre-seeds a respawned
worker's counters with the number of batch messages already delivered
to that shard — so a kill scheduled at batch k fires at batch k and
does not re-fire after the respawn.

Pipeline view. Each worker host prices its queries on its own
resources: table refresh on ``cpu:<shard>``, kernels on ``gpu:<shard>``
(a degraded shard's in-process host uses the parent's ``cpu``/``gpu``),
which is what :class:`~repro.pipeline.async_exec.PipelineModel`
overlaps to model the tier's throughput scaling.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait

from repro.errors import ReproError, ServiceError, ShardFaultError
from repro.graph.csr import AttachedSnapshot, publish_snapshot, unlink_snapshot
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import UpdateBatch, apply_effective_delta
from repro.matching.coalesced import CoalescedPlan
from repro.matching.launch_env import Match
from repro.pipeline.postprocess import MatchCollector
from repro.service.matching_service import (
    InProcessHost,
    QueryHost,
    QueryOutcome,
    ServiceBatchReport,
    _Batch,
    _ServiceCore,
    is_defect,
)
from repro.service.resilience import HEALTH_QUARANTINED, CircuitBreaker, ResiliencePolicy

#: behavioral worker fault sites, polled once per batch message in this
#: order (see module docstring, "Determinism")
WORKER_BATCH_SITES = (
    "worker.snapshot.stale",
    "worker.batch.hang",
    "worker.ipc.torn",
    "worker.ipc.dup",
    "worker.batch.abort",
)

#: how long a hang-faulted worker sleeps; the supervisor kills it long
#: before (bounded by the batch deadline)
_HANG_SLEEP_S = 600.0

_TORN_PAYLOAD = "__torn__"


@dataclass(frozen=True)
class ShardPolicy:
    """Supervisor bounds for the sharded tier (per-query bounds stay in
    :class:`~repro.service.resilience.ResiliencePolicy`)."""

    #: worker processes the query population is partitioned across
    n_workers: int = 2
    #: ``multiprocessing`` start method (``fork`` keeps spawn cost low;
    #: ``spawn`` is supported for portability tests)
    start_method: str = "fork"
    #: wall-clock budget for one broadcast batch before the supervisor
    #: declares the stragglers wedged
    batch_deadline_s: float = 120.0
    #: max silence between worker messages mid-batch before the
    #: supervisor declares the worker hung
    heartbeat_timeout_s: float = 30.0
    #: respawn attempts per shard fault before the shard latches
    max_respawns: int = 3
    #: adopt a latched shard's queries into the parent process so the
    #: service keeps answering them
    degrade_to_inprocess: bool = True


@dataclass
class ShardedBatchReport(ServiceBatchReport):
    """A :class:`ServiceBatchReport` plus the shard-level health map."""

    #: per-shard health for this batch:
    #: ``ok | quarantined | recovered | degraded``
    shard_health: dict[str, str] = field(default_factory=dict)


@dataclass
class _CommitView:
    """The slice of a :class:`StoreCommit` a worker runtime observes."""

    version: int
    changed_vertices: tuple[int, ...]


def _shippable(err: BaseException, **context) -> BaseException:
    """Make ``err`` safe to send over the worker pipe, attaching
    structured context when the hierarchy supports it."""
    if isinstance(err, ReproError):
        err.with_context(**{k: v for k, v in context.items() if v is not None})
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:  # noqa: BLE001 - downgrade to a picklable summary
        fallback = ServiceError(f"{type(err).__name__}: {err}")
        return fallback.with_context(**context)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
class _SharedEncodings:
    """Worker-side :class:`~repro.filtering.encoding.EncodingTable`
    facade over the attached shared-memory ``packed`` matrix. The object
    is stable across snapshot swaps (candidate tables hold a reference);
    only the array view underneath changes."""

    def __init__(self, schema, packed, version: int, vectorized: bool) -> None:
        self.schema = schema
        self.packed = packed
        self.version = version
        self.vectorized = vectorized

    def swap(self, packed, version: int) -> None:
        self.packed = packed
        self.version = version

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, v: int) -> int:
        from repro.filtering.encoding import EncodingSchema

        return EncodingSchema.unpack_code(self.packed[v])


class _WorkerStore:
    """Worker-side :class:`DynamicGraphStore` facade: a replica host
    mirror advanced by broadcast deltas plus zero-copy views of the
    published snapshot. Exposes exactly the surface
    :class:`QueryRuntime` reads; it never commits."""

    def __init__(self, graph, encodings, attachment, vectorized, faults) -> None:
        self.graph = graph
        self.encodings = encodings
        self.vectorized = vectorized
        self.faults = faults
        self._attachment = attachment
        self._csr = attachment.csr()
        self.version = attachment.version

    def csr_snapshot(self):
        return self._csr

    def attach(self, handle) -> None:
        """Swap to a newly published snapshot (and release the old one)."""
        att = AttachedSnapshot(handle)
        old = self._attachment
        self._attachment = att
        self._csr = att.csr()
        self.encodings.swap(att.arrays["enc_packed"], handle.version)
        self.version = handle.version
        old.close()

    def advance(self, delta, handle=None) -> None:
        """Absorb one committed batch into the replica.

        With ``handle`` (the normal path) the published post-batch
        snapshot is attached and the replica mirror rebases onto it —
        a derived view advances in O(1) with no per-edge dict writes.
        Without a handle (the ``worker.snapshot.stale`` fault path) the
        mirror replays the delta per edge under the strict contract, so
        a delta that does not match the replica state raises
        :class:`UpdateError` instead of silently desyncing.
        """
        if handle is not None:
            self.attach(handle)
            self.graph.absorb_delta(delta, csr=self._csr, strict=True)
        else:
            apply_effective_delta(self.graph, delta, strict=True)


class _Worker:
    """The loop body of one worker process: an :class:`InProcessHost`
    over the replica store, driven by the parent's messages."""

    def __init__(self, conn, init: dict) -> None:
        self.conn = conn
        self.shard: str = init["shard"]
        plan = init["faults"]
        if plan is not None:
            # resume the behavioral-site counters where the previous
            # incarnation of this shard left off (see module docstring)
            plan._arrivals.update(init["arrival_offsets"])
        self.faults = plan
        self._fired_mark = len(plan.fired) if plan is not None else 0
        self._idx = -1  # batch message being served
        attachment = AttachedSnapshot(init["handle"])
        encodings = _SharedEncodings(
            init["schema"],
            attachment.arrays["enc_packed"],
            init["handle"].version,
            init["vectorized"],
        )
        # the replica mirror is a derived view over the attached CSR —
        # nothing graph-sized crosses the pipe, for fork and spawn alike
        graph = LabeledGraph.from_csr(attachment.csr())
        self.store = _WorkerStore(graph, encodings, attachment, init["vectorized"], plan)
        if plan is not None:
            plan.fire("worker.bootstrap", query=self.shard)
        self.host = InProcessHost(self.store, init["params"], init["policy"])
        self.host.heartbeat = lambda name: self.conn.send(("hb", self._idx, name))
        self.bootstrap_results = {
            name: self.host.register(name, query, config, bootstrap, plan)[0]
            for name, query, config, bootstrap, plan in init["queries"]
        }

    def serve(self) -> None:
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "shutdown":
                return
            if kind == "batch":
                self._idx, bmsg = msg[1], msg[2]
                try:
                    self._handle_batch(bmsg)
                except Exception as err:  # noqa: BLE001 - ship, don't die
                    self.conn.send(
                        ("batch_error", self._idx, _shippable(
                            err, shard=self.shard, batch_version=bmsg.get("version")))
                    )
            else:  # a host call: register / unregister / rebootstrap
                name = msg[1]
                try:
                    value = getattr(self.host, kind)(name, *msg[2:])
                except Exception as err:  # noqa: BLE001 - isolation boundary
                    self.conn.send(("error", name, _shippable(err, query=name)))
                else:
                    self.conn.send(("done", name, value))

    def _effects(self) -> dict[str, bool]:
        """Poll every behavioral site exactly once per batch message, so
        arrival counters are a pure function of messages delivered."""
        if self.faults is None:
            return {site: False for site in WORKER_BATCH_SITES}
        return {
            site: self.faults.due(site, query=self.shard) is not None
            for site in WORKER_BATCH_SITES
        }

    def _fired_delta(self) -> list[tuple[str, int, str | None, str]]:
        if self.faults is None:
            return []
        new = self.faults.fired[self._fired_mark :]
        self._fired_mark = len(self.faults.fired)
        return [(s.site, s.occurrence, s.query, s.kind) for s in new]

    def _handle_batch(self, bmsg: dict) -> None:
        effects = self._effects()
        version, delta, names = bmsg["version"], bmsg["delta"], bmsg["active"]
        outcomes = {name: QueryOutcome() for name in names}
        self.host.before_commit(names, delta, outcomes)

        if effects["worker.batch.abort"]:
            os._exit(1)
        if effects["worker.batch.hang"]:
            time.sleep(_HANG_SLEEP_S)

        # attach the committed snapshot and rebase the replica mirror
        self.store.advance(
            delta, None if effects["worker.snapshot.stale"] else bmsg["handle"]
        )
        if self.store.version != version:
            raise ShardFaultError(
                self.shard,
                f"stale snapshot: attached v{self.store.version}, "
                f"batch committed v{version}",
            ).with_context(batch_version=version, fault_site="worker.snapshot.stale")
        commit = _CommitView(version=version, changed_vertices=bmsg["changed"])
        self.host.after_commit(names, delta, commit, outcomes)

        for name, out in outcomes.items():
            if out.error is not None:
                out.error = _shippable(
                    out.error, query=name, batch_version=version, shard=self.shard
                )
        payload = {"outcomes": outcomes, "fired": self._fired_delta()}
        self.conn.send(
            ("batch_reply", self._idx, _TORN_PAYLOAD if effects["worker.ipc.torn"] else payload)
        )
        if effects["worker.ipc.dup"] and not effects["worker.ipc.torn"]:
            self.conn.send(("batch_reply", self._idx, payload))


def _worker_main(conn, init: dict) -> None:
    """Worker process entry point (module-level for ``spawn``)."""
    try:
        worker = _Worker(conn, init)
    except Exception as err:  # noqa: BLE001 - report init faults, don't die silently
        try:
            conn.send(("init_error", _shippable(err, shard=init.get("shard"))))
        except Exception:  # noqa: BLE001 - parent already gone
            pass
        return
    conn.send(("ready", worker.bootstrap_results))
    worker.serve()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class WorkerHost(QueryHost):
    """Parent-side handle of one worker process. The authoritative
    match view of each hosted query lives here (bootstrap anchor plus a
    collector); the worker only runs kernels."""

    def __init__(self, label: str, index: int, deadline_s: float) -> None:
        super().__init__(label, cpu=f"cpu:{index}", gpu=f"gpu:{index}")
        self.deadline_s = deadline_s
        self.proc = None
        self.conn = None
        #: name -> (query, config, bootstrap, gated plan), registration order
        self.specs: dict[str, tuple] = {}
        self._views: dict[str, tuple[set[Match] | None, MatchCollector]] = {}
        self.spawns = 0  # worker incarnations (init-site offset)
        self.batches_sent = 0  # batch messages delivered (batch-site offset)
        self.last_beat = 0.0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    @property
    def names(self) -> list[str]:
        return list(self.specs)

    def anchor(self, name: str, initial: set[Match] | None) -> None:
        """Re-anchor one query's view at a fresh bootstrap."""
        self._views[name] = (initial, MatchCollector())

    def register(self, name, query, config, bootstrap) -> tuple[set[Match] | None, CoalescedPlan]:
        initial, plan = self.call("register", name, query, config, bootstrap)
        # a respawned or degraded host re-registers with this plan
        self.specs[name] = (query, config, bootstrap, plan)
        self.anchor(name, initial)
        return initial, plan

    def unregister(self, name: str) -> None:
        if self.alive:
            try:
                self.call("unregister", name)
            except (OSError, EOFError, ShardFaultError):
                pass  # the supervisor will catch the dead worker next batch
        self.specs.pop(name, None)
        self._views.pop(name, None)

    def rebootstrap(self, name: str) -> set[Match]:
        initial = self.call("rebootstrap", name)
        self.anchor(name, initial)
        return initial

    def matches(self, name: str) -> set[Match]:
        initial, collector = self._views[name]
        return (set(initial or ()) | collector.live_matches()) - collector.dead_matches()

    def consume(self, name, result) -> None:
        self._views[name][1].consume(result)

    def call(self, kind: str, name: str, *args):
        """One host call in the worker; its fault is re-raised here.
        Heartbeats and stale batch replies left in the pipe are
        skipped."""
        self.conn.send((kind, name, *args))
        deadline = time.monotonic() + self.deadline_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.conn.poll(remaining):
                raise ShardFaultError(self.label, "control reply timed out")
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                raise ShardFaultError(self.label, "worker crashed awaiting control reply")
            if msg[0] == "error":
                raise msg[2]
            if msg[0] == "done":
                return msg[2]


class ShardedMatchingService(_ServiceCore):
    """N queries over one dynamic graph, partitioned across supervised
    worker processes. API mirrors :class:`MatchingService`."""

    _report_cls = ShardedBatchReport
    _fork_join = True

    def __init__(self, graph=None, *, shard_policy: ShardPolicy | None = None, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self.shard_policy = shard_policy if shard_policy is not None else ShardPolicy()
        if self.shard_policy.n_workers < 1:
            raise ServiceError("ShardPolicy.n_workers must be >= 1")
        self.faults = self.store.faults
        # shard-granularity breaker: respawns retry immediately
        # (cooldown 0) and are bounded by max_respawns before latching
        self.shard_breaker = CircuitBreaker(
            ResiliencePolicy(
                cooldown_batches=0,
                max_retries=self.shard_policy.max_respawns,
                store_retries=self.policy.store_retries,
            )
        )
        self.remote_fired: list[tuple[str, int, str | None, str]] = []
        self._closed = False
        self._inflight: list[WorkerHost] = []
        self._mp = get_context(self.shard_policy.start_method)
        self._handle = self._publish()
        self._prev_handle = None
        self._hosts = [
            WorkerHost(f"shard{i}", i, self.shard_policy.batch_deadline_s)
            for i in range(self.shard_policy.n_workers)
        ]
        for host in self._hosts:
            self._spawn_worker(host)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedMatchingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    def close(self) -> None:
        """Shut every worker down and free the published segments."""
        if self._closed:
            return
        self._closed = True
        for host in self._workers():
            if host.conn is not None:
                try:
                    host.conn.send(("shutdown",))
                except (OSError, BrokenPipeError, ValueError):
                    pass
            if host.proc is not None:
                host.proc.join(timeout=1.0)
            self._kill_worker(host)
        for handle in (self._handle, self._prev_handle):
            if handle is not None:
                unlink_snapshot(handle)
        self._handle = self._prev_handle = None

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _workers(self) -> list[WorkerHost]:
        return [h for h in self._hosts if isinstance(h, WorkerHost)]

    def _publish(self):
        """Publish the store's current snapshot (CSR + packed encodings)."""
        arrays = dict(self.store.csr_snapshot().snapshot_arrays())
        arrays["enc_packed"] = self.store.encodings.packed
        return publish_snapshot(arrays, version=self.store.version)

    def _arrival_offsets(self, host: WorkerHost) -> dict:
        """Pre-seed a fresh worker's behavioral-site counters so specs
        consumed by previous incarnations do not re-fire (one arrival
        per delivered batch message; one ``worker.bootstrap`` arrival
        per spawn)."""
        offsets = {}
        for site in WORKER_BATCH_SITES:
            offsets[(site, host.label)] = host.batches_sent
            offsets[(site, None)] = host.batches_sent
        offsets[("worker.bootstrap", host.label)] = host.spawns
        offsets[("worker.bootstrap", None)] = host.spawns
        return offsets

    def _spawn_worker(self, host: WorkerHost, *, respawn: bool = False) -> dict:
        """Start one worker (initial spawn or supervisor respawn), wait
        for its bootstrap, and return the per-query initial match sets.
        Raises on init fault / crash / timeout."""
        init = {
            "shard": host.label,
            # no graph in the init payload: the worker derives its
            # replica mirror from the attached shared-memory snapshot
            "params": self.params,
            "policy": self.policy,
            "faults": self.faults,
            "arrival_offsets": self._arrival_offsets(host),
            "handle": self._handle,
            "schema": self.store.encodings.schema,
            "vectorized": self.store.vectorized,
            # a respawn always re-anchors with a fresh bootstrap (same
            # contract as QueryRuntime.rebootstrap)
            "queries": [
                (name, query, config, respawn or bootstrap, plan)
                for name, (query, config, bootstrap, plan) in host.specs.items()
            ],
        }
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        proc = self._mp.Process(target=_worker_main, args=(child_conn, init), daemon=True)
        proc.start()
        child_conn.close()
        host.proc = proc
        host.conn = parent_conn
        host.spawns += 1
        if not parent_conn.poll(self.shard_policy.batch_deadline_s):
            self._kill_worker(host)
            raise ShardFaultError(host.label, "worker init timed out")
        try:
            msg = parent_conn.recv()
        except (EOFError, OSError):
            self._kill_worker(host)
            raise ShardFaultError(host.label, "worker crashed during init")
        if msg[0] == "init_error":
            self._kill_worker(host)
            raise msg[1]
        return msg[1]

    def _kill_worker(self, host: WorkerHost) -> None:
        if host.proc is not None:
            if host.proc.is_alive():
                host.proc.kill()
            host.proc.join(timeout=1.0)
            host.proc = None
        if host.conn is not None:
            host.conn.close()
            host.conn = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _host_fault(self, host: QueryHost) -> str | None:
        if self.shard_breaker.is_quarantined(host.label):
            last = self.shard_breaker.record(host.label).last_error
            return f"shard {host.label!r} is quarantined: {last}"
        return None

    def shard_health(self) -> dict[str, str]:
        return {h.label: self.shard_breaker.health(h.label) for h in self._hosts}

    def shard_of(self, name: str) -> str:
        return self._host(name).label

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------
    def process_batch(self, batch: UpdateBatch) -> ShardedBatchReport:
        """One batch across every shard, inside the supervision envelope.

        The protocol is the shared one; after the commit the parent
        publishes the snapshot and broadcasts the batch, runs any
        in-process (degraded) shard, then collects worker replies.
        Worker faults (crash / hang / torn IPC / stale snapshot)
        quarantine the *shard* for this batch and trigger respawn +
        re-bootstrap; per-query faults inside a worker quarantine only
        that query. The previous snapshot is retired only at the very
        end, after any mid-batch respawn attached the current one.
        """
        if self._closed:
            raise ServiceError("service is closed")
        try:
            return self._serve_batch(batch)
        finally:
            if self._prev_handle is not None:
                unlink_snapshot(self._prev_handle)
                self._prev_handle = None

    def _broadcast(self, st: _Batch, delta, commit) -> None:
        self._prev_handle = self._handle
        self._handle = self._publish()
        self._inflight = []
        for host in self._workers():
            if self._host_fault(host) is not None:
                continue
            bmsg = {
                "version": commit.version,
                "handle": self._handle,
                "delta": delta,
                "changed": tuple(commit.changed_vertices),
                "active": [n for n in host.names if n in st.outcomes],
            }
            try:
                host.conn.send(("batch", st.index, bmsg))
            except (OSError, BrokenPipeError, ValueError) as err:
                self._shard_fault(st, host, ShardFaultError(host.label, f"broadcast failed: {err}"))
                continue
            host.batches_sent += 1
            self._inflight.append(host)

    def _collect(self, st: _Batch) -> None:
        """Wait for every broadcast shard's reply under the heartbeat
        and batch-deadline limits; fault the stragglers. A defect
        shipped back by a worker is re-raised."""
        t0 = time.monotonic()
        hb_limit = self.shard_policy.heartbeat_timeout_s
        deadline = self.shard_policy.batch_deadline_s
        pending = {h.conn: h for h in self._inflight}
        for host in pending.values():
            host.last_beat = t0

        def fault(host, err):
            pending.pop(host.conn, None)
            self._shard_fault(st, host, err)

        while pending:
            next_hb = min(h.last_beat + hb_limit for h in pending.values())
            wait_s = max(min(next_hb, t0 + deadline) - time.monotonic(), 0.0)
            ready = _conn_wait(list(pending), timeout=wait_s)
            now = time.monotonic()
            for conn in ready:
                host = pending.get(conn)
                if host is None:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    fault(host, ShardFaultError(host.label, "worker process crashed mid-batch"))
                    continue
                host.last_beat = now
                if msg[0] == "batch_reply" and msg[1] == st.index:
                    payload = msg[2]
                    outcomes = payload.get("outcomes") if isinstance(payload, dict) else None
                    if not isinstance(outcomes, dict) or not all(
                        isinstance(o, QueryOutcome) for o in outcomes.values()
                    ):
                        fault(host, ShardFaultError(
                            host.label, f"torn IPC message: {type(payload).__name__} payload"))
                        continue
                    st.outcomes.update(outcomes)
                    self.remote_fired.extend(payload.get("fired", ()))
                    del pending[conn]
                elif msg[0] == "batch_error":
                    if is_defect(msg[2]):
                        raise msg[2]
                    fault(host, msg[2])
                # anything else: a heartbeat, or a stale/duplicated reply
            for host in list(pending.values()):
                now = time.monotonic()
                if now - host.last_beat >= hb_limit:
                    fault(host, ShardFaultError(
                        host.label, f"heartbeat silence > {hb_limit:.3g}s"))
                elif now - t0 >= deadline:
                    fault(host, ShardFaultError(
                        host.label, f"batch deadline exceeded ({deadline:.3g}s)"))

    def _shard_fault(self, st: _Batch, host: WorkerHost, err: BaseException) -> None:
        """Supervisor response to a detected worker failure: quarantine
        the shard's rows for this batch, kill the worker, and attempt
        bounded respawn + re-bootstrap; exhaustion latches (optionally
        swapping in an in-process host)."""
        st.report.shard_health[host.label] = HEALTH_QUARANTINED
        reason = f"{type(err).__name__}: {err}"
        for name in host.names:
            st.health[name] = HEALTH_QUARANTINED
            st.errors[name] = reason
        self.shard_breaker.trip(host.label, st.index, err)
        self._kill_worker(host)
        while self.shard_breaker.retry_due(host.label, st.index):
            try:
                if self.faults is not None:
                    self.faults.fire("shard.respawn", query=host.label)
                boot = self._spawn_worker(host, respawn=True)
            except Exception as err2:  # noqa: BLE001 - isolation boundary
                if is_defect(err2):
                    raise
                self.shard_breaker.note_retry_failure(host.label, st.index, err2)
                self._kill_worker(host)
            else:
                for name, initial in boot.items():
                    host.anchor(name, initial)
                    self.breaker.drop(name)
                self.shard_breaker.mark_recovered(host.label, st.index)
                return
        # respawn retries exhausted: the shard breaker is latched
        if self.shard_policy.degrade_to_inprocess:
            self._degrade(st.index, host)

    def _degrade(self, index: int, worker: WorkerHost) -> None:
        """Swap a latched shard's worker host for an in-process host on
        the parent store, re-anchoring its queries at the current
        committed boundary."""
        host = InProcessHost(self.store, self.params, self.policy, label=worker.label)
        self._hosts[self._hosts.index(worker)] = host
        for name, (query, config, _, plan) in worker.specs.items():
            self._hosted[name] = host
            host.register(name, query, config, bootstrap=False, plan=plan)
            try:
                host.runtimes[name].bootstrap()
            except Exception as err:  # noqa: BLE001 - isolation boundary
                if is_defect(err):
                    raise
                self.breaker.trip(name, index, err)
            else:
                self.breaker.drop(name)
        self.shard_breaker.latch_degraded(worker.label)

    def _settle(self, report: ShardedBatchReport) -> None:
        for host in self._hosts:
            report.shard_health.setdefault(host.label, self.shard_breaker.health(host.label))
        super()._settle(report)
        self.shard_breaker.settle()
