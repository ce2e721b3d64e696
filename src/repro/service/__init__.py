"""Multi-query serving layer: shared store + per-query runtimes.

``DynamicGraphStore`` owns the one data graph / GPMA / encoding table
every registered query shares; ``MatchingService`` fans update batches
out across per-query :class:`~repro.matching.wbm.QueryRuntime`\\ s and
prices the result for the asynchronous pipeline model; the batch
protocol runs once over pluggable :class:`QueryHost`\\ s. The serving
path is fault-isolated: store commits are transactional (rollback
journal), and per-query faults quarantine one query behind its
circuit breaker (:mod:`repro.service.resilience`) instead of failing
the batch. ``ShardedMatchingService`` (:mod:`repro.service.sharded`)
runs the same protocol over supervised worker-process hosts on
shared-memory snapshots, adding shard-granularity crash tolerance.
"""

from repro.service.store import DynamicGraphStore, RollbackJournal, StoreCommit
from repro.service.matching_service import (
    InProcessHost,
    MatchingService,
    QueryBatchReport,
    QueryHost,
    ServiceBatchReport,
    SERVICE_SHARED_STAGES,
)
from repro.service.sharded import (
    ShardedBatchReport,
    ShardedMatchingService,
    ShardPolicy,
    WorkerHost,
    WORKER_BATCH_SITES,
)
from repro.service.resilience import (
    HEALTH_DEGRADED,
    HEALTH_OK,
    HEALTH_QUARANTINED,
    HEALTH_RECOVERED,
    BreakerRecord,
    CircuitBreaker,
    ResiliencePolicy,
)

__all__ = [
    "DynamicGraphStore",
    "RollbackJournal",
    "StoreCommit",
    "MatchingService",
    "QueryHost",
    "InProcessHost",
    "QueryBatchReport",
    "ServiceBatchReport",
    "SERVICE_SHARED_STAGES",
    "ShardedBatchReport",
    "ShardedMatchingService",
    "ShardPolicy",
    "WorkerHost",
    "WORKER_BATCH_SITES",
    "BreakerRecord",
    "CircuitBreaker",
    "ResiliencePolicy",
    "HEALTH_OK",
    "HEALTH_DEGRADED",
    "HEALTH_QUARANTINED",
    "HEALTH_RECOVERED",
]
