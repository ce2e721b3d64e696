"""Per-query fault isolation: circuit breakers and quarantine lifecycle.

The serving tier's failure model (see docs/ARCHITECTURE.md, "Failure
model & recovery"): a fault inside one query's launch or observe hook
must not take down the batch, the store, or any other query. The
:class:`MatchingService` wraps every per-query call in a guard; on
failure the query's :class:`CircuitBreaker` record trips to
``quarantined`` and the query sits out whole batches until its cooldown
elapses, then retries with a full re-bootstrap (fresh candidate table,
plan, collector, and static match set) at a consistent store boundary.

Health states per query, as surfaced in ``ServiceBatchReport.health``::

    ok ──fault──▶ quarantined ──cooldown + rebootstrap──▶ recovered ─▶ ok
    │                  │  ▲                                   (next batch)
    │                  ▼  │ retry failed (bounded by max_retries)
    │              latched open (stays quarantined)
    └─vectorized launch fault + degrade_to_scalar─▶ degraded (that batch)

``degraded`` is a per-batch condition, not a sticky state: the launch
reran on the scalar-oracle arm (byte-identical matches and stats by the
flag-with-oracle contract) and the query stays healthy.

Store-level faults are handled one layer down (the commit's rollback
journal); :class:`ResiliencePolicy.store_retries` bounds how often the
service replays a rolled-back prepare/commit before dropping the whole
batch at the restored boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_QUARANTINED = "quarantined"
HEALTH_RECOVERED = "recovered"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Bounds on the service's automatic fault handling."""

    #: batches a tripped query sits out before a recovery attempt
    cooldown_batches: int = 1
    #: re-bootstrap attempts before the breaker latches open for good
    max_retries: int = 5
    #: extra prepare/commit attempts after a rolled-back store fault
    #: before the whole batch is dropped at the pre-batch boundary
    store_retries: int = 1
    #: rerun a failed vectorized launch once on the scalar-oracle arm
    #: (identical matches/stats, slower host) instead of quarantining
    degrade_to_scalar: bool = False


@dataclass
class BreakerRecord:
    """One query's health ledger inside the breaker."""

    state: str = HEALTH_OK
    failures: int = 0  # faults that tripped the breaker
    retries: int = 0  # failed recovery attempts since last healthy
    tripped_at: int = -1  # batch index of the most recent trip
    recovered_at: int = -1
    degraded_batches: int = 0  # launches served on the scalar arm
    last_error: str | None = None


class CircuitBreaker:
    """Quarantine bookkeeping for one service's query population.

    Purely host-side state — the breaker never touches runtimes; the
    service consults it to decide which queries participate in a batch
    and when to attempt recovery.
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy
        self._records: dict[str, BreakerRecord] = {}

    # -- reads ---------------------------------------------------------
    def record(self, name: str) -> BreakerRecord:
        return self._records.setdefault(name, BreakerRecord())

    def health(self, name: str) -> str:
        rec = self._records.get(name)
        return rec.state if rec is not None else HEALTH_OK

    def is_quarantined(self, name: str) -> bool:
        return self.health(name) == HEALTH_QUARANTINED

    def is_latched(self, name: str) -> bool:
        """Retries exhausted: the breaker stays open until the query is
        force-unregistered (or re-registered fresh)."""
        rec = self._records.get(name)
        return (
            rec is not None
            and rec.state == HEALTH_QUARANTINED
            and rec.retries >= self.policy.max_retries
        )

    def retry_due(self, name: str, batch_index: int) -> bool:
        """Cooldown elapsed and retries not exhausted?"""
        rec = self._records.get(name)
        return (
            rec is not None
            and rec.state == HEALTH_QUARANTINED
            and rec.retries < self.policy.max_retries
            and batch_index >= rec.tripped_at + self.policy.cooldown_batches
        )

    def quarantined(self) -> list[str]:
        return [n for n, r in self._records.items() if r.state == HEALTH_QUARANTINED]

    # -- transitions ---------------------------------------------------
    def trip(self, name: str, batch_index: int, error: BaseException) -> BreakerRecord:
        rec = self.record(name)
        rec.state = HEALTH_QUARANTINED
        rec.failures += 1
        rec.tripped_at = batch_index
        rec.last_error = f"{type(error).__name__}: {error}"
        return rec

    def note_retry_failure(self, name: str, batch_index: int, error: BaseException) -> None:
        rec = self.trip(name, batch_index, error)
        rec.retries += 1

    def mark_recovered(self, name: str, batch_index: int) -> None:
        rec = self.record(name)
        rec.state = HEALTH_RECOVERED
        rec.recovered_at = batch_index
        rec.retries = 0

    def note_degraded(self, name: str, launches: int = 1) -> None:
        self.record(name).degraded_batches += launches

    def latch_degraded(self, name: str) -> None:
        """Terminal ``degraded`` state: the population behind ``name``
        moved to a fallback execution tier (a latched worker shard whose
        queries now run in-process). Unlike the per-batch ``degraded``
        condition this is sticky — :meth:`settle` only folds
        ``recovered`` — but unlike a latched quarantine the name keeps
        serving."""
        rec = self.record(name)
        rec.state = HEALTH_DEGRADED
        rec.degraded_batches += 1

    def settle(self) -> None:
        """End-of-batch: ``recovered`` was reported once, fold to ``ok``."""
        for rec in self._records.values():
            if rec.state == HEALTH_RECOVERED:
                rec.state = HEALTH_OK

    def drop(self, name: str) -> None:
        self._records.pop(name, None)
