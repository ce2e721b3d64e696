"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary. Sub-types distinguish
the layer that failed (graph model, GPU simulator, PMA container,
matching engines, benchmark harness).

All errors are **pickle-safe**: the sharded serving tier ships worker
failures across process boundaries, so every class here round-trips
through ``pickle`` with its constructor arguments, derived attributes,
and the structured :attr:`ReproError.context` mapping intact. Classes
whose ``__init__`` signature differs from ``args`` override
``__reduce__`` accordingly.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    Carries an optional structured :attr:`context` mapping (query id,
    batch version, fault site, shard name, ...) that supervisors attach
    as an error crosses layer or process boundaries. The mapping is
    part of the exception's pickled state, so a worker-side failure
    reaches the parent supervisor with its provenance intact.
    """

    @property
    def context(self) -> dict[str, Any]:
        """Structured provenance attached via :meth:`with_context`."""
        ctx = self.__dict__.get("_context")
        if ctx is None:
            ctx = self.__dict__["_context"] = {}
        return ctx

    def with_context(self, **fields: Any) -> "ReproError":
        """Merge ``fields`` into :attr:`context`; returns ``self`` so
        raise sites can decorate in-line
        (``raise exc.with_context(query=name, batch_version=v)``)."""
        self.context.update(fields)
        return self


class GraphError(ReproError):
    """Invalid operation on a graph (unknown vertex, duplicate edge...)."""


class UpdateError(ReproError):
    """Invalid update operation (inserting an existing edge, deleting a
    missing one, malformed batch)."""


class GpuError(ReproError):
    """Virtual GPU misuse (invalid launch configuration, shared-memory
    overflow, scheduler protocol violation)."""


class SharedMemoryError(GpuError):
    """A block exceeded its shared-memory allocation."""


class DeviceMemoryError(GpuError):
    """Device (global) memory capacity exceeded.

    The BFS kernel catches this to trigger host/device spill transfers;
    anywhere else it is a hard failure.
    """


class PmaError(ReproError):
    """Packed-memory-array invariant violation or invalid key operation."""


class MatchingError(ReproError):
    """Matching engine misuse (query/data mismatch, bad matching order)."""


class ConfigMismatchError(MatchingError):
    """A per-query :class:`~repro.matching.launch_env.WBMConfig` disagrees with
    the execution flags of the shared store it is layered on (e.g. a
    vectorized query runtime over a scalar-oracle store). Raised at
    construction so the mismatch cannot silently downgrade mid-run."""


class ServiceError(MatchingError):
    """Serving-tier failure or misuse: registration name collisions,
    rollback of a commit that is not the store's latest, operations on
    quarantined queries. Carries the offending query/commit in the
    message; subclasses :class:`MatchingError` so existing service
    callers that catch the broader type keep working."""


class QueryQuarantinedError(ServiceError):
    """The named query is quarantined behind its circuit breaker and
    cannot serve matches (or be unregistered without ``force``) until
    its bounded recovery succeeds."""

    def __init__(self, name: str, detail: str | None = None) -> None:
        msg = f"query {name!r} is quarantined"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.name = name
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.name, self.detail), dict(self.__dict__)


class ShardFaultError(ServiceError):
    """A worker shard crashed, hung past its deadline, or violated the
    IPC protocol, as detected by the :class:`ShardedMatchingService`
    supervisor. Raised parent-side; carries the shard name so the
    supervisor can trip that shard's circuit breaker."""

    def __init__(self, shard: str, reason: str) -> None:
        super().__init__(f"shard {shard!r} faulted: {reason}")
        self.shard = shard
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.shard, self.reason), dict(self.__dict__)


class InjectedFault(ReproError):
    """A deterministic fault fired by a
    :class:`~repro.testing.faults.FaultPlan` at a named injection site.
    Only ever raised under test/bench fault schedules — production code
    paths never construct one."""

    def __init__(self, site: str, occurrence: int, query: str | None = None) -> None:
        where = f"{site}#{occurrence}" + (f"[{query}]" if query else "")
        super().__init__(f"injected fault at {where}")
        self.site = site
        self.occurrence = occurrence
        self.query = query

    def __reduce__(self):
        return type(self), (self.site, self.occurrence, self.query), dict(self.__dict__)


class BudgetExceeded(ReproError):
    """An engine exceeded its operation budget (the reproduction's
    analogue of the paper's 30-minute timeout). The harness marks the
    query *unsolved* when this escapes an engine."""

    def __init__(self, spent: float, budget: float) -> None:
        super().__init__(f"operation budget exceeded: spent {spent:.0f} of {budget:.0f}")
        self.spent = spent
        self.budget = budget

    def __reduce__(self):
        return type(self), (self.spent, self.budget), dict(self.__dict__)


class BenchmarkError(ReproError):
    """Benchmark harness configuration error."""
