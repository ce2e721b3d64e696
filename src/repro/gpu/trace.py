"""Array-form warp programs: cost traces priced by segment reductions.

The generator-based scheduler steps a Python coroutine once per
``yield`` and charges the warp clock op by op — faithful, but the
interpreter cost dominates once the matching stack itself runs on flat
arrays (ROADMAP: ~35k generator resumptions per 3-batch LJ stream).
A :class:`CostTrace` is the array-native alternative for warp programs
whose cost is *data-independent of their siblings*: the program is
emitted once as flat arrays (op kind, amount) with explicit yield
boundaries, and the scheduler prices a whole inter-yield segment in one
step — segment totals are precomputed with ``cumsum`` differences over
the per-op cycle arrays, so replay is a handful of scalar adds.

Two execution paths consume the same trace:

* the **pooled fast path** (``BlockScheduler(vectorized=True)``)
  applies the precomputed per-segment totals directly to the warp
  clock and :class:`~repro.gpu.stats.BlockStats` counters;
* the **generator oracle** (``vectorized=False``) replays the ops one
  by one through the ordinary :class:`~repro.gpu.warp.WarpContext`
  charging methods, inside a real generator.

Every amount is an integer and every per-op cycle cost is an integer
multiple of a :class:`~repro.gpu.params.DeviceParams` field, so the
segment sums are exact in ``int64`` and the two paths produce
**byte-identical** stats (asserted by ``tests/test_gpu_pooling.py``).
Programs that genuinely interact with sibling warps — work-stealing
pushes, mailbox drains, shared-memory reads of another warp's DFS
state — cannot be traced and stay on the generator path.
"""

from __future__ import annotations

from typing import Generator

from repro import xp

from repro.errors import GpuError
from repro.gpu.params import DeviceParams
from repro.gpu.warp import LevelCursor, WarpContext

#: op kinds of the flat trace arrays (``amount`` semantics per kind)
OP_COMPUTE = 0  # amount = warp-wide ALU rounds
OP_LANES = 1  # amount = data-parallel items (ceil(n / warp_size) rounds)
OP_COALESCED = 2  # amount = consecutive words read/written
OP_SCATTERED = 3  # amount = divergent accesses (one transaction each)
OP_IDLE = 4  # amount = cycles of non-busy local time (spin-wait)
N_OPS = 5


class TraceBuilder:
    """Records warp-primitive calls into flat arrays.

    Mirrors the charging surface of :class:`WarpContext` — one method
    per op kind, same argument meaning — but appends ``(kind, amount)``
    instead of advancing a clock. ``yield_()`` marks a scheduler
    boundary (the trace analogue of a generator ``yield``); everything
    between two marks is priced as one segment. All methods return
    ``self`` so short traces can be built in one expression.
    """

    def __init__(self) -> None:
        self._kinds: list[int] = []
        self._amounts: list[int] = []
        self._bounds: list[int] = []

    def _op(self, kind: int, amount: int) -> "TraceBuilder":
        if amount < 0:
            raise GpuError(f"negative trace amount {amount} for op {kind}")
        self._kinds.append(kind)
        self._amounts.append(int(amount))
        return self

    def charge_compute(self, warp_rounds: int) -> "TraceBuilder":
        return self._op(OP_COMPUTE, warp_rounds)

    def charge_lanes(self, n_items: int) -> "TraceBuilder":
        return self._op(OP_LANES, n_items)

    def read_global_consecutive(self, n_words: int) -> "TraceBuilder":
        return self._op(OP_COALESCED, n_words)

    def write_global_consecutive(self, n_words: int) -> "TraceBuilder":
        return self._op(OP_COALESCED, n_words)

    def read_global_scattered(self, n_accesses: int) -> "TraceBuilder":
        return self._op(OP_SCATTERED, n_accesses)

    def advance_idle(self, cycles: int) -> "TraceBuilder":
        return self._op(OP_IDLE, cycles)

    def yield_(self) -> "TraceBuilder":
        """Mark a scheduler boundary before the next recorded op."""
        self._bounds.append(len(self._kinds))
        return self

    def build(self) -> "CostTrace":
        return CostTrace(
            xp.asarray(self._kinds, dtype=xp.int64),
            xp.asarray(self._amounts, dtype=xp.int64),
            xp.asarray(self._bounds, dtype=xp.int64),
        )


class SegmentCosts:
    """Per-segment totals of a warp program under one parameter set.

    One segment is everything between two scheduler boundaries. The
    totals come either from a recorded :class:`CostTrace` (via
    :meth:`CostTrace.priced`) or straight from totals a kernel computed
    itself (:meth:`from_totals`) — the level-stepped WBM DFS prices one
    Gen-Candidates segment per child frame of a DFS level this way, so
    replayed per-level work is a handful of scalar adds instead of
    re-stepped charging calls.

    Stored as plain Python lists or ``array('q')`` columns (one scalar
    read per replayed segment beats ``ndarray`` item extraction in the
    scheduler's hot loop; an ``array('q')`` holds a large record at 8
    bytes an entry).
    """

    __slots__ = (
        "n_segments",
        "clock",
        "busy",
        "compute",
        "transactions",
        "coalesced",
        "scattered",
    )

    @classmethod
    def from_ops(
        cls,
        kinds: xp.ndarray,
        amounts: xp.ndarray,
        bounds: xp.ndarray,
        params: DeviceParams,
    ) -> "SegmentCosts":
        """Price flat ``(kind, amount)`` op arrays into per-segment
        totals; ``bounds`` are the op indices where segments split."""
        self = cls()
        warp = params.warp_size
        # per-op integer cycle/transaction costs, mirroring WarpContext
        rounds = xp.where(
            kinds == OP_LANES, -(-xp.maximum(amounts, 1) // warp), amounts
        )
        is_compute = (kinds == OP_COMPUTE) | (kinds == OP_LANES)
        compute_cy = xp.where(is_compute, rounds * params.compute_cycles, 0)
        coal_tx = xp.where(
            kinds == OP_COALESCED, -(-xp.maximum(amounts, 1) // warp), 0
        )
        scat_tx = xp.where(kinds == OP_SCATTERED, xp.maximum(amounts, 1), 0)
        tx_cy = (coal_tx + scat_tx) * params.global_transaction_cycles
        busy = compute_cy + tx_cy
        idle = xp.where(kinds == OP_IDLE, amounts, 0)

        # segment reduction: cumsum differences at the yield boundaries
        # (robust to empty segments, exact in int64)
        starts = xp.empty(len(bounds) + 2, dtype=xp.int64)
        starts[0] = 0
        starts[1:-1] = bounds
        starts[-1] = len(kinds)

        def seg(per_op: xp.ndarray) -> list[int]:
            cum = xp.zeros(len(per_op) + 1, dtype=xp.int64)
            xp.cumsum(per_op, out=cum[1:])
            return xp.to_numpy(cum[starts[1:]] - cum[starts[:-1]]).tolist()

        self.n_segments = len(starts) - 1
        self.busy = seg(busy)
        self.clock = seg(busy + idle)
        self.compute = seg(compute_cy)
        self.coalesced = seg(coal_tx)
        self.scattered = seg(scat_tx)
        self.transactions = seg(coal_tx + scat_tx)
        return self

    @classmethod
    def from_totals(
        cls,
        clock: list,
        busy: list,
        compute: list,
        transactions: list,
        coalesced: list,
        scattered: list,
    ) -> "SegmentCosts":
        """Wrap per-segment totals a caller computed itself (integer
        cycles; must follow the same pricing rules as :meth:`from_ops`
        — small-segment producers use this to skip the array round
        trip)."""
        self = cls()
        self.n_segments = len(clock)
        self.clock = clock
        self.busy = busy
        self.compute = compute
        self.transactions = transactions
        self.coalesced = coalesced
        self.scattered = scattered
        return self

    def apply(self, ctx: WarpContext, s: int) -> None:
        """Advance ``ctx`` by segment ``s``: the warp's clock, busy
        cycles and block counters move by the segment totals, which
        equal the op-by-op charging sums exactly (integer cycles)."""
        ctx.clock += self.clock[s]
        ctx.busy_cycles += self.busy[s]
        stats = ctx.stats
        stats.compute_cycles += self.compute[s]
        stats.global_transactions += self.transactions[s]
        stats.coalesced_transactions += self.coalesced[s]
        stats.scattered_transactions += self.scattered[s]

    def apply_run(self, ctx: WarpContext, lo: int, hi: int) -> None:
        """Advance ``ctx`` by segments ``[lo, hi)`` in one step: the
        sums of :meth:`apply`'s per-segment adds (integer cycles, so
        equal to applying them one by one)."""
        ctx.clock += sum(self.clock[lo:hi])
        ctx.busy_cycles += sum(self.busy[lo:hi])
        stats = ctx.stats
        stats.compute_cycles += sum(self.compute[lo:hi])
        stats.global_transactions += sum(self.transactions[lo:hi])
        stats.coalesced_transactions += sum(self.coalesced[lo:hi])
        stats.scattered_transactions += sum(self.scattered[lo:hi])


class TraceCursor(LevelCursor):
    """Replay state of one trace task on one warp (fast path only)."""

    __slots__ = ("priced", "segment")

    def __init__(self, priced: SegmentCosts) -> None:
        self.priced = priced
        self.segment = 0

    def step(self, ctx: WarpContext) -> bool:
        """Apply the next segment to ``ctx``; True when the task is done.

        Equivalent to one generator resumption (see
        :meth:`SegmentCosts.apply`).
        """
        p, s = self.priced, self.segment
        p.apply(ctx, s)
        self.segment = s + 1
        return self.segment >= p.n_segments


class CostTrace:
    """One warp program in array form: ``(kinds, amounts)`` plus the
    indices (into the op arrays) where the program yields.

    A trace is immutable and reusable: the same instance may be passed
    as the task of any number of warps across any number of launches
    (the WBM kernel's no-op probe is one module-level trace shared by
    every update edge that maps to no work item). Pricing against a
    :class:`DeviceParams` is cached on the trace, so a reused trace is
    priced once per parameter set ever.
    """

    __slots__ = ("kinds", "amounts", "bounds", "_priced")

    def __init__(
        self, kinds: xp.ndarray, amounts: xp.ndarray, bounds: xp.ndarray
    ) -> None:
        if len(kinds) != len(amounts):
            raise GpuError("trace kinds/amounts length mismatch")
        if len(bounds) and (
            bounds[0] < 0 or bounds[-1] > len(kinds) or xp.any(xp.diff(bounds) < 0)
        ):
            raise GpuError("trace yield bounds out of order")
        if len(kinds) and (kinds.min() < 0 or kinds.max() >= N_OPS):
            raise GpuError("unknown trace op kind")
        self.kinds = kinds
        self.amounts = amounts
        self.bounds = bounds
        self._priced: dict[DeviceParams, SegmentCosts] = {}

    @property
    def n_segments(self) -> int:
        return len(self.bounds) + 1

    def priced(self, params: DeviceParams) -> SegmentCosts:
        """Per-segment totals under ``params`` (cached per parameter set)."""
        entry = self._priced.get(params)
        if entry is None:
            entry = self._priced[params] = SegmentCosts.from_ops(
                self.kinds, self.amounts, self.bounds, params
            )
        return entry

    def cursor(self, params: DeviceParams) -> TraceCursor:
        return TraceCursor(self.priced(params))

    def replay(self, ctx: WarpContext) -> Generator[None, None, None]:
        """Generator-oracle replay: every op goes through the ordinary
        :class:`WarpContext` charging methods, yielding at each bound —
        exactly what a handwritten generator task would have done."""
        kinds = self.kinds
        amounts = self.amounts
        bounds = self.bounds
        b, n_b = 0, len(bounds)
        for i in range(len(kinds)):
            while b < n_b and bounds[b] == i:
                yield
                b += 1
            kind, amount = int(kinds[i]), int(amounts[i])
            if kind == OP_COMPUTE:
                ctx.charge_compute(amount)
            elif kind == OP_LANES:
                ctx.charge_lanes(amount)
            elif kind == OP_COALESCED:
                ctx.read_global_consecutive(amount)
            elif kind == OP_SCATTERED:
                ctx.read_global_scattered(amount)
            else:
                ctx.advance_idle(float(amount))
        while b < n_b:
            yield
            b += 1
