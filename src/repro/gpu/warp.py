"""Warp execution context: cycle-charged warp-cooperative primitives.

A kernel task is written against one :class:`WarpContext` — the 32
lanes are never simulated individually. Each primitive applies the
vectorized cost formula of its CUDA counterpart (rounds of
``ceil(n / 32)`` lanes, coalesced vs. scattered transactions) and
advances the warp's local clock, which drives the min-clock block
scheduler. Cycle totals divided by ``DeviceParams.clock_hz`` are the
"model seconds" every benchmark reports.

Contexts are pooled: a :class:`~repro.gpu.device.VirtualGPU` running
the array-native fast path keeps one context per resident warp alive
across launches and calls :meth:`WarpContext.reset` per block instead
of reconstructing (the generator-oracle path builds fresh contexts, so
``tests/test_gpu_pooling.py`` can assert reuse leaks no state). The
op-by-op charging methods here are the scalar oracle of the cost
model; :mod:`repro.gpu.trace` prices the same formulas in batched
array form for non-interacting warp programs.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, log2
from typing import Any, Sequence

from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.params import DeviceParams
from repro.gpu.stats import BlockStats


def _log2_ceil(n: int) -> int:
    return max(1, ceil(log2(n))) if n > 1 else 1


class LevelCursor:
    """Resumable warp task: the non-generator task form.

    A ``LevelCursor`` plays the role of a generator in the block
    scheduler — one :meth:`step` call is one resumption, the return
    value says whether the task completed — but its resumption state is
    a plain object instead of a suspended Python frame, so the
    scheduler's hot loop pays no generator machinery.

    Two cursors exist today: :class:`~repro.gpu.trace.TraceCursor`
    (pre-priced non-interacting programs) and the WBM kernel's
    level-stepped DFS worker, whose step executes one DFS *level*
    (candidate attach + pops/emits/boundary bookkeeping up to the next
    candidate-generation boundary). A cursor must perform exactly the
    charges and shared-memory mutations its generator-oracle
    counterpart performs per resumption — the byte-identical
    ``BlockStats`` contract extends to it unchanged. A step may perform
    several of those resumptions back to back only where no sibling
    can look in between: each one must start strictly before the
    block's observer horizon
    (:meth:`~repro.gpu.scheduler.BlockScheduler.horizon`), and the
    cursor adds the extra ones to the scheduler's ``level_steps``.
    """

    __slots__ = ()

    def step(self, ctx: "WarpContext") -> bool:
        """Advance by one resumption; return True when the task is done."""
        raise NotImplementedError

    def lookahead(self) -> int:
        """A lower bound on the cycles between the warp's clock and the
        start of the task's last resumption (the one whose completion
        runs the idle handler): 0 unless the cursor knows better.
        :meth:`~repro.gpu.scheduler.BlockScheduler.horizon` adds it to
        the warp's clock."""
        return 0


class WarpContext:
    """Handle through which a warp task performs work and pays cycles."""

    def __init__(
        self,
        warp_id: int,
        params: DeviceParams,
        shared: SharedMemory,
        global_mem: GlobalMemory,
        stats: BlockStats,
    ) -> None:
        self.warp_id = warp_id
        self.params = params
        self.shared = shared
        self.global_mem = global_mem
        self.stats = stats
        self.clock = 0.0  # local time (may jump forward when parked)
        self.busy_cycles = 0.0  # cycles actually spent working
        #: engine scratch: busy cycles already folded into a launch-wide
        #: budget (see WBM's ``check_budget``); lives here so pooled
        #: contexts reset it with the rest of the warp state
        self.env_busy_mark = 0.0
        #: True while this warp's *next* resumption will mutate sibling-
        #: observable shared state even though its DFS state reads as
        #: inactive (a thief holding stolen work it has not yet started).
        #: Idle-spin batch pricing must not skip past such a resumption.
        self.resume_mutates_shared = False

    def reset(self, stats: BlockStats) -> None:
        """Re-arm this context for another block (pooled launches).

        Everything a block run mutates is restored to construction
        state: the clock, busy counters, the budget mark, and the stats
        sink (a fresh :class:`BlockStats` per block — stats objects
        escape into the launch result and are never pooled). The shared
        and global memory handles are intentionally kept: shared memory
        is cleared by the scheduler's own reset, global memory is
        device-lifetime state.
        """
        self.stats = stats
        self.clock = 0.0
        self.busy_cycles = 0.0
        self.env_busy_mark = 0.0
        self.resume_mutates_shared = False

    # ------------------------------------------------------------------
    # raw charges
    # ------------------------------------------------------------------
    def _charge(self, cycles: float) -> None:
        self.clock += cycles
        self.busy_cycles += cycles

    def advance_idle(self, cycles: float) -> None:
        """Advance local time without counting as busy work (a warp
        spin-waiting for stealable work burns real time but must not
        inflate the utilization metric)."""
        self.clock += cycles

    def charge_compute(self, warp_rounds: float) -> None:
        """Charge ``warp_rounds`` warp-wide ALU issues."""
        cycles = warp_rounds * self.params.compute_cycles
        self._charge(cycles)
        self.stats.compute_cycles += cycles

    def charge_lanes(self, n_items: int) -> None:
        """Data-parallel op over ``n_items`` elements, 32 per round."""
        self.charge_compute(ceil(max(n_items, 1) / self.params.warp_size))

    def read_global_consecutive(self, n_words: int) -> None:
        """Coalesced read: one transaction per 32 consecutive words."""
        tx = ceil(max(n_words, 1) / self.params.warp_size)
        self._charge(tx * self.params.global_transaction_cycles)
        self.stats.global_transactions += tx
        self.stats.coalesced_transactions += tx

    def read_global_scattered(self, n_accesses: int) -> None:
        """Divergent read: every access is its own transaction."""
        tx = max(n_accesses, 1)
        self._charge(tx * self.params.global_transaction_cycles)
        self.stats.global_transactions += tx
        self.stats.scattered_transactions += tx

    def write_global_consecutive(self, n_words: int) -> None:
        """Coalesced write (same pricing as a coalesced read)."""
        self.read_global_consecutive(n_words)

    # ------------------------------------------------------------------
    # shared memory
    # ------------------------------------------------------------------
    def shared_read(self, name: str) -> Any:
        value, cost = self.shared.read(name)
        self._charge(cost)
        self.stats.shared_accesses += 1
        return value

    def shared_read_present(self, names: Sequence[str]) -> list[tuple[str, Any]]:
        """Batched :meth:`shared_read` over whichever of ``names`` exist
        (one accounting step, byte-identical totals to the scan loop)."""
        out, cost = self.shared.read_present(names)
        self._charge(cost)
        self.stats.shared_accesses += len(out)
        return out

    def shared_alloc(self, name: str, value: Any, words: int) -> None:
        self.shared.alloc(name, value, words)

    # ------------------------------------------------------------------
    # warp-cooperative set operations (the matching kernel's workhorses)
    # ------------------------------------------------------------------
    def intersect_sorted(
        self,
        probes: Sequence[int],
        target: Sequence[int],
    ) -> list[int]:
        """Warp-parallel sorted-set intersection via per-lane binary
        search of ``probes`` into ``target`` (paper §IV-C: "implemented
        by parallel binary search").

        Cost: coalesced read of ``probes``; ``ceil(|probes|/32)`` rounds
        of ``log2 |target|`` search steps; each step is one scattered
        transaction for the round's lanes (adjacent probe lanes share
        the top tree levels, so a round is priced as one transaction
        per step rather than 32).
        """
        n_probe, n_target = len(probes), len(target)
        if n_probe == 0 or n_target == 0:
            self.charge_compute(1)
            return []
        rounds = ceil(n_probe / self.params.warp_size)
        steps = _log2_ceil(n_target)
        self.read_global_consecutive(n_probe)
        self.read_global_scattered(rounds * steps)
        self.charge_compute(rounds * steps)
        out = []
        for x in probes:
            i = bisect_left(target, x)
            if i < n_target and target[i] == x:
                out.append(x)
        return out

    def contains_sorted(self, target: Sequence[int], x: int) -> bool:
        """Single binary-search probe (one lane active, warp in lockstep)."""
        n = len(target)
        if n == 0:
            self.charge_compute(1)
            return False
        steps = _log2_ceil(n)
        self.read_global_scattered(steps)
        self.charge_compute(steps)
        i = bisect_left(target, x)
        return i < n and target[i] == x

    def filter_with_predicate(self, items: Sequence[int], keep_mask: Sequence[bool]) -> list[int]:
        """Warp-wide stream compaction (ballot + prefix sum)."""
        self.charge_lanes(len(items))
        self.charge_compute(_log2_ceil(self.params.warp_size))  # prefix sum
        return [x for x, keep in zip(items, keep_mask) if keep]

    def read_adjacency(self, neighbors: Sequence[int]) -> Sequence[int]:
        """Coalesced load of an adjacency list from global memory."""
        self.read_global_consecutive(len(neighbors))
        return neighbors
