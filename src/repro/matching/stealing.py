"""The idle side of warp-level work stealing (paper §V-A).

An idle warp takes work from a busy sibling through shared memory:

* **active stealing** — an idle warp scans sibling states, picks the
  victim with the most remaining work, and takes either half its
  pending work-item queue or the back half of the shallowest DFS
  frame's unexplored candidates (Example 3); with nothing to steal it
  spin-waits and scans again, the polls it provably cannot gain from
  priced in batch;
* **passive stealing** — a busy warp periodically checks for parked
  siblings and pushes half of its own work to one
  (:func:`~repro.matching.dfs._passive_donate`, next to the DFS state
  it writes).

Every update edge gets a warp; one that maps onto no work item runs
:data:`_NOOP_PROBE`. In a block whose only working warp is the DFS
worker, :class:`_LonePollers` prices the probes' scans in closed form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, Optional

from repro.gpu.scheduler import BlockScheduler, IdleModel
from repro.gpu.trace import TraceBuilder, TraceCursor
from repro.gpu.warp import WarpContext
from repro.matching.dfs import (
    _estimate_remaining,
    _loot_items,
    _spawn_worker,
    _stealable,
    _state_name,
    _steal_from,
)
from repro.matching.launch_env import _Env


_POLL_CYCLES = 64.0  # persistent idle warp re-checks at this cadence


# an update edge that maps onto no work item still pays its probe: one
# warp-wide compute round (Algorithm 1 gives every update edge a warp).
# Under selective queries nearly every warp is such a probe, so the
# launch passes only the working warps plus this ONE shared filler
# trace: the pooled device prices each filler-only block from a
# memoized template, and the oracle device expands the grid and
# replays the trace op-by-op (a single-segment trace completes on its
# first resumption, like the yield-free generator it stands for).
_NOOP_PROBE = TraceBuilder().charge_compute(1).build()


@lru_cache(maxsize=None)
def _scan_lists(n_warps: int) -> tuple[tuple, dict[str, int], tuple]:
    """Per block size (at most ``warps_per_block`` of them): the warps'
    state names, the reverse map, and each warp's sibling scan list,
    shared by every block of that size and never mutated."""
    names = tuple(_state_name(w) for w in range(n_warps))
    warp_of = {names[w]: w for w in range(n_warps)}
    siblings = tuple(
        tuple(names[w2] for w2 in range(n_warps) if w2 != w1) for w1 in range(n_warps)
    )
    return names, warp_of, siblings


def _victim(present: list, warp_of: dict[str, int]) -> tuple[Optional[dict], list[int]]:
    """An active-stealing scan over the ``(name, state)`` pairs it read:
    the most loaded active state (the first of equals; ``None`` when no
    active state has work left) and the warps whose state is active."""
    best_state: Optional[dict] = None
    best_est = 0
    active_warps: list[int] = []
    for name, st in present:
        if not st["active"]:
            continue
        active_warps.append(warp_of[name])
        est = _estimate_remaining(st)
        if est > best_est:
            best_est, best_state = est, st
    return best_state, active_warps


def _active_idle_handler(sched: BlockScheduler, env: _Env):
    """Idle hook: scan sibling warp states, raid the most loaded one.

    A warp that finds active siblings but nothing stealable *right now*
    spin-waits (idle cycles, not busy) and retries — persistent-warp
    style — instead of retiring while work remains.

    On the pooled fast path the spin is priced in batch: sibling DFS
    state can only change when a sibling resumes, and the scheduler
    knows the clock of the next such event, so every re-scan strictly
    before that horizon provably observes the same nothing-to-steal
    state. Those cycles are charged in one O(1) step (attempts, scan
    busy cycles, shared probes, idle time — the exact per-cycle sums)
    instead of being replayed; the generator oracle keeps the scan-by-
    scan loop, and the two stay byte-identical.
    """

    # per-warp sibling scan lists and the reverse map, built once per
    # block size: the scan itself is one batched shared read instead of
    # a per-sibling python loop of method calls (identical arrival
    # order, identical integer cycle/access totals)
    _, warp_of, siblings = _scan_lists(sched.stats.n_warps)

    def handler(ctx: WarpContext) -> Optional[Generator]:
        ctx.stats.steal_attempts += 1
        ctx._charge(ctx.params.steal_check_cycles)
        present = ctx.shared_read_present(siblings[ctx.warp_id])
        best_state, active_warps = _victim(present, warp_of)
        loot = _steal_from(best_state, env) if best_state is not None else None
        if loot is None:
            if not active_warps:
                return None
            # the future (idle-spin + re-scan) cycles that provably see
            # this scan's state are priced in one step
            n_read = len(present)
            scan_busy = (
                ctx.params.steal_check_cycles + ctx.params.shared_access_cycles * n_read
            )
            horizon = _poll_horizon(sched, ctx.warp_id, active_warps)
            return _poll_spin(ctx, _polls_before(horizon, ctx.clock, scan_busy), n_read)
        ctx.stats.steals += 1
        # the thief's DFS state still reads inactive until its stolen
        # generator first resumes; flag the pending mutation so sibling
        # poll batching does not price past it
        ctx.resume_mutates_shared = True
        return _spawn_worker(ctx, env, _loot_items(best_state, loot))

    return handler


def _poll_spin(c: WarpContext, k: int, m: int) -> Generator[None, None, None]:
    """One idle-spin poll task, with ``k`` provably-identical future
    (idle + rescan) cycles pre-charged in one step (module-level so the
    handler does not rebuild a closure per no-loot scan).

    Each batched cycle was one completed poll task plus one scan over
    ``m`` sibling states — the exact per-cycle sums, as integers.
    """
    if k:
        stats = c.stats
        stats.steal_attempts += k
        stats.tasks_completed += k
        stats.shared_accesses += k * m
        c.shared.accesses += k * m
        c._charge(
            k * (c.params.steal_check_cycles + c.params.shared_access_cycles * m)
        )
        c.advance_idle(k * _POLL_CYCLES)
    c.advance_idle(_POLL_CYCLES)
    yield


def _poll_horizon(sched: BlockScheduler, self_id: int, active_warps: list[int]) -> float:
    """The clock before which warp ``self_id``'s re-scans provably see
    what its no-loot scan saw; ``inf`` when nothing may be batched (the
    generator oracle, or an unaccounted actor below).

    Sibling DFS state only mutates when a sibling warp resumes, so the
    horizon is the earliest next resumption that can mutate: the
    minimum clock over *active* siblings plus any inactive thief whose
    stolen work is pending (``resume_mutates_shared``). Pure pollers
    are ignorable — their no-loot scans observe without mutating. The
    batch is abandoned whenever an unaccounted actor exists: tasks
    still queue in the block (a completion could spawn a fresh worker),
    or a non-parked sibling has no DFS state yet (its first resumption
    would create one).
    """
    inf = float("inf")
    if not sched.vectorized or sched.pending_tasks:
        return inf
    names = _scan_lists(sched.stats.n_warps)[0]
    contexts = sched.contexts
    parked = sched._parked
    shared = sched.shared
    idle_sourced = sched.idle_sourced
    generators = sched.generators
    horizon = inf
    for w in range(sched.stats.n_warps):
        if w == self_id or w in parked:
            continue
        c = contexts[w]
        if c.resume_mutates_shared:
            # a thief with undelivered loot: its next resumption writes
            # its DFS state, so the window may not extend past it
            horizon = min(horizon, c.clock)
            continue
        if names[w] in shared:
            continue  # scanned: active -> horizon below, inactive -> poller
        if w in idle_sourced:
            continue  # stateless poller: observes, never mutates
        if type(generators.get(w)) is TraceCursor:
            continue  # trace task: pure pricing, touches no shared state
        return inf  # un-started worker: next resumption allocates state
    for w in active_warps:
        c = contexts[w]
        if c.clock < horizon:
            horizon = c.clock
    return horizon


def _polls_before(horizon: float, clock: float, scan_busy: float) -> int:
    """The re-scans of a no-loot scan that ended at ``clock`` and cost
    ``scan_busy`` that start strictly before ``horizon``: re-scan i
    (i >= 1) starts at ``clock + i*poll + (i-1)*scan_busy``."""
    period = _POLL_CYCLES + scan_busy
    span = horizon - clock + scan_busy
    if span <= period or horizon == float("inf"):
        return 0
    return int(-(-span // period)) - 1


def _spun_poll() -> Generator[None, None, None]:
    """A :func:`_poll_spin` past its one yield: its idle cycles are
    charged, and its next resumption completes it."""
    return
    yield


class _LonePollers(IdleModel):
    """The no-op probes of a lone worker's block, priced in closed form.

    In a block whose only working warp is ``w0`` (every other warp runs
    :data:`_NOOP_PROBE`), under active stealing on the pooled path, the
    probes' timelines follow from the workers':

    * a probe below ``w0`` completes its trace at clock 0, before the
      worker's first resumption allocates its DFS state, so its scan
      reads no sibling state and it parks;
    * the probes above ``w0`` (the *pollers*) scan after the worker's
      first step. A scan with nothing to steal spins up to the next
      resumption that can mutate a state (:func:`_poll_horizon`) and
      scans again; the first scan that finds no active state parks.
      Pollers hold no DFS state and only observe, so all of them scan
      at the same clocks, one after another, and see the same states.

    So one poller's timeline, times the number of pollers, gives every
    ``BlockStats`` field. Nothing is speculated: before a scan that
    takes loot, the lowest poller goes back to the heap with the clock
    and stats it has reached, and the real handler performs the steal;
    the others scan after it and stay held. Every warp on the heap (the
    worker, and pollers handed back from the bottom) thus has a lower
    id than every held poller, so at equal clocks it acts first, and
    the held pollers' scans at one clock follow each other with no
    other warp between them.

    A cycle budget needs nothing more: only a DFS checks it, and a held
    poller runs none. A handed-back poller carries its busy cycles on
    its context (:meth:`_write`) with its budget mark still 0, so its
    first check as a thief adds them to the launch total, as the
    scheduled poller's would.
    """

    def __init__(self, sched: BlockScheduler, w0: int) -> None:
        n_warps = sched.stats.n_warps
        params = sched.params
        self.sched = sched
        self.w0 = w0
        self.probe = _NOOP_PROBE.priced(params)
        self.names, self.warp_of, _ = _scan_lists(n_warps)
        self.lone = (self.names[w0],)
        # the parker/poller split: the one rule that depends on where
        # the worker's warp id falls
        parkers, self.pollers = range(w0), list(range(w0 + 1, n_warps))
        self.held = frozenset(parkers) | frozenset(self.pollers)
        # one held poller's counters so far: scans plus batched polls
        # (each one a completed task and a steal attempt), shared
        # accesses, and busy cycles beyond its probe
        self.scans = 0
        self.reads = 0
        self.busy = 0.0
        #: clock at which the pollers' next scan starts; the first one
        #: follows the probe, popped at clock 0
        self.scan_clock = float(self.probe.clock[0])
        self.key = (0.0, w0 + 1) if self.pollers else None
        for w in parkers:
            ctx = sched.contexts[w]
            self.probe.apply(ctx, 0)
            ctx._charge(params.steal_check_cycles)
        sched._parked.update(parkers)
        sched.stats.tasks_completed += w0
        sched.stats.steal_attempts += w0
        # to other warps' poll horizons a held poller is what it stands
        # for: a stateless poller (or a probe yet to run)
        sched.idle_sourced.update(self.pollers)

    def act(self) -> list[tuple[int, object]]:
        """The held pollers' next scan: price it, or hand back the one
        poller whose scan steals.

        Until a poller is handed back, no warp but the worker can hold
        a DFS state (parkers and held pollers never run a worker), so
        the scan reads the worker's state alone and its poll horizon is
        the worker's clock; after a hand-back a thief may hold state
        too, and the scan and horizon take the general path."""
        sched = self.sched
        pollers = self.pollers
        lone = not self.materialized
        present = sched.shared.peek_present(self.lone if lone else self.names)
        best, active = _victim(present, self.warp_of)
        if best is not None and _stealable(best):
            # the lowest poller scans first; the rest scan after its steal
            out = [self._release(pollers.pop(0))]
            self.key = (self.key[0], pollers[0]) if pollers else None
            return out
        n_read = len(present)
        params = sched.params
        scan_busy = params.steal_check_cycles + params.shared_access_cycles * n_read
        clock = self.scan_clock + scan_busy
        self.scans += 1
        self.reads += n_read
        self.busy += scan_busy
        if not active:  # every poller parks
            for w in pollers:
                self._write(w, clock)
            sched._parked.update(pollers)
            self.key = None
            return []
        if not lone:
            horizon = _poll_horizon(sched, pollers[0], active)
        elif sched.pending_tasks:
            horizon = float("inf")
        else:
            horizon = sched.contexts[self.w0].clock
        k = _polls_before(horizon, clock, scan_busy)
        self.scans += k
        self.reads += k * n_read
        self.busy += k * scan_busy
        self.scan_clock = clock + k * (_POLL_CYCLES + scan_busy) + _POLL_CYCLES
        self.key = (self.scan_clock, pollers[0])
        return []

    def _write(self, w: int, clock: float) -> None:
        """Give poller ``w`` the timeline's clock, busy cycles and block
        counters so far."""
        sched = self.sched
        ctx = sched.contexts[w]
        self.probe.apply(ctx, 0)
        ctx.busy_cycles += self.busy
        ctx.clock = clock
        stats = sched.stats
        stats.tasks_completed += self.scans
        stats.steal_attempts += self.scans
        stats.shared_accesses += self.reads
        sched.shared.accesses += self.reads

    def _release(self, w: int) -> tuple[int, object]:
        """Poller ``w`` as the heap would hold it before its next scan."""
        self.materialized = True
        if not self.scans:  # its probe has not run yet
            self.sched.idle_sourced.discard(w)
            return w, _NOOP_PROBE.cursor(self.sched.params)
        self._write(w, self.scan_clock)
        return w, _spun_poll()
