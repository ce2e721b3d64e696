"""Block scheduler: interleaves warp coroutines by minimum local clock.

A warp task is either a generator function ``task(ctx) -> Generator``
— every ``yield`` is a potential context switch (in hardware: the warp
stalls on memory and the SM issues another warp) — or an array-form
:class:`~repro.gpu.trace.CostTrace`, whose yield boundaries play the
same role but whose inter-yield cost is precomputed. The scheduler
always resumes the warp with the smallest local clock, which produces
a deterministic, contention-free parallel trace.

Two execution paths, selected by ``vectorized`` (the repo-wide
flag-with-oracle convention):

* ``vectorized=True`` — the pooled fast path: trace tasks advance by
  one priced segment per resumption (a handful of scalar adds from the
  cached segment totals; no generator object exists), and the
  scheduler itself is reused across blocks via :meth:`reset`;
* ``vectorized=False`` — the generator oracle: trace tasks are
  replayed op-by-op through :meth:`CostTrace.replay` inside a real
  generator, and callers construct a fresh scheduler per block.

Both paths fill **byte-identical** :class:`BlockStats` — the trace
cost model is integer cycles, so batched sums equal op-by-op sums
exactly (``tests/test_gpu_pooling.py`` asserts this under randomized
mixed schedules). Generator tasks (anything that touches sibling
state) behave identically under both flags.

Two hooks implement the paper's §V-A load balancing:

* ``idle_handler(ctx)`` — called when a warp runs out of work; it may
  return a fresh generator (active stealing: the idle warp raids a
  sibling's DFS stack through shared memory) or ``None`` to park.
* parked warps own a *mailbox*; a running warp may push work to an idle
  sibling (passive stealing). The scheduler revives the parked warp at
  ``max(parked_clock, donor_clock)`` plus the hand-off cost.

Stealing and mailbox traffic are genuinely divergent interactions —
their timing depends on every sibling's clock — which is exactly why
they stay on the generator path and are never expressed as traces.

A kernel that can compute some idle warps' whole timeline from the
other warps' may keep them off the heap altogether: its block hook
installs an :class:`IdleModel`, which :meth:`BlockScheduler.run`
consults wherever those warps would next have been popped. The model
either prices that action in closed form or hands the warps back to
the heap, at the clocks and with the stats they would have reached.

A warp's state is read by a sibling only at an idle-handler scan or an
idle-model action, so a level cursor may perform several resumptions
in one step when each of them starts strictly before the block's
observer horizon (:meth:`BlockScheduler.horizon`): no scan, and no
model action, can come between them. ``level_steps`` counts those
resumptions too, i.e. the oracle's level steps.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Generator, Iterable, Optional, Union

from repro.errors import GpuError
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.params import DeviceParams
from repro.gpu.stats import BlockStats
from repro.gpu.trace import CostTrace, TraceCursor
from repro.gpu.warp import LevelCursor, WarpContext

#: a warp task: a generator function over a context, an array-form cost
#: trace (reusable across warps and launches), or a callable returning a
#: :class:`LevelCursor` (the level-stepped array-native task form)
WarpTask = Union[
    Callable[[WarpContext], Union[Generator[None, None, None], LevelCursor]],
    CostTrace,
]
IdleHandler = Callable[[WarpContext], Optional[Generator[None, None, None]]]


class IdleModel:
    """Closed-form stand-in for a block's ``held`` idle warps.

    :meth:`BlockScheduler.run` never schedules the held warps. Whenever
    ``key`` — the ``(clock, warp)`` heap key of their next action —
    orders before the heap's next entry, ``run`` calls :meth:`act`
    instead, which prices that action from the scheduler's state. An
    action the model cannot price hands warps back: :meth:`act`
    returns them as ``(warp, task)`` pairs, their contexts already at
    the clocks and stats they reached, and ``run`` pushes them so the
    ordinary loop carries on exactly where they stood. The model is
    done once ``key`` is ``None``: every held warp is back on the heap
    or settled for good (final clock, busy cycles and block counters
    written).

    An action may read any warp's state (the held warps stand for
    scans), so ``key`` bounds every warp's observer horizon
    (:meth:`BlockScheduler.horizon`): no cursor runs ahead to it.
    """

    held: frozenset = frozenset()
    key: Optional[tuple[float, int]] = None
    #: True once any held warp went back to the heap
    materialized = False

    def act(self) -> list[tuple[int, object]]:
        """Price the held warps' next action; return the ``(warp,
        task)`` pairs to schedule instead."""
        raise NotImplementedError


class BlockScheduler:
    """Runs one block's warps to completion and fills a BlockStats.

    With ``vectorized=True`` the instance is pool-friendly: call
    :meth:`reset` with the next block's tasks to reuse the contexts,
    shared memory, and mailbox structures without reconstruction (the
    per-block ``BlockStats`` is always fresh — it escapes into the
    launch result).

    ``level_steps`` counts the oracle's DFS level steps: one per
    level-cursor resumption, plus the resumptions a cursor performed
    ahead of the :meth:`horizon` in the same step (the cursor adds
    them).
    """

    def __init__(
        self,
        params: DeviceParams,
        tasks: Iterable[WarpTask],
        global_mem: GlobalMemory | None = None,
        shared: SharedMemory | None = None,
        idle_handler: IdleHandler | None = None,
        vectorized: bool = True,
    ) -> None:
        self.params = params
        self.global_mem = global_mem or GlobalMemory(params)
        self.shared = shared or SharedMemory(params)
        self.vectorized = vectorized
        #: all contexts ever built for this scheduler; ``reset`` re-arms
        #: a prefix of them instead of reconstructing
        self._ctx_pool: list[WarpContext] = []
        self._mailboxes: dict[int, list[tuple[Generator, float]]] = {}
        self._parked: set[int] = set()
        self.reset(tasks, idle_handler=idle_handler)

    def reset(
        self,
        tasks: Iterable[WarpTask],
        idle_handler: IdleHandler | None = None,
    ) -> None:
        """Re-arm for another block: new tasks, fresh stats, same pool.

        Restores everything :meth:`run` mutates — shared memory is
        cleared, mailboxes and the parked set are emptied, and every
        context is reset against a fresh :class:`BlockStats` — so a
        pooled run is indistinguishable from a freshly constructed one.
        """
        self.tasks: list[WarpTask] = list(tasks)
        self.idle_handler = idle_handler
        self.shared.reset()
        self.stats = BlockStats(
            n_warps=min(self.params.warps_per_block, max(len(self.tasks), 1))
        )
        n_warps = self.stats.n_warps
        while len(self._ctx_pool) < n_warps:
            self._ctx_pool.append(
                WarpContext(
                    len(self._ctx_pool),
                    self.params,
                    self.shared,
                    self.global_mem,
                    self.stats,
                )
            )
        self.contexts: list[WarpContext] = self._ctx_pool[:n_warps]
        for ctx in self.contexts:
            ctx.reset(self.stats)
        self._mailboxes.clear()
        self._parked.clear()
        #: warps whose current generator came from the idle handler
        #: (pollers / thieves) rather than a queued task — kernels use
        #: this to prove an idle-spin pricing window is interaction-free
        self.idle_sourced: set[int] = set()
        #: DFS level steps (set by run): the level-cursor resumptions
        #: plus those a cursor ran ahead through in one step
        self.level_steps = 0
        #: optional level-barrier hook, set by the kernel's block hook:
        #: called with a level cursor right before it steps so sibling
        #: cursors staging the same candidate generation can be
        #: batched in one fused pass. Host-side only — it must not
        #: touch shared memory or charge cycles, so the modeled
        #: schedule is unchanged.
        self.step_coalescer: Optional[Callable[[LevelCursor], None]] = None
        #: True while any mailbox may hold deliverable work: set by
        #: push_work, cleared by a drain that empties every mailbox —
        #: the run loop skips the drain entirely between pushes
        self._mailbox_pending = False
        #: optional closed-form pricing of some idle warps, set by the
        #: kernel's block hook (see :class:`IdleModel`)
        self.idle_model: Optional[IdleModel] = None

    # ------------------------------------------------------------------
    # passive stealing support
    # ------------------------------------------------------------------
    def parked_warps(self) -> set[int]:
        """Warps currently idle (candidates for a passive-stealing push)."""
        return set(self._parked)

    def push_work(self, warp_id: int, gen: Generator, donor_clock: float) -> None:
        """Donate a generator to a parked warp (passive stealing)."""
        if warp_id not in self._parked:
            raise GpuError(f"warp {warp_id} is not parked; cannot push work")
        self._mailboxes.setdefault(warp_id, []).append((gen, donor_clock))
        self._mailbox_pending = True

    def horizon(self, w: int) -> float:
        """The observer horizon of warp ``w`` (valid mid-run): a lower
        bound on the clock of the first scheduler turn at which another
        warp could read ``w``'s state — an idle-handler scan or an idle
        model action. ``w`` may run resumptions that start strictly
        before it without yielding in between: every turn the scheduler
        would have interleaved there belongs to a warp that does not
        look.

        It is the minimum of the idle model's key and, per non-parked
        sibling, its clock plus its task's :meth:`LevelCursor.lookahead`
        (0 for any other task: a probe trace or a poller scans at the
        end of its next resumption, an un-started worker is counted at
        its clock). A sibling's scan happens when its task completes,
        so one that is still running cannot scan before its last
        resumption starts. With no idle handler and no idle model no
        warp ever looks: ``inf``. Passive stealing's mailbox deliveries
        are not bounded here; its launches do not run ahead.
        """
        inf = float("inf")
        model = self.idle_model
        if self.idle_handler is None and model is None:
            return inf
        h = inf if model is None or model.key is None else model.key[0]
        parked = self._parked
        contexts = self.contexts
        for s, task in self.generators.items():
            if s == w or s in parked:
                continue
            clock = contexts[s].clock
            if clock < h and isinstance(task, LevelCursor):
                clock += task.lookahead()
            if clock < h:
                h = clock
        return h

    # ------------------------------------------------------------------
    # task spawning (generator vs priced-trace form)
    # ------------------------------------------------------------------
    def _spawn(self, task: WarpTask, ctx: WarpContext):
        """Instantiate a task for one warp.

        A generator function becomes a generator; a :class:`CostTrace`
        becomes a :class:`TraceCursor` on the fast path or its
        op-by-op :meth:`~CostTrace.replay` generator under the oracle.
        A callable may also return a :class:`LevelCursor` directly (the
        WBM kernel's level-stepped DFS workers) — the run loop steps it
        like a generator, one resumption per scheduling turn.
        """
        if isinstance(task, CostTrace):
            if self.vectorized:
                return task.cursor(self.params)
            return task.replay(ctx)
        return task(ctx)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> BlockStats:
        n_warps = self.stats.n_warps
        pending = deque(range(n_warps, len(self.tasks)))  # task queue beyond first wave
        generators: dict[int, object] = {}
        heap: list[tuple[float, int]] = []
        # exposed for idle-handler batch-pricing queries (valid mid-run)
        self.pending_tasks = pending
        self.generators = generators
        #: host-side introspection: DFS level steps this run — one per
        #: level-cursor resumption, plus the extra ones a cursor ran
        #: ahead through (trace segments are counted separately)
        self.level_steps = 0

        model = self.idle_model
        held = model.held if model is not None else ()
        for w in range(n_warps):
            ctx = self.contexts[w]
            if w in held:
                continue  # priced by the idle model until it hands w back
            if w < len(self.tasks):
                generators[w] = self._spawn(self.tasks[w], ctx)
                heapq.heappush(heap, (ctx.clock, w))
            else:
                self._parked.add(w)

        finish_clock = [0.0] * n_warps
        if model is not None and model.key is None:
            model = None  # it settled every held warp up front

        while heap or model is not None:
            if model is not None and (not heap or model.key < heap[0]):
                # the held warps act before the next scheduled warp
                for w, gen in model.act():
                    generators[w] = gen
                    heapq.heappush(heap, (self.contexts[w].clock, w))
                if model.key is None:
                    model = None
                continue
            clock, w = heapq.heappop(heap)
            ctx = self.contexts[w]
            if clock < ctx.clock:
                # stale heap entry; re-push with the true clock
                heapq.heappush(heap, (ctx.clock, w))
                continue
            gen = generators[w]
            if isinstance(gen, LevelCursor):
                # one priced trace segment or one DFS level step: same
                # clock advance and completion timing as the equivalent
                # generator resumption
                if type(gen) is not TraceCursor:
                    self.level_steps += 1
                    coal = self.step_coalescer
                    if coal is not None:
                        coal(gen)
                if gen.step(ctx):
                    self.stats.tasks_completed += 1
                    self._dispatch_next(w, generators, heap, pending, finish_clock)
                else:
                    heapq.heappush(heap, (ctx.clock, w))
            else:
                try:
                    next(gen)
                    heapq.heappush(heap, (ctx.clock, w))
                except StopIteration:
                    self.stats.tasks_completed += 1
                    self._dispatch_next(w, generators, heap, pending, finish_clock)
            # revive any parked warps that received pushed work; skipped
            # outright unless a push landed since the last full drain
            if self._mailbox_pending:
                self._drain_mailboxes(generators, heap, finish_clock)

        self.stats.makespan_cycles = max(
            (ctx.clock for ctx in self.contexts), default=0.0
        )
        self.stats.busy_cycles = sum(ctx.busy_cycles for ctx in self.contexts)
        # drop the run's working set now rather than at the next reset:
        # a pooled scheduler outlives the launch, and exhausted worker
        # generators/task closures would otherwise pin the whole
        # kernel's environment (match sets, DFS items) while idle
        generators.clear()
        self.tasks = []
        return self.stats

    def _dispatch_next(
        self,
        w: int,
        generators: dict[int, object],
        heap: list[tuple[float, int]],
        pending: deque[int],
        finish_clock: list[float],
    ) -> None:
        """Find more work for warp ``w``: queue first, then steal, then park."""
        ctx = self.contexts[w]
        if pending:
            task_idx = pending.popleft()
            generators[w] = self._spawn(self.tasks[task_idx], ctx)
            self.idle_sourced.discard(w)
            heapq.heappush(heap, (ctx.clock, w))
            return
        if self.idle_handler is not None:
            stolen = self.idle_handler(ctx)
            if stolen is not None:
                generators[w] = stolen
                self.idle_sourced.add(w)
                heapq.heappush(heap, (ctx.clock, w))
                return
        finish_clock[w] = ctx.clock
        self._parked.add(w)

    def _drain_mailboxes(
        self,
        generators: dict[int, object],
        heap: list[tuple[float, int]],
        finish_clock: list[float],
    ) -> None:
        if not self._mailboxes:
            self._mailbox_pending = False
            return
        for w in list(self._mailboxes):
            if w not in self._parked:
                continue  # delivered once the warp parks again
            items = self._mailboxes.pop(w)
            gen, donor_clock = items[0]
            ctx = self.contexts[w]
            # hand-off: idle warp resumes no earlier than the donor's now
            ctx.clock = max(ctx.clock, donor_clock)
            ctx.clock += self.params.steal_check_cycles
            self._parked.discard(w)
            generators[w] = gen
            self.idle_sourced.discard(w)  # donated work, not an idle spin
            heapq.heappush(heap, (ctx.clock, w))
            extra = items[1:]
            if extra:
                self._mailboxes[w] = extra
        # leftover entries (their warp is running) keep the flag up so
        # the next step retries the delivery, exactly as before
        self._mailbox_pending = bool(self._mailboxes)
