"""VirtualGPU: grid launches over the block scheduler.

Blocks are assigned to SMs round-robin; each SM executes its blocks
sequentially (one resident block per SM — a conservative wave model),
so kernel latency is ``max over SMs of Σ block makespans``. Host-device
transfers accumulate separately, feeding the Figure 5 Comm/Comp
breakdown and the Figure 12 preprocessing analysis. Everything a
launch reports is *modeled* time — cycles under the
:class:`~repro.gpu.params.DeviceParams` cost model, convertible to
model seconds — and is independent of how fast the simulator itself
runs.

The launch machinery has two host-side execution paths behind the
repo-wide ``vectorized`` flag-with-oracle convention:

* ``vectorized=True`` (default) — the **pooled fast path**: one
  :class:`BlockScheduler` (with its warp contexts and shared memory)
  is kept per device and :meth:`~BlockScheduler.reset` per block
  instead of reconstructed, array-form
  :class:`~repro.gpu.trace.CostTrace` tasks are priced from cached
  segment totals rather than stepped as generators, and a sparse
  launch (working warps plus one filler trace) schedules only the
  blocks holding a working warp, pricing every filler-only block from
  one memoized template per block size;
* ``vectorized=False`` — the **generator oracle**: a fresh scheduler
  per block and op-by-op trace replay over the expanded grid, the
  original formulation.

Both paths produce byte-identical :class:`KernelStats` /
:class:`~repro.gpu.stats.BlockStats` (the cost model is integer
cycles; ``tests/test_gpu_pooling.py`` asserts equality under
randomized schedules), so no reported model second changes with the
flag — only the wall-clock cost of simulating the launch does
(``servebench/`` measures it as the ``gpu.exec_ms`` layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.gpu.memory import GlobalMemory, HostDeviceLink
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.gpu.scheduler import BlockScheduler, IdleHandler, WarpTask
from repro.gpu.stats import BlockStats, KernelStats
from repro.gpu.trace import CostTrace

# Factory invoked per block: receives (block_scheduler) after construction
# so kernels can register idle handlers that close over block state.
BlockHook = Callable[[BlockScheduler], Optional[IdleHandler]]


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    stats: KernelStats
    n_blocks: int = 0
    n_tasks: int = 0
    aborted: bool = False  # an engine budget stopped the kernel early
    extras: dict = field(default_factory=dict)


class VirtualGPU:
    """The device: owns global memory, the PCIe link and launch logic.

    ``vectorized`` selects the host-side execution path (pooled
    array-native vs per-block generator oracle); modeled results are
    identical either way. The pool — one scheduler, its contexts, its
    shared memory — lives as long as the device, mirroring how a real
    driver reuses CTA slots between launches instead of reallocating
    them.
    """

    def __init__(
        self, params: DeviceParams = DEFAULT_PARAMS, vectorized: bool = True
    ) -> None:
        self.params = params
        self.vectorized = vectorized
        self.global_mem = GlobalMemory(params)
        self.link = HostDeviceLink(params)
        #: the pooled block scheduler (fast path only), built on first
        #: launch and reset per block thereafter
        self._sched: BlockScheduler | None = None
        #: memoized BlockStats for all-trace blocks under a trace-pure
        #: hook, keyed by the hook's declared behavior token plus the
        #: block's task tuple. A sparse launch's filler-only blocks key
        #: the same way (token, then the filler once per warp), so WBM
        #: holds one template per stealing mode and block size: the
        #: full size plus each partial last block it has seen. Keys
        #: hold the trace objects, so ids cannot be recycled under the
        #: cache. Bounded: callers that rebuild equal-but-distinct
        #: traces per launch must not grow a long-lived device without
        #: bound.
        self._block_cache: dict[tuple, "BlockStats"] = {}
        self._block_cache_cap = 512
        # host-side instrumentation of the launch machinery itself
        self.launch_count = 0
        self.blocks_run = 0  # blocks actually scheduled (memoized replays excluded)
        self.blocks_pooled = 0  # blocks served by reset() instead of __init__
        self.blocks_memoized = 0  # all-trace blocks replayed from the cache
        #: DFS level steps across launches: the oracle's count, i.e.
        #: every level-cursor resumption plus each one a cursor ran
        #: ahead through (see :meth:`BlockScheduler.horizon`)
        self.level_steps = 0
        #: scheduled blocks whose idle warps an IdleModel priced in
        #: closed form, and how many of those handed them back to the heap
        self.blocks_idle_priced = 0
        self.blocks_idle_materialized = 0

    # ------------------------------------------------------------------
    def transfer_to_device(self, n_words: int, stats: KernelStats) -> None:
        """Host→device copy, charged to ``stats.transfer_cycles``."""
        stats.transfer_cycles += self.link.transfer_cycles(n_words)

    # ------------------------------------------------------------------
    def _block_scheduler(self, block_tasks: list[WarpTask]) -> BlockScheduler:
        """A scheduler armed with ``block_tasks``: pooled when
        vectorized (reset, don't reconstruct), fresh under the oracle."""
        if not self.vectorized:
            return BlockScheduler(
                self.params, block_tasks, global_mem=self.global_mem, vectorized=False
            )
        sched = self._sched
        if sched is None:
            sched = self._sched = BlockScheduler(
                self.params, block_tasks, global_mem=self.global_mem, vectorized=True
            )
        else:
            sched.reset(block_tasks)
            self.blocks_pooled += 1
        return sched

    def launch(
        self,
        tasks: list[WarpTask] | dict[int, WarpTask],
        block_hook: BlockHook | None = None,
        *,
        n_tasks: int | None = None,
        filler: CostTrace | None = None,
    ) -> LaunchResult:
        """Run a grid of tasks, one warp each, ``warps_per_block`` per block.

        ``tasks`` is either the dense task list, or — when ``filler`` is
        given — the sparse form of an ``n_tasks``-warp grid: an
        ``{index: task}`` map of the working warps, every other warp
        running the ``filler`` trace. The modeled grid is the same
        either way; the sparse form lets the pooled path schedule only
        the blocks that hold a working warp and price the filler-only
        blocks from one memoized template per block size.
        ``block_hook`` lets the kernel attach an idle handler (work
        stealing) to every block scheduler. Tasks may be generator
        functions or :class:`CostTrace` instances, freely mixed within
        a block.
        """
        try:
            return self._launch(tasks, block_hook, n_tasks, filler)
        finally:
            # counted even when a kernel budget aborts the launch
            # mid-block, so launch_count never undercounts
            self.launch_count += 1

    def _launch(
        self,
        tasks: list[WarpTask] | dict[int, WarpTask],
        block_hook: BlockHook | None,
        n_tasks: int | None,
        filler: CostTrace | None,
    ) -> LaunchResult:
        params = self.params
        stats = KernelStats(params_total_warps=params.total_warps)
        # An all-trace block never touches shared or global memory, so
        # with no hook — or a hook that declares its behavior on such
        # blocks a pure function of the task list via a hashable
        # ``trace_pure`` token — its BlockStats is fully determined by
        # (params, tasks, token) and can be replayed from one real run.
        hook_token = (
            None if block_hook is None else getattr(block_hook, "trace_pure", False)
        )
        memoizable = self.vectorized and hook_token is not False
        if filler is None:
            n_tasks, dense = len(tasks), tasks
        elif not memoizable:
            # the oracle (or an undeclared hook) runs every block
            dense = [tasks.get(i, filler) for i in range(n_tasks)]
        else:
            dense = None
        if not n_tasks:
            return LaunchResult(stats=stats)

        per_block = params.warps_per_block
        n_blocks = -(-n_tasks // per_block)
        if dense is None:
            working_blocks = sorted({i // per_block for i in tasks})
        else:
            working_blocks = range(n_blocks)
        memo_token = hook_token if memoizable else False
        sm_time = [0.0] * params.num_sms
        done = 0  # blocks [0, done) are accounted for
        for b in working_blocks:
            if b > done:
                self._filler_blocks(
                    done, b, n_tasks, filler, block_hook, memo_token, stats, sm_time
                )
            lo = b * per_block
            hi = min(lo + per_block, n_tasks)
            if dense is None:
                block_tasks = [tasks.get(i, filler) for i in range(lo, hi)]
            else:
                block_tasks = dense[lo:hi]
            block_stats = self._run_block(block_tasks, block_hook, memo_token)
            stats.add_block(block_stats)
            sm_time[b % params.num_sms] += block_stats.makespan_cycles
            done = b + 1
        if done < n_blocks:
            self._filler_blocks(
                done, n_blocks, n_tasks, filler, block_hook, memo_token, stats, sm_time
            )
        stats.kernel_cycles = max(sm_time)
        stats.peak_device_words = self.global_mem.peak_used
        return LaunchResult(stats=stats, n_blocks=n_blocks, n_tasks=n_tasks)

    def _run_block(
        self, block_tasks: list[WarpTask], block_hook: BlockHook | None, memo_token
    ) -> BlockStats:
        """One block's stats: replayed from the cache when the block is
        all-trace under a trace-pure hook (``memo_token`` not False),
        scheduled otherwise."""
        cache_key = None
        if memo_token is not False and all(type(t) is CostTrace for t in block_tasks):
            cache_key = (memo_token, *block_tasks)
            template = self._block_cache.get(cache_key)
            if template is not None:
                # LRU: re-insert on hit so hot shared-trace blocks
                # (WBM's all-probe block) survive eviction cycles
                self._block_cache.pop(cache_key)
                self._block_cache[cache_key] = template
                self.blocks_memoized += 1
                return template.copy()
        sched = self._block_scheduler(block_tasks)
        if block_hook is not None:
            sched.idle_handler = block_hook(sched)
        self.blocks_run += 1
        try:
            block_stats = sched.run()
        finally:
            # accumulated even when an engine budget aborts the block
            # mid-run (mirrors launch_count)
            self.level_steps += sched.level_steps
        model = sched.idle_model
        if model is not None:
            self.blocks_idle_priced += 1
            self.blocks_idle_materialized += model.materialized
        if cache_key is not None:
            if len(self._block_cache) >= self._block_cache_cap:
                # evict oldest (insertion-ordered dict): keeps hot
                # shared-trace entries re-insertable while capping
                # churn from per-launch trace objects
                self._block_cache.pop(next(iter(self._block_cache)))
            self._block_cache[cache_key] = block_stats.copy()
        return block_stats

    def _filler_blocks(
        self,
        start: int,
        stop: int,
        n_tasks: int,
        filler: CostTrace,
        block_hook: BlockHook | None,
        memo_token,
        stats: KernelStats,
        sm_time: list[float],
    ) -> None:
        """Account for the filler-only blocks ``[start, stop)`` of a
        sparse launch: the blocks of one span share one ``BlockStats``,
        a copy of its size's template (the first use of a template runs
        it, like any memoized block), so a result carries — and pickles
        — one object per span, not one per block. Each SM's makespan
        total grows by its round-robin share. Cycle costs are integers
        (see :mod:`repro.gpu.params`), so ``share * makespan`` equals
        ``share`` sequential float adds exactly."""
        per_block = self.params.warps_per_block
        num_sms = self.params.num_sms
        full_stop = min(stop, n_tasks // per_block)
        # the full-size span, then the grid's last partial block if it
        # falls in range
        spans = (
            (start, full_stop, per_block),
            (max(start, full_stop), stop, n_tasks % per_block),
        )
        for lo, hi, size in spans:
            count = hi - lo
            if count <= 0:
                continue
            first = self._run_block([filler] * size, block_hook, memo_token)
            stats.blocks.append(first)
            stats.blocks.extend([first] * (count - 1))
            self.blocks_memoized += count - 1
            makespan = first.makespan_cycles
            q, r = divmod(count, num_sms)
            for sm in range(num_sms):
                share = q + ((sm - lo) % num_sms < r)
                if share:
                    sm_time[sm] += share * makespan
