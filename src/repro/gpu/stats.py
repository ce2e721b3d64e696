"""Execution statistics for simulated kernels.

``BlockStats`` is filled by one :class:`~repro.gpu.scheduler.BlockScheduler`
run; ``KernelStats`` merges blocks into device-level numbers, including
the GPU-utilization metric reported in the paper's Figure 13:
``Σ busy warp cycles / (makespan × warps)``. A "model second" is
``total_cycles / DeviceParams.clock_hz`` — the unit every benchmark
table reports.

These objects are the byte-identity contract of the launch rewrite:
whether a block ran on the pooled array-native path or the generator
oracle (``vectorized`` flag), and whether a warp's cost came from a
priced :class:`~repro.gpu.trace.CostTrace` segment or op-by-op
charging, the filled counters must compare equal field-for-field.
That holds because every charge is an integer number of cycles, so
batched ``int64`` sums equal sequential float adds exactly.

Stats that escape into a launch result are read-only. They are never
pooled — only the scheduler, contexts, and shared memory are reused —
and never alias the device's block cache or another launch's result,
but the blocks of one launch may share one ``BlockStats``: a sparse
launch's filler-only blocks of one size are a single object repeated,
which keeps ``len``/``==``/``repr``/``dataclasses.asdict`` unchanged
and lets pickle ship the run as back-references. Merged
``KernelStats`` share their blocks with the launches they fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BlockStats:
    """Counters for one block (CTA)."""

    n_warps: int = 0
    makespan_cycles: float = 0.0
    busy_cycles: float = 0.0
    compute_cycles: float = 0.0
    global_transactions: int = 0
    coalesced_transactions: int = 0
    scattered_transactions: int = 0
    shared_accesses: int = 0
    steals: int = 0
    steal_attempts: int = 0
    tasks_completed: int = 0

    def copy(self) -> "BlockStats":
        """Field-for-field copy without ``dataclasses.replace`` — the
        block-memoization path copies one per replayed block (one per
        filler span of a sparse launch), and replace's signature binding
        is measurable there (every field is a scalar, so a ``__dict__``
        transplant is exact)."""
        out = BlockStats.__new__(BlockStats)
        out.__dict__.update(self.__dict__)
        return out

    @property
    def utilization(self) -> float:
        """Fraction of warp-cycles spent busy until the block finished."""
        if self.makespan_cycles <= 0 or self.n_warps == 0:
            return 1.0
        return min(1.0, self.busy_cycles / (self.makespan_cycles * self.n_warps))


@dataclass
class KernelStats:
    """Device-level aggregation over all blocks of a launch."""

    params_total_warps: int = 0
    blocks: list[BlockStats] = field(default_factory=list)
    kernel_cycles: float = 0.0  # max over SMs of summed block makespans
    transfer_cycles: float = 0.0  # host<->device communication
    spill_events: int = 0
    peak_device_words: int = 0

    def add_block(self, block: BlockStats) -> None:
        self.blocks.append(block)

    @property
    def total_cycles(self) -> float:
        return self.kernel_cycles + self.transfer_cycles

    @property
    def busy_cycles(self) -> float:
        return sum(b.busy_cycles for b in self.blocks)

    @property
    def compute_cycles(self) -> float:
        return sum(b.compute_cycles for b in self.blocks)

    @property
    def global_transactions(self) -> int:
        return sum(b.global_transactions for b in self.blocks)

    @property
    def steals(self) -> int:
        return sum(b.steals for b in self.blocks)

    @property
    def tasks_completed(self) -> int:
        return sum(b.tasks_completed for b in self.blocks)

    @property
    def utilization(self) -> float:
        """Warp-cycle utilization weighted by block makespan."""
        denom = sum(b.makespan_cycles * b.n_warps for b in self.blocks)
        if denom <= 0:
            return 1.0
        return min(1.0, sum(b.busy_cycles for b in self.blocks) / denom)

    def seconds(self, clock_hz: float) -> float:
        """Convert total cycles to model seconds."""
        return self.total_cycles / clock_hz

    def merge(self, other: "KernelStats") -> None:
        """Fold another launch's stats into this one (sequential launches)."""
        self.blocks.extend(other.blocks)
        self.kernel_cycles += other.kernel_cycles
        self.transfer_cycles += other.transfer_cycles
        self.spill_events += other.spill_events
        self.peak_device_words = max(self.peak_device_words, other.peak_device_words)
