"""Memory hierarchy of the virtual GPU.

``GlobalMemory`` tracks allocation against device capacity (the BFS
kernel's spill behaviour in Figure 5 comes from here) and lives as
long as the device — launches share it, so peak usage spans a whole
experiment. ``SharedMemory`` is the block-scoped scratchpad: it stores
real Python values (the work stealing protocol reads and writes
sibling warp state through it) while accounting capacity and access
counts; pooled launches :meth:`SharedMemory.reset` one instance per
block instead of reallocating it. ``HostDeviceLink`` prices PCIe
transfers — its cycles land in ``KernelStats.transfer_cycles`` and
become the Comm share of the Figure 5 breakdown.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import xp

from repro.errors import DeviceMemoryError, SharedMemoryError
from repro.gpu.params import DeviceParams


class GlobalMemory:
    """Device global memory: capacity tracking plus peak-usage stats."""

    def __init__(self, params: DeviceParams) -> None:
        self._params = params
        self._capacity = params.device_memory_words
        self._used = 0
        self.peak_used = 0

    @property
    def capacity_words(self) -> int:
        return self._capacity

    @property
    def used_words(self) -> int:
        return self._used

    @property
    def free_words(self) -> int:
        return self._capacity - self._used

    def alloc(self, n_words: int) -> None:
        """Reserve ``n_words``; raises :class:`DeviceMemoryError` when
        the device is full (callers may catch it to spill to host)."""
        if n_words < 0:
            raise DeviceMemoryError(f"negative allocation {n_words}")
        if self._used + n_words > self._capacity:
            raise DeviceMemoryError(
                f"device memory exhausted: want {n_words}, free {self.free_words}"
            )
        self._used += n_words
        self.peak_used = max(self.peak_used, self._used)

    def free(self, n_words: int) -> None:
        if n_words < 0 or n_words > self._used:
            raise DeviceMemoryError(f"invalid free of {n_words} (used {self._used})")
        self._used -= n_words


class SharedMemory:
    """Block-scoped scratchpad storing named Python values.

    Values are arbitrary objects; ``words`` passed at :meth:`alloc` time
    count against the block's shared-memory budget, mirroring how a
    CUDA kernel declares fixed-size shared arrays. Reads/writes return
    their cycle cost so the caller (a :class:`WarpContext`) can charge
    its clock.
    """

    def __init__(self, params: DeviceParams) -> None:
        self._params = params
        self._capacity = params.shared_memory_words
        self._used = 0
        self._store: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        self.accesses = 0

    @property
    def used_words(self) -> int:
        return self._used

    def reset(self) -> None:
        """Forget every allocation (pooled reuse between blocks).

        Equivalent to constructing a fresh instance: the next block's
        ``alloc`` calls see an empty scratchpad and a zeroed access
        counter, exactly as the per-block-construction oracle does.
        """
        self._store.clear()
        self._sizes.clear()
        self._used = 0
        self.accesses = 0

    def alloc(self, name: str, value: Any, words: int) -> None:
        """Declare a named shared allocation of ``words`` words."""
        if name in self._store:
            raise SharedMemoryError(f"shared allocation {name!r} already exists")
        if self._used + words > self._capacity:
            raise SharedMemoryError(
                f"shared memory exhausted: want {words}, free {self._capacity - self._used}"
            )
        self._store[name] = value
        self._sizes[name] = words
        self._used += words

    def read(self, name: str) -> tuple[Any, int]:
        """Return ``(value, cycle_cost)``."""
        if name not in self._store:
            raise SharedMemoryError(f"unknown shared allocation {name!r}")
        self.accesses += 1
        return self._store[name], self._params.shared_access_cycles

    def read_present(self, names: "Sequence[str]") -> tuple[list[tuple[str, Any]], int]:
        """Batched read of the subset of ``names`` currently allocated.

        Returns ``((name, value) pairs in input order, total cycle cost)``.
        Absent names cost nothing (the probe models a per-warp validity
        flag in registers, same as the ``in`` checks the scan oracle
        performs). Accounting is exact: ``n`` present names charge
        ``n * shared_access_cycles`` cycles and ``n`` accesses — the
        identical integers the per-name :meth:`read` loop would sum.
        """
        store = self._store
        out = [(name, store[name]) for name in names if name in store]
        self.accesses += len(out)
        return out, len(out) * self._params.shared_access_cycles

    def peek_present(self, names: "Sequence[str]") -> list[tuple[str, Any]]:
        """:meth:`read_present` without the accounting: the host-side
        view a closed-form pricing model takes of what the warps it
        stands for would read (they charge their reads themselves)."""
        store = self._store
        return [(name, store[name]) for name in names if name in store]

    def write(self, name: str, value: Any) -> int:
        """Overwrite a named allocation; returns cycle cost."""
        if name not in self._store:
            raise SharedMemoryError(f"unknown shared allocation {name!r}")
        self._store[name] = value
        self.accesses += 1
        return self._params.shared_access_cycles

    def __contains__(self, name: str) -> bool:
        return name in self._store


class Int64Arena:
    """Growable flat ``int64`` scratch buffer with stack discipline.

    Models the fixed shared-memory region a CUDA kernel would carve its
    per-warp DFS stacks out of: the level-stepped WBM workers push each
    frame's candidate run contiguously (``push`` returns the run's
    ``[start, end)`` bounds), read it back as a zero-copy ``view``, and
    reclaim on frame pop by truncating to the popped frame's start.
    An active thief shortens a victim frame in place by lowering the
    frame's recorded ``end`` and copying the stolen tail out. Note that
    a ``push`` may grow (reallocate) the buffer, invalidating earlier
    views — consume a view before the next push, or copy it (as the
    thieves do).
    """

    __slots__ = ("buf", "top")

    def __init__(self, capacity: int = 256) -> None:
        self.buf = xp.empty(max(capacity, 1), dtype=xp.int64)
        self.top = 0

    def push(self, values) -> tuple[int, int]:
        """Append ``values``; return the ``(start, end)`` bounds."""
        n = len(values)
        start = self.top
        need = start + n
        if need > len(self.buf):
            cap = len(self.buf)
            while cap < need:
                cap *= 2
            grown = xp.empty(cap, dtype=xp.int64)
            grown[:start] = self.buf[:start]
            self.buf = grown
        self.buf[start:need] = values
        self.top = need
        return start, need

    def view(self, start: int, end: int) -> xp.ndarray:
        """Zero-copy window into the buffer (do not mutate)."""
        return self.buf[start:end]

    def truncate(self, top: int) -> None:
        """Pop everything at or above ``top`` (LIFO reclamation)."""
        self.top = top


class HostDeviceLink:
    """PCIe transfer model: cycles = words / throughput."""

    def __init__(self, params: DeviceParams) -> None:
        self._params = params
        self.words_transferred = 0
        self.transfers = 0

    def transfer_cycles(self, n_words: int) -> float:
        """Price a host<->device transfer of ``n_words`` words."""
        if n_words < 0:
            raise DeviceMemoryError(f"negative transfer {n_words}")
        self.words_transferred += n_words
        self.transfers += 1
        return n_words / self._params.pcie_words_per_cycle
