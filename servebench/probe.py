"""Host-speed reference probe and the drift normalization built on it.

On a small shared VM the same code runs 15-30% faster or slower from
one minute to the next, so raw wall time cannot repeat within a tenth.
The probe is a fixed amount of work shaped like the serving stack's
own: an interpreter-bound half (dict and loop work with small
``searchsorted`` calls, like the per-launch Python) and a memory-bound
half (``searchsorted`` and ``sort`` over an ~8 MB array, like store
commits over a large graph). Timing it right before and right after an
interval says how fast the host ran during that interval, and
:func:`normalize` rescales the interval to a host running at
:data:`NOMINAL_S`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: the probe's duration on the reference host (2-vCPU x86 VM); only the
#: ratio to it matters, so it is a fixed constant, never re-calibrated
NOMINAL_S = 0.012

_BIG = 1 << 20  # int64 entries: 8 MB
_KEYS = 1 << 14
_SORT = 1 << 17
_LOOP = 24000


class HostProbe:
    """A fixed, deterministic unit of host work; :meth:`measure` returns
    its wall seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240517)
        self.big = np.sort(rng.integers(0, 1 << 40, _BIG))
        self.keys = rng.integers(0, 1 << 40, _KEYS)
        self.to_sort = rng.integers(0, 1 << 40, _SORT)
        self.small = np.arange(0, 256, 4)
        self.sink = 0

    def measure(self) -> float:
        t0 = perf_counter()
        # interpreter-bound half
        table: dict[int, int] = {}
        small = self.small
        acc = 0
        for i in range(_LOOP):
            k = i & 127
            table[k] = table.get(k, 0) + i
            if not i & 7:
                acc += int(np.searchsorted(small, k))
        # memory-bound half: random probes into, and a sort beside, 8 MB
        pos = np.searchsorted(self.big, self.keys)
        srt = np.sort(self.to_sort)
        acc += int(pos[-1]) + int(srt[0]) + len(table)
        self.sink = acc  # consume the results inside the timed region
        return perf_counter() - t0


def normalize(raw_s: float, probe_before_s: float, probe_after_s: float,
              nominal_s: float = NOMINAL_S) -> float:
    """``raw_s`` as it would read on a host where the probe takes
    ``nominal_s``: scaled by the nominal over the adjacent probes' mean."""
    return raw_s * nominal_s / ((probe_before_s + probe_after_s) / 2.0)


class ProbedClock:
    """Times calls between probes: each interval is bracketed by the
    probe taken just before it and one taken just after it, and the
    after-probe of one call is the before-probe of the next unless
    :meth:`refresh` is called for intervening work."""

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.probes: list[float] = []
        self._last = self._take()

    def _take(self) -> float:
        p = self.probe.measure()
        self.probes.append(p)
        return p

    def refresh(self) -> None:
        """Re-probe after untimed work, so the next interval's
        before-probe is adjacent to it."""
        self._last = self._take()

    def time(self, fn, *args):
        """``(result, raw_s, normalized_s)`` of ``fn(*args)``."""
        t0 = perf_counter()
        out = fn(*args)
        raw = perf_counter() - t0
        after = self._take()
        norm = normalize(raw, self._last, after)
        self._last = after
        return out, raw, norm
