"""Implicit segment-location tree with top-k shared-memory caching.

Locating the leaf segment of an update key walks an implicit binary
tree over segment first-keys. GPMA keeps the whole tree in global
memory; the paper's optimization (§V-C) loads the top-k levels into
shared memory, converting the first k probes of every location into
cheap shared-memory reads. :class:`SegmentIndex` performs the actual
tree walk (validated against the PMA's bisect) and reports the cost
split for the chosen ``cached_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import xp
from repro.pma.pma import PMA


@dataclass(frozen=True)
class LocateCost:
    """Probe counts for one leaf location."""

    shared_probes: int
    global_probes: int


class SegmentIndex:
    """Binary tree over a PMA's per-segment first keys.

    ``tree[level][i]`` is the minimum key of the i-th window at that
    level (level 0 = leaves = segments). Rebuild after PMA structural
    changes (the GPMA layer rebuilds once per batch, which is also how
    the real system amortizes it).
    """

    def __init__(self, pma: PMA, cached_levels: int = 3) -> None:
        self.cached_levels = cached_levels
        firsts = xp.asarray(pma._seg_first, dtype=xp.int64)
        # each level is a stride view of the leaves: window minima are
        # the first keys of every 2^level-th segment (no copies)
        self.levels: list[xp.ndarray] = [firsts]
        while len(self.levels[-1]) > 1:
            self.levels.append(self.levels[-1][::2])
        self.height = len(self.levels) - 1

    def locate(self, key: int) -> tuple[int, LocateCost]:
        """Leaf segment index for ``key`` plus the probe cost split.

        The walk starts at the root and at each level decides between
        the two children by probing the right child's minimum key.
        """
        idx = 0
        shared = global_ = 0
        for level in range(self.height, 0, -1):
            below = self.levels[level - 1]
            right = idx * 2 + 1
            # one probe of the right child's min key
            depth_from_root = self.height - level
            if depth_from_root < self.cached_levels:
                shared += 1
            else:
                global_ += 1
            # fill-forward sentinels compare like real keys so the walk
            # lands on exactly the segment PMA's bisect would choose
            if right < len(below) and key >= below[right]:
                idx = right
            else:
                idx = idx * 2
        return idx, LocateCost(shared, global_)

    def locate_bulk(self, keys) -> tuple[xp.ndarray, LocateCost]:
        """Vectorized :meth:`locate` over many keys.

        The walk's leaf is exactly the rightmost segment whose
        fill-forward first key is ``<= key`` (ties descend right), i.e.
        one ``searchsorted``; and the probe split is deterministic —
        every location probes once per level, the top ``cached_levels``
        of them shared. Returns the leaf array plus the *summed* cost,
        identical to accumulating per-key :meth:`locate` calls.
        """
        arr = xp.asarray(keys, dtype=xp.int64)
        firsts = xp.asarray(self.levels[0], dtype=xp.int64)
        leaves = xp.searchsorted(firsts, arr, side="right") - 1
        xp.maximum(leaves, 0, out=leaves)
        shared_per = min(self.cached_levels, self.height)
        global_per = self.height - shared_per
        return leaves, LocateCost(shared_per * len(arr), global_per * len(arr))
