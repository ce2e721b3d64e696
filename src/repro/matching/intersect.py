"""Shared CSR sorted-adjacency intersection kernels.

The paper's Gen-Candidates runs per-lane parallel binary searches of a
candidate set against a matched vertex's sorted adjacency. The flat
static-match enumerator narrows candidate arrays with these kernels and
the WBM kernel's array primitive looks its edges up with the same
``searchsorted`` positions, so they live here once: clamped positions,
a membership compare, and an optional aligned edge-label equality
mask.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import xp

from repro.graph.csr import sorted_membership

#: clamped positions + membership mask of ``values`` in a sorted array
#: (the graph layer owns the single implementation)
positions_in = sorted_membership


def intersect_sorted(
    cands: xp.ndarray,
    nbrs: xp.ndarray,
    elbls: Optional[xp.ndarray] = None,
    want_label: Optional[int] = None,
) -> xp.ndarray:
    """Members of ``cands`` present in the sorted adjacency ``nbrs``
    (optionally requiring the aligned edge label to equal
    ``want_label``). Preserves candidate order; empty adjacency yields
    an empty result."""
    if not len(nbrs):
        return cands[:0]
    pos, hit = positions_in(nbrs, cands)
    if elbls is not None:
        hit &= elbls[pos] == want_label
    return cands[hit]


def mask_members(
    mask: xp.ndarray, base: xp.ndarray, values: Iterable[int]
) -> None:
    """Clear ``mask`` bits of entries in sorted ``base`` equal to any of
    ``values`` (the injectivity filter: few values, one binary search
    each)."""
    n = len(base)
    for dv in values:
        i = int(xp.searchsorted(base, dv))
        if i < n and base[i] == dv:
            mask[i] = False

