"""Shared CSR sorted-adjacency intersection kernels.

The paper's Gen-Candidates runs per-lane parallel binary searches of a
candidate set against a matched vertex's sorted adjacency. Every array
consumer in this repo — the WBM kernel, the BFS variant, and the flat
static-match enumerator — narrows candidate arrays the same way, so the
primitive lives here once: ``searchsorted`` positions, a clamped
membership compare, and an optional aligned edge-label equality mask.
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


def gather_column(col: xp.ndarray, base: xp.ndarray) -> xp.ndarray:
    """``col[base]`` for a sorted ``base``, where ``col`` may be shorter
    than the id space (updates appended vertices after the column was
    built): out-of-range rows carry no claim."""
    n_col = len(col)
    n_base = len(base)
    # one bounds check: the sorted base's last id
    if n_base and base[-1] < n_col:
        return col[base]
    out = xp.zeros(n_base, dtype=bool)
    in_range = base < n_col
    out[in_range] = col[base[in_range]]
    return out
