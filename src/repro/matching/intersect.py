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


def segmented_positions_in(
    targets: xp.ndarray,
    target_segs: xp.ndarray,
    probes: xp.ndarray,
    probe_segs: xp.ndarray,
    stride: int,
) -> tuple[xp.ndarray, xp.ndarray]:
    """Multi-frame form of :func:`positions_in`: one ``searchsorted``
    resolves every probe against its *own* segment's sorted target run.

    ``targets`` is the concatenation of per-segment ascending runs with
    aligned segment ids ``target_segs`` (ascending); each probe ``i`` is
    looked up only in the run whose id equals ``probe_segs[i]``. Keying
    both sides as ``seg * stride + value`` (``stride`` strictly above
    every value, e.g. the CSR vertex count) makes the concatenated
    target keys globally sorted, so a single binary-search pass covers
    all frames — the fused Gen-Candidates gather of the launch-wide
    level step. Returns clamped positions into ``targets`` plus the
    membership mask; a probe whose segment has an empty run can never
    match (its key falls into a foreign segment's key range).
    """
    n = len(targets)
    if not n:
        return xp.zeros(len(probes), dtype=xp.int64), xp.zeros(
            len(probes), dtype=bool
        )
    stride = xp.int64(stride)
    tkeys = targets + target_segs * stride
    pkeys = probes + probe_segs * stride
    pos = xp.searchsorted(tkeys, pkeys)
    xp.minimum(pos, n - 1, out=pos)
    return pos, tkeys[pos] == pkeys


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


def drop_member(arr: xp.ndarray, value: int) -> xp.ndarray:
    """``arr`` without ``value`` (one binary search into the sorted
    array) — the per-child injectivity filter of the level-stepped DFS:
    a frame's children share one prefix-narrowed candidate run and each
    only needs its own assigned vertex removed. Returns ``arr`` itself
    when the value is absent (children may share the run read-only)."""
    i = int(xp.searchsorted(arr, value))
    if i < len(arr) and arr[i] == value:
        return xp.delete(arr, i)
    return arr


def gather_column(
    col: xp.ndarray, base: xp.ndarray, bound: int | None = None
) -> xp.ndarray:
    """``col[base]`` where ``col`` may be shorter than the id space
    (updates appended vertices after the column was built): out-of-range
    rows carry no claim. ``base`` is sorted, or ``bound`` is an
    exclusive upper bound on its ids (an unsorted caller must pass one)."""
    n_col = len(col)
    n_base = len(base)
    # one bounds check: the sorted base's last id, or the caller's bound
    if n_base and (base[-1] < n_col if bound is None else bound <= n_col):
        return col[base]
    out = xp.zeros(n_base, dtype=bool)
    in_range = base < n_col
    out[in_range] = col[base[in_range]]
    return out
