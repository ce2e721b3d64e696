"""Matching engines: the static oracle, Algorithm 1 (WBM), the BFS
variant, work stealing, and coalesced search."""

from repro.matching.static_match import find_matches, count_matches, oracle_delta
from repro.matching.intersect import intersect_sorted, mask_members, positions_in
from repro.matching.matching_order import matching_order_for_pair, order_with_prefix
from repro.matching.automorphism import (
    automorphisms,
    ordered_pair_orbits,
    is_automorphic,
)
from repro.matching.coalesced import (
    CoalescedPlan,
    CoalescedGroup,
    build_coalesced_plan,
    trivial_plan,
)
from repro.matching.wbm import (
    WBMConfig,
    MatchRecord,
    BatchResult,
    KernelOutput,
    PhaseEdges,
    QueryRuntime,
    gate_plan,
    launch_kernel,
)
from repro.matching.bfs_kernel import BFSEngine, BFSResult

__all__ = [
    "find_matches",
    "count_matches",
    "oracle_delta",
    "intersect_sorted",
    "mask_members",
    "positions_in",
    "matching_order_for_pair",
    "order_with_prefix",
    "automorphisms",
    "ordered_pair_orbits",
    "is_automorphic",
    "CoalescedPlan",
    "CoalescedGroup",
    "build_coalesced_plan",
    "trivial_plan",
    "WBMConfig",
    "MatchRecord",
    "BatchResult",
    "KernelOutput",
    "PhaseEdges",
    "QueryRuntime",
    "gate_plan",
    "launch_kernel",
    "BFSEngine",
    "BFSResult",
]
