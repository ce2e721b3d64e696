"""Postprocessing: consuming incremental matches (Figure 3's last box).

The paper leaves the postprocess application-specific ("utilizes the
matching results for application-specific tasks"); the library ships
two generic sinks used by the examples and the pipeline model:

* :class:`MatchCollector` — maintains the net signed multiset of
  matches across batches (the running "current matches" view) plus
  counters;
* :class:`ThroughputMeter` — rolls latency/throughput statistics over
  a stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import MatchingError
from repro.matching.launch_env import BatchResult, Match


class MatchCollector:
    """Accumulates signed incremental matches into a live match view."""

    def __init__(self) -> None:
        self._net: Counter = Counter()
        self.total_positives = 0
        self.total_negatives = 0
        self.batches = 0

    def consume(self, result: BatchResult) -> None:
        for m in result.positives:
            self._net[m] += 1
        for m in result.negatives:
            self._net[m] -= 1
        self.total_positives += len(result.positives)
        self.total_negatives += len(result.negatives)
        self.batches += 1
        # a match may be born (+1), unchanged (0), or — when it existed
        # in the initial graph — die (−1); anything else means an engine
        # reported the same birth/death twice
        bad = [m for m, c in self._net.items() if c not in (-1, 0, 1)]
        if bad:
            raise MatchingError(
                f"inconsistent incremental stream: match {bad[0]} has net count "
                f"{self._net[bad[0]]}"
            )

    def live_matches(self) -> set[Match]:
        """Matches born since the initial state and still alive."""
        return {m for m, c in self._net.items() if c == 1}

    def dead_matches(self) -> set[Match]:
        """Initial-state matches that have since been destroyed."""
        return {m for m, c in self._net.items() if c == -1}

    def net_change(self) -> int:
        return sum(self._net.values())


@dataclass
class ThroughputMeter:
    """Latency/throughput accounting over a stream of batches."""

    latencies: list[float] = field(default_factory=list)
    updates: list[int] = field(default_factory=list)

    def record(self, latency_seconds: float, n_updates: int) -> None:
        self.latencies.append(latency_seconds)
        self.updates.append(n_updates)

    @property
    def total_seconds(self) -> float:
        return sum(self.latencies)

    @property
    def avg_latency(self) -> float:
        return self.total_seconds / len(self.latencies) if self.latencies else 0.0

    @property
    def updates_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return sum(self.updates) / self.total_seconds
