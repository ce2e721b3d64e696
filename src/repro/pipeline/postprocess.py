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

from dataclasses import dataclass, field

from repro.errors import MatchingError
from repro.matching.launch_env import BatchResult, Match


class MatchCollector:
    """Accumulates signed incremental matches into a live match view.

    A match's net count is +1 (born since the initial state and alive),
    0 or -1 (an initial-state match since destroyed); the collector
    keeps the two nonzero classes as sets, so a batch costs set
    operations over its own matches, whatever the history."""

    def __init__(self) -> None:
        self._live: set[Match] = set()
        self._dead: set[Match] = set()
        self.total_positives = 0
        self.total_negatives = 0
        self.batches = 0

    def consume(self, result: BatchResult) -> None:
        pos, neg = set(result.positives), set(result.negatives)
        # a match reported both ways in one batch nets to no change
        both = pos & neg
        pos -= both
        neg -= both
        # anything leaving {-1, 0, 1} means an engine reported the same
        # birth or death twice
        for twice, count in ((pos & self._live, 2), (neg & self._dead, -2)):
            if twice:
                raise MatchingError(
                    f"inconsistent incremental stream: match {next(iter(twice))} "
                    f"has net count {count}"
                )
        reborn = pos & self._dead
        killed = neg & self._live
        self._dead -= reborn
        self._live -= killed
        self._live |= pos - reborn
        self._dead |= neg - killed
        self.total_positives += len(result.positives)
        self.total_negatives += len(result.negatives)
        self.batches += 1

    def live_matches(self) -> set[Match]:
        """Matches born since the initial state and still alive."""
        return set(self._live)

    def dead_matches(self) -> set[Match]:
        """Initial-state matches that have since been destroyed."""
        return set(self._dead)

    def net_change(self) -> int:
        return len(self._live) - len(self._dead)


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
