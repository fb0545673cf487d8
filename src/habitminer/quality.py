"""Pattern quality scoring: statistical significance plus spatio-temporal
proximity, and the pruning filter built on both."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from .errors import ConfigError, DataError
from .events import EventDatabase, partition_by_region
from .mining import CompositionPattern, Embeddings, PatternInstance

DEFAULT_EPSILON = 1.0  # minimum Manhattan distance (grid resolution)


@dataclass(frozen=True)
class RegionProbabilities:
    probabilities: Mapping[str, float]
    total_events: int


@dataclass(frozen=True)
class EventProbabilityTable:
    """Per-region empirical event-type probabilities."""

    regions: Mapping[str, RegionProbabilities]

    @classmethod
    def from_database(cls, db: EventDatabase) -> "EventProbabilityTable":
        tables = {}
        for region, sub in partition_by_region(db).items():
            counts: dict = {}
            total = 0
            for seq in sub.sequences:
                for ev in seq.events:
                    counts[ev.service_id] = counts.get(ev.service_id, 0) + 1
                    total += 1
            tables[region] = RegionProbabilities(
                {svc: n / total for svc, n in counts.items()}, total
            )
        return cls(tables)

    def probability(self, region: str, service_id: str) -> float:
        try:
            reg = self.regions[region]
        except KeyError:
            raise DataError(f"no probability table for region {region!r}") from None
        try:
            return reg.probabilities[service_id]
        except KeyError:
            raise DataError(
                f"unknown event type {service_id!r} in region {region!r}"
            ) from None

    def total_events(self, region: str) -> int:
        try:
            return self.regions[region].total_events
        except KeyError:
            raise DataError(f"no probability table for region {region!r}") from None


def expected_support(seq, table: EventProbabilityTable, region: str) -> float:
    """Expected occurrence count: product of start-symbol probabilities
    times the region's event total. End symbols contribute no factor."""
    p = 1.0
    for sym in seq:
        if not sym.is_end:
            p *= table.probability(region, sym.service_id)
    return p * table.total_events(region)


def significance(pattern: CompositionPattern, table: EventProbabilityTable) -> float:
    """Deviation of observed support from expectation, in expected-sd units."""
    if pattern.region is None:
        raise DataError("pattern has no region; cannot look up probabilities")
    expect = expected_support(pattern.seq, table, pattern.region)
    if expect == 0:
        raise DataError(f"pattern {pattern.tokens} impossible under the table")
    return (pattern.support - expect) / math.sqrt(expect)


def _instance_spatial(instance: PatternInstance, epsilon: float) -> float:
    ordered = sorted(
        instance.events, key=lambda ev: (ev.start_time, ev.end_time, ev.service_id)
    )
    total = 0.0
    for a, b in zip(ordered, ordered[1:]):
        if a.start_coord is None or b.start_coord is None:
            raise DataError(
                f"instance in sid {instance.sid} lacks coordinates; set w1 = 0"
            )
        d = abs(a.start_coord[0] - b.start_coord[0]) + abs(
            a.start_coord[1] - b.start_coord[1]
        )
        total += 1.0 / max(d, epsilon)
    return total


def spatial_proximity(pattern: CompositionPattern, epsilon: float = DEFAULT_EPSILON) -> float:
    """Average of per-instance summed inverse Manhattan distances between
    consecutive services (start-time order); zero for single-service patterns."""
    if not pattern.instances:
        return 0.0
    return sum(_instance_spatial(inst, epsilon) for inst in pattern.instances) / len(
        pattern.instances
    )


def temporal_coverage(intervals: Sequence[Tuple[float, float]]) -> float:
    """Integrated indicator mass over the joint span, normalized by span
    and interval count. 1.0 when every interval equals the joint span."""
    n = len(intervals)
    if n == 0:
        return 0.0
    lo = min(s for s, _ in intervals)
    hi = max(e for _, e in intervals)
    span = hi - lo
    if span == 0:
        return 1.0
    return sum(e - s for s, e in intervals) / (span * n)


def _mean_coverage(embeddings, start_at, end_at) -> float:
    """Mean temporal coverage over (index, positions) pairs, each naming
    the intervals (start_at[index][p], end_at[index][p]) for p in positions.

    Each pair is read in one pass and gives the same value as
    `temporal_coverage` over its intervals; a pair without positions
    gives 0.0."""
    total = 0.0
    for i, positions in embeddings:
        if not positions:
            continue
        starts, ends = start_at[i], end_at[i]
        first = positions[0]
        lo, hi = starts[first], ends[first]
        mass = 0
        for p in positions:
            start, end = starts[p], ends[p]
            mass += end - start
            if start < lo:
                lo = start
            if end > hi:
                hi = end
        span = hi - lo
        total += 1.0 if span == 0 else mass / (span * len(positions))
    return total / len(embeddings)


def temporal_proximity(pattern: CompositionPattern) -> float:
    """Average per-instance temporal coverage.

    A mined pattern is scored from its Embeddings' start and end times,
    without building an instance; other instances from their events, by
    the same arithmetic. This is the proximity term every pattern gets;
    the spatial term is computed only as `score_pattern` describes."""
    instances = pattern.instances
    if not instances:
        return 0.0
    if isinstance(instances, Embeddings):
        return _mean_coverage(instances.pairs, instances.start_at, instances.end_at)
    start_at = [[ev.start_time for ev in inst.events] for inst in instances]
    end_at = [[ev.end_time for ev in inst.events] for inst in instances]
    embeddings = [(i, range(len(inst.events))) for i, inst in enumerate(instances)]
    return _mean_coverage(embeddings, start_at, end_at)


@dataclass(frozen=True)
class QualityScore:
    significance: float
    spatial_proximity: Optional[float]
    temporal_proximity: float
    combined: float
    w1: float
    w2: float


@dataclass(frozen=True)
class ScoredPattern:
    pattern: CompositionPattern
    score: QualityScore


def score_pattern(
    pattern: CompositionPattern,
    table: EventProbabilityTable,
    w1: float,
    w2: float,
    epsilon: float = DEFAULT_EPSILON,
    minsig: float = -math.inf,
    minpro: float = -math.inf,
) -> QualityScore:
    """Significance, both proximities and their weighted combination.

    At w1 != 0 the spatial term is always computed, and a pattern without
    coordinates raises DataError when w1 > 0 (it scores None otherwise).
    At w1 == 0 the combination is w2 * temporal exactly, so the spatial
    term decides nothing: it is computed (None without coordinates) only
    for a pattern meeting both minsig and minpro, and is None for the
    rest. The default thresholds compute it for every pattern.
    """
    sig = significance(pattern, table)
    temp = temporal_proximity(pattern)
    spa: Optional[float] = None
    if w1 == 0:
        combined = w2 * temp
        if sig >= minsig and combined >= minpro:
            try:
                spa = spatial_proximity(pattern, epsilon)
            except DataError:
                pass
    else:
        try:
            spa = spatial_proximity(pattern, epsilon)
        except DataError:
            if w1 > 0:
                raise
        combined = w1 * (spa or 0.0) + w2 * temp
    return QualityScore(sig, spa, temp, combined, w1, w2)


def filter_quality(
    patterns: Sequence[CompositionPattern],
    table: EventProbabilityTable,
    minsig: float,
    minpro: float,
    w1: float,
    w2: float,
    epsilon: float = DEFAULT_EPSILON,
) -> list:
    """Score every pattern and keep those meeting both thresholds."""
    if not math.isclose(w1 + w2, 1.0, abs_tol=1e-9):
        raise ConfigError(f"proximity weights must sum to 1, got {w1} + {w2}")
    if w1 < 0 or w2 < 0:
        raise ConfigError("proximity weights must be nonnegative")
    survivors = []
    for pattern in patterns:
        score = score_pattern(pattern, table, w1, w2, epsilon, minsig, minpro)
        if score.significance >= minsig and score.combined >= minpro:
            survivors.append(ScoredPattern(pattern, score))
    return survivors
