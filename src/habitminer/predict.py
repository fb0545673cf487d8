"""Recognize the ongoing activity and predict the next one.

A model pairs periodic probabilistic patterns with the transition matrix.
Recognition scores a partial observation against every pattern on three
axes (involved services, time of day, location); prediction follows the
highest-probability outgoing transition of the recognized pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .clustering import ProbabilisticCompositionPattern
from .errors import DataError
from .events import ServiceEvent, minute_of_day
from .periodic import MINUTES_PER_DAY, RepresentativeInterval
from .quality import temporal_coverage
from .relations import AllenRelation, TemporalMatrix


@dataclass(frozen=True)
class PeriodicPattern:
    """A probabilistic pattern plus its representative intervals."""

    pattern_id: str
    base: ProbabilisticCompositionPattern
    intervals: Tuple[RepresentativeInterval, ...]
    label: Optional[str] = None

    @property
    def top_interval(self) -> Optional[RepresentativeInterval]:
        if not self.intervals:
            return None
        return min(self.intervals, key=lambda iv: (-iv.probability, iv.start, iv.location))


@dataclass(frozen=True)
class PredictionModel:
    patterns: Tuple[PeriodicPattern, ...]
    matrix: TemporalMatrix
    vocabulary: Tuple[str, ...]
    weights: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.matrix.pattern_ids) != len(self.patterns):
            raise DataError("matrix dimension does not match pattern count")

    @cached_property
    def _patterns_by_id(self) -> dict:
        # reversed, so the first pattern of a repeated id wins
        return {p.pattern_id: p for p in reversed(self.patterns)}

    def pattern_by_id(self, pattern_id: str) -> PeriodicPattern:
        try:
            return self._patterns_by_id[pattern_id]
        except KeyError:
            raise DataError(f"unknown pattern id {pattern_id!r}") from None


@dataclass(frozen=True)
class Observation:
    """A partial event sequence; open events end at `now`."""

    events: Tuple[ServiceEvent, ...]
    now: Optional[int] = None

    def __post_init__(self):
        if not self.events:
            raise DataError("empty observation")

    @property
    def window(self) -> Tuple[int, int]:
        start = min(ev.start_time for ev in self.events)
        end = max(
            ev.end_time if ev.end_time is not None else self._now() for ev in self.events
        )
        return start, max(start, end)

    def _now(self) -> int:
        if self.now is None:
            raise DataError("observation has open events but no `now`")
        return self.now

    @property
    def region(self) -> str:
        tally: dict = {}
        for ev in self.events:
            tally[ev.region] = tally.get(ev.region, 0) + 1
        return min(tally, key=lambda r: (-tally[r], r))

    @property
    def present_types(self) -> frozenset:
        return frozenset(ev.service_id for ev in self.events)


@dataclass(frozen=True)
class Scores:
    total: float
    structure: float
    time: float
    location: float


@dataclass(frozen=True)
class Prediction:
    recognized_id: str
    recognized_scores: Scores
    next_id: Optional[str]
    interval: Optional[Tuple[int, int]]
    location: Optional[str]
    confidence: float
    relation: Optional[AllenRelation] = None


def _structure_similarity(pattern: PeriodicPattern, obs: Observation,
                          vocabulary: Sequence[str]) -> float:
    present = obs.present_types
    coords = set(vocabulary) | present
    d2 = 0.0
    for t in coords:
        d2 += (pattern.base.probability(t) - (1.0 if t in present else 0.0)) ** 2
    return 1.0 / (1.0 + math.sqrt(d2))


def _window_of_day(obs: Observation) -> Tuple[int, int]:
    start, end = obs.window
    m = minute_of_day(start)
    return m, m + max(0, (end // 60) - (start // 60))


def _time_similarity(pattern: PeriodicPattern, obs: Observation) -> Tuple[float, Optional[RepresentativeInterval]]:
    if not pattern.intervals:
        return 0.0, None
    w = _window_of_day(obs)
    best, best_iv = 0.0, None
    for iv in pattern.intervals:
        for shift in (-MINUTES_PER_DAY, 0, MINUTES_PER_DAY):
            value = temporal_coverage(
                [(iv.start, iv.end), (w[0] + shift, w[1] + shift)]
            )
            if value > best:
                best, best_iv = value, iv
    if best_iv is None:
        best_iv = pattern.top_interval
    return best, best_iv


def score(pattern: PeriodicPattern, obs: Observation, model: PredictionModel) -> Scores:
    """Structure + time + location similarity (weighted per the model)."""
    y_s = _structure_similarity(pattern, obs, model.vocabulary)
    y_t, matched = _time_similarity(pattern, obs)
    y_l = 1.0 if matched is not None and matched.location == obs.region else 0.0
    ws, wt, wl = model.weights
    return Scores(ws * y_s + wt * y_t + wl * y_l, y_s, y_t, y_l)


def recognize(obs: Observation, model: PredictionModel) -> list:
    """All patterns scored against the observation, best first."""
    if not model.patterns:
        raise DataError("empty model")
    scored = [(p.pattern_id, score(p, obs, model)) for p in model.patterns]
    scored.sort(key=lambda t: (-t[1].total, t[0]))
    return scored


def _interval_after(pattern: PeriodicPattern, boundary: Optional[int]) -> Optional[RepresentativeInterval]:
    if not pattern.intervals:
        return None
    if boundary is not None:
        eligible = [iv for iv in pattern.intervals if iv.start % MINUTES_PER_DAY >= boundary]
        if eligible:
            return min(eligible, key=lambda iv: (-iv.probability, iv.start, iv.location))
    return pattern.top_interval


def predict_next(recognized_id: str, model: PredictionModel,
                 recognized_scores: Optional[Scores] = None) -> Prediction:
    """Most probable successor with its expected interval and location."""
    i = model.matrix.index_of(recognized_id)
    scores = recognized_scores or Scores(0.0, 0.0, 0.0, 0.0)
    row = model.matrix.row(i)
    candidates = [(j, c) for j, c in row.items() if c.tran_pro > 0]
    if not candidates:
        return Prediction(recognized_id, scores, None, None, None, 0.0)
    j, cell = min(candidates, key=lambda t: (-t[1].tran_pro, model.matrix.pattern_ids[t[0]]))
    target = model.pattern_by_id(model.matrix.pattern_ids[j])

    source = model.pattern_by_id(recognized_id)
    boundary = None
    if source.top_interval is not None:
        boundary = source.top_interval.end % MINUTES_PER_DAY
    interval = _interval_after(target, boundary)
    if interval is None:
        return Prediction(
            recognized_id, scores, target.pattern_id, None, None, 0.0, cell.top_relation
        )
    return Prediction(
        recognized_id,
        scores,
        target.pattern_id,
        (interval.start, interval.end),
        interval.location,
        cell.tran_pro * interval.probability,
        cell.top_relation,
    )
