"""Recognize the ongoing activity and predict the next one.

A model pairs periodic probabilistic patterns with the transition matrix.
Recognition scores a partial observation against every pattern on three
axes (involved services, time of day, location); prediction follows the
highest-probability outgoing transition of the recognized pattern.

Both run against tables a model builds once: per pattern, its squared
distances to "absent" and "present" on every vocabulary coordinate, and
per recognized id, the whole successor prediction. The structure distance
is summed with `math.fsum`, which is exact before its one rounding, so
scores do not depend on the order services are visited in (and so not on
the interpreter's hash seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple

from .clustering import ProbabilisticCompositionPattern
from .errors import DataError
from .events import ServiceEvent, minute_of_day
from .periodic import MINUTES_PER_DAY, RepresentativeInterval
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


class _PatternTable(NamedTuple):
    """What scoring needs of one pattern, laid out over the model vocabulary."""

    pattern_id: str
    absent: list  # (p - 0)^2 per vocabulary coordinate
    present: list  # (p - 1)^2 per vocabulary coordinate
    probability: Callable[[str], float]  # for services outside the vocabulary
    intervals: tuple  # (start, end, interval) per representative interval
    fallback: Optional[RepresentativeInterval]


def _pattern_table(pattern: PeriodicPattern, vocabulary_index: dict) -> _PatternTable:
    probs = [pattern.base.probability(t) for t in vocabulary_index]
    return _PatternTable(
        pattern.pattern_id,
        [(p - 0.0) ** 2 for p in probs],
        [(p - 1.0) ** 2 for p in probs],
        pattern.base.probability,
        tuple((iv.start, iv.end, iv) for iv in pattern.intervals),
        pattern.top_interval,
    )


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

    @cached_property
    def _vocabulary_index(self) -> dict:
        """Service -> coordinate, over the sorted distinct vocabulary."""
        return {svc: i for i, svc in enumerate(sorted(set(self.vocabulary)))}

    @cached_property
    def _pattern_tables(self) -> Tuple[_PatternTable, ...]:
        return tuple(_pattern_table(p, self._vocabulary_index) for p in self.patterns)

    @cached_property
    def _successors(self) -> dict:
        """Recognized id -> (next id, interval, location, confidence,
        relation) of its prediction, or None when its row is empty.

        The successor is the row's most probable transition, ties to the
        smaller id; a repeated matrix id keeps its first row. A transition
        from or to an id no pattern has raises DataError."""
        ids = self.matrix.pattern_ids
        best: dict = {}
        for (i, j), cell in self.matrix.cells.items():
            if cell.tran_pro > 0:
                key = (-cell.tran_pro, ids[j])
                if i not in best or key < best[i][0]:
                    best[i] = (key, j, cell)
        out: dict = {}
        for i, recognized_id in enumerate(ids):
            if recognized_id in out:
                continue
            if i not in best:
                out[recognized_id] = None
                continue
            _, j, cell = best[i]
            target = self.pattern_by_id(ids[j])
            top = self.pattern_by_id(recognized_id).top_interval
            boundary = None if top is None else top.end % MINUTES_PER_DAY
            interval = _interval_after(target, boundary)
            if interval is None:
                out[recognized_id] = (target.pattern_id, None, None, 0.0, cell.top_relation)
            else:
                out[recognized_id] = (
                    target.pattern_id,
                    (interval.start, interval.end),
                    interval.location,
                    cell.tran_pro * interval.probability,
                    cell.top_relation,
                )
        return out


@dataclass(frozen=True)
class Observation:
    """A partial event sequence; open events end at `now`."""

    events: Tuple[ServiceEvent, ...]
    now: Optional[int] = None

    def __post_init__(self):
        if not self.events:
            raise DataError("empty observation")

    @cached_property
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

    @cached_property
    def region(self) -> str:
        tally: dict = {}
        for ev in self.events:
            tally[ev.region] = tally.get(ev.region, 0) + 1
        return min(tally, key=lambda r: (-tally[r], r))

    @cached_property
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


class _Features(NamedTuple):
    """What scoring needs of one observation, computed once for all patterns."""

    present: list  # vocabulary coordinates of the observed services
    outside: list  # observed services outside the vocabulary
    windows: tuple  # window of day shifted a day back, unshifted, a day on
    region: str


def _features(obs: Observation, vocabulary_index: dict) -> _Features:
    present, outside = [], []
    for svc in obs.present_types:
        i = vocabulary_index.get(svc)
        if i is None:
            outside.append(svc)
        else:
            present.append(i)
    start, end = obs.window
    m = minute_of_day(start)
    w0, w1 = m, m + max(0, (end // 60) - (start // 60))
    windows = tuple((w0 + shift, w1 + shift) for shift in (-MINUTES_PER_DAY, 0, MINUTES_PER_DAY))
    return _Features(present, outside, windows, obs.region)


def _score(table: _PatternTable, features: _Features, weights) -> Scores:
    _, absent, present_sq, probability, intervals, fallback = table
    present, outside, windows, region = features

    # Y_s: Euclidean distance over the vocabulary plus the observed
    # services outside it, between involvement and presence
    terms = absent.copy()
    for i in present:
        terms[i] = present_sq[i]
    for svc in outside:
        terms.append((probability(svc) - 1.0) ** 2)
    y_s = 1.0 / (1.0 + math.sqrt(math.fsum(terms)))

    # Y_T: best temporal coverage of an interval and the window of day,
    # the two-interval case of quality.temporal_coverage, same arithmetic
    y_t, matched = 0.0, None
    for start, end, iv in intervals:
        for w0, w1 in windows:
            lo = start if start <= w0 else w0
            hi = end if end >= w1 else w1
            span = hi - lo
            value = 1.0 if span == 0 else ((end - start) + (w1 - w0)) / (span * 2)
            if value > y_t:
                y_t, matched = value, iv
    if matched is None:
        matched = fallback  # the top interval; None without intervals

    y_l = 1.0 if matched is not None and matched.location == region else 0.0
    ws, wt, wl = weights
    return Scores(ws * y_s + wt * y_t + wl * y_l, y_s, y_t, y_l)


def score(pattern: PeriodicPattern, obs: Observation, model: PredictionModel) -> Scores:
    """Structure + time + location similarity (weighted per the model)."""
    index = model._vocabulary_index
    return _score(_pattern_table(pattern, index), _features(obs, index), model.weights)


def recognize(obs: Observation, model: PredictionModel) -> list:
    """All patterns scored against the observation, best first."""
    if not model.patterns:
        raise DataError("empty model")
    features = _features(obs, model._vocabulary_index)
    weights = model.weights
    scored = [(t.pattern_id, _score(t, features, weights)) for t in model._pattern_tables]
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
    try:
        successor = model._successors[recognized_id]
    except KeyError:
        raise DataError(f"unknown pattern id {recognized_id!r}") from None
    scores = recognized_scores or Scores(0.0, 0.0, 0.0, 0.0)
    if successor is None:
        return Prediction(recognized_id, scores, None, None, None, 0.0)
    return Prediction(recognized_id, scores, *successor)
