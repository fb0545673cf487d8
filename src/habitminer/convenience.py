"""Offline convenience scoring: saved interactions and saved waiting time.

The evaluator replays a held-out trace; at every activity boundary (each
distinct event end) it recognizes the recent window, predicts the next
pattern, and compares the prediction's likely services against the events
that actually start in the following window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Optional, Tuple

from .errors import DataError
from .events import SECONDS_PER_DAY, EventDatabase
from .predict import Observation, PredictionModel, predict_next, recognize

DEFAULT_WINDOW_MINUTES = 60
DEFAULT_INVOLVEMENT_THRESHOLD = 0.5


@dataclass(frozen=True)
class WaitTable:
    """Per-service waiting minutes; unknown services wait zero."""

    waits: Mapping[str, float]

    def __post_init__(self):
        for svc, w in self.waits.items():
            if w < 0:
                raise DataError(f"negative wait for {svc!r}")

    def wait(self, service_id: str) -> float:
        return self.waits.get(service_id, 0.0)


def saving_efforts(predicted: set, actual: set) -> Optional[float]:
    """Share of actual events that were predicted; None when nothing happened."""
    if not actual:
        return None
    return len(set(predicted) & set(actual)) / len(set(actual))


def saving_time(correct: set, waits: WaitTable) -> float:
    return sum(waits.wait(svc) for svc in set(correct))


@dataclass(frozen=True)
class WindowResult:
    sid: int
    day: int
    boundary: int
    predicted: Tuple[str, ...]
    actual: Tuple[str, ...]
    correct: Tuple[str, ...]
    efforts: Optional[float]
    time_saved: float


@dataclass(frozen=True)
class DayReport:
    day: int
    windows: int
    saving_efforts: Optional[float]
    saving_time: float


@dataclass
class ConvenienceReport:
    windows: list = field(default_factory=list)
    days: list = field(default_factory=list)
    overall_efforts: Optional[float] = None
    overall_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "days": [
                {
                    "day": d.day,
                    "windows": d.windows,
                    "saved_efforts": d.saving_efforts,
                    "saved_time_min": d.saving_time,
                }
                for d in self.days
            ],
            "overall": {
                "windows": len([w for w in self.windows if w.efforts is not None]),
                "saved_efforts": self.overall_efforts,
                "saved_time_min": self.overall_time,
            },
        }


def _aggregate(report: ConvenienceReport):
    by_day: dict = {}
    for w in report.windows:
        by_day.setdefault(w.day, []).append(w)
    for day in sorted(by_day):
        scored = [w.efforts for w in by_day[day] if w.efforts is not None]
        report.days.append(
            DayReport(
                day,
                len(scored),
                sum(scored) / len(scored) if scored else None,
                sum(w.time_saved for w in by_day[day]),
            )
        )
    scored = [w.efforts for w in report.windows if w.efforts is not None]
    report.overall_efforts = sum(scored) / len(scored) if scored else None
    report.overall_time = sum(w.time_saved for w in report.windows)


def evaluate(
    trace: EventDatabase,
    model: PredictionModel,
    waits: WaitTable,
    window: float = DEFAULT_WINDOW_MINUTES,
    involvement_threshold: float = DEFAULT_INVOLVEMENT_THRESHOLD,
) -> ConvenienceReport:
    """Replay a trace against a model and report per-day and overall savings.

    The predicted event set is the next pattern's services whose
    involvement probability reaches involvement_threshold.
    """
    window_s = int(window * 60)
    report = ConvenienceReport()
    for seq in trace.sequences:
        # observed: start in [t - window, t]; upcoming: start in (t, t + window]
        events = sorted(seq.events, key=attrgetter("start_time"))
        starts = [ev.start_time for ev in events]
        for t in sorted({ev.end_time for ev in seq.events}):
            first = bisect_left(starts, t - window_s)
            now = bisect_right(starts, t)
            if first == now:
                continue
            observed = tuple(events[first:now])
            actual = {
                ev.service_id for ev in events[now:bisect_right(starts, t + window_s)]
            }
            ranked = recognize(Observation(observed, now=t), model)
            top_id, top_scores = ranked[0]
            prediction = predict_next(top_id, model, top_scores)
            predicted: set = set()
            if prediction.next_id is not None:
                target = model.pattern_by_id(prediction.next_id)
                predicted = {
                    svc
                    for svc, p in target.base.entries
                    if p >= involvement_threshold
                }
            efforts = saving_efforts(predicted, actual)
            correct = predicted & actual
            report.windows.append(
                WindowResult(
                    sid=seq.sid,
                    day=t // SECONDS_PER_DAY,
                    boundary=t,
                    predicted=tuple(sorted(predicted)),
                    actual=tuple(sorted(actual)),
                    correct=tuple(sorted(correct)),
                    efforts=efforts,
                    time_saved=saving_time(correct, waits) if actual else 0.0,
                )
            )
    _aggregate(report)
    return report
