"""Event data model, log ingestion, segmentation and region partitioning.

Timestamps are integers (seconds since a naive 1970-01-01 epoch); all
time-of-day arithmetic downstream works in whole minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DataError, ParseError

SECONDS_PER_DAY = 86400

_EPOCH = datetime(1970, 1, 1)


def to_timestamp(dt: datetime) -> int:
    """Naive datetime -> integer epoch seconds (no timezone applied)."""
    return int((dt - _EPOCH).total_seconds())


def from_timestamp(ts: int) -> datetime:
    return _EPOCH + timedelta(seconds=ts)


def minute_of_day(ts: int) -> int:
    return (ts // 60) % 1440


@dataclass(frozen=True)
class ServiceEvent:
    """One interval-based usage record of one service.

    end_time may be None only for still-open events inside observations;
    databases require closed intervals.
    """

    service_id: str
    start_time: int
    end_time: Optional[int]
    region: str
    start_coord: Optional[Tuple[float, float]] = None
    end_coord: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if self.end_time is not None and self.start_time > self.end_time:
            raise DataError(
                f"event {self.service_id}: start {self.start_time} after end {self.end_time}"
            )
        if not self.region:
            raise DataError(f"event {self.service_id}: empty region label")
        if (self.start_coord is None) != (self.end_coord is None):
            raise DataError(
                f"event {self.service_id}: start/end coordinates must come in pairs"
            )

    @property
    def duration(self) -> int:
        if self.end_time is None:
            raise DataError(f"event {self.service_id} is still open")
        return self.end_time - self.start_time


@dataclass(frozen=True, order=True)
class EndpointSymbol:
    """A service start (+) or end (-) marker; totally ordered."""

    service_id: str
    is_end: bool

    @classmethod
    def start(cls, service_id: str) -> "EndpointSymbol":
        return cls(service_id, False)

    @classmethod
    def end(cls, service_id: str) -> "EndpointSymbol":
        return cls(service_id, True)

    @classmethod
    def parse(cls, token: str) -> "EndpointSymbol":
        if len(token) < 2 or token[-1] not in "+-":
            raise DataError(f"bad endpoint token {token!r}")
        return cls(token[:-1], token[-1] == "-")

    @property
    def token(self) -> str:
        return self.service_id + ("-" if self.is_end else "+")

    def __str__(self) -> str:
        return self.token


@dataclass(frozen=True)
class Endpoint:
    """One entry of a canonical endpoint list: symbol, time and its event."""

    symbol: EndpointSymbol
    time: int
    event_index: int


@dataclass(frozen=True)
class EventSequence:
    sid: int
    events: Tuple[ServiceEvent, ...]

    @cached_property
    def endpoints(self) -> Tuple[Endpoint, ...]:
        """Endpoints sorted by time; ends before starts on ties, then by id."""
        entries = []
        for i, ev in enumerate(self.events):
            entries.append(Endpoint(EndpointSymbol.start(ev.service_id), ev.start_time, i))
            entries.append(Endpoint(EndpointSymbol.end(ev.service_id), ev.end_time, i))
        entries.sort(
            key=lambda e: (e.time, not e.symbol.is_end, e.symbol.service_id, e.event_index)
        )
        return tuple(entries)

    @property
    def service_ids(self) -> set:
        return {ev.service_id for ev in self.events}


@dataclass(frozen=True)
class EventDatabase:
    sequences: Tuple[EventSequence, ...] = ()

    def __post_init__(self):
        sids = [s.sid for s in self.sequences]
        if len(sids) != len(set(sids)):
            raise DataError("duplicate sequence ids in database")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def event_count(self) -> int:
        return sum(len(s.events) for s in self.sequences)

    @property
    def regions(self) -> Tuple[str, ...]:
        return tuple(sorted({ev.region for s in self.sequences for ev in s.events}))


@dataclass
class ParseDiagnostics:
    """Tally of records that needed repair or were dropped during parsing."""

    skipped_off: int = 0
    auto_closed_on_restart: int = 0
    auto_closed_end_of_day: int = 0
    rejected_lines: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "skipped_off": self.skipped_off,
            "auto_closed_on_restart": self.auto_closed_on_restart,
            "auto_closed_end_of_day": self.auto_closed_end_of_day,
            "rejected_lines": list(self.rejected_lines),
        }

    def summary(self) -> str:
        return (
            f"skipped OFF without ON: {self.skipped_off}, "
            f"auto-closed at next ON: {self.auto_closed_on_restart}, "
            f"auto-closed at end of day: {self.auto_closed_end_of_day}, "
            f"rejected lines: {len(self.rejected_lines)}"
        )


def _parse_stamp(text: str, lineno: int) -> int:
    try:
        return to_timestamp(datetime.fromisoformat(text))
    except ValueError:
        raise ParseError(lineno, f"bad timestamp {text!r}") from None


def _parse_time_field(text: str, lineno: int) -> int:
    """Accepts HH:MM[:SS] (day zero) or a full ISO timestamp."""
    text = text.strip()
    parts = text.split(":")
    if "-" not in text and 2 <= len(parts) <= 3 and all(p.isdigit() for p in parts):
        h, m = int(parts[0]), int(parts[1])
        s = int(parts[2]) if len(parts) == 3 else 0
        if h > 23 or m > 59 or s > 59:
            raise ParseError(lineno, f"bad time of day {text!r}")
        return h * 3600 + m * 60 + s
    return _parse_stamp(text, lineno)


def parse_casas(
    lines: Iterable[str],
    diagnostics: Optional[ParseDiagnostics] = None,
    region_map: Optional[dict] = None,
    default_region: str = "all",
) -> list:
    """Parse whitespace-separated "DATE TIME SENSOR STATE" lines.

    Each ON opens an interval that is closed by the next OFF of the same
    sensor. An ON arriving while another is pending closes the pending one
    at the new ON's time; an ON never answered is closed at the end of its
    day. OFF without a pending ON is dropped and tallied.

    The format carries no location, so events get default_region unless a
    sensor -> region map is supplied.
    """
    diag = diagnostics if diagnostics is not None else ParseDiagnostics()
    regions = region_map or {}
    pending: dict = {}  # sensor -> start timestamp
    events = []

    def close(sensor: str, start: int, end: int):
        # out-of-order OFF stamps are clamped to a zero-length interval
        events.append(
            ServiceEvent(sensor, start, max(start, end), regions.get(sensor, default_region))
        )

    def close_pending_before(ts: Optional[int]):
        # flush ONs whose day ended before ts (or all of them when ts is None)
        for sensor in sorted(pending):
            start = pending[sensor]
            day_end = (start // SECONDS_PER_DAY + 1) * SECONDS_PER_DAY
            if ts is None or day_end <= ts:
                close(sensor, start, day_end)
                diag.auto_closed_end_of_day += 1
                del pending[sensor]

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 4:
            raise ParseError(lineno, f"expected DATE TIME SENSOR STATE, got {line!r}")
        date, time, sensor, state = fields[0], fields[1], fields[2], fields[3]
        if state not in ("ON", "OFF"):
            raise ParseError(lineno, f"state must be ON or OFF, got {state!r}")
        ts = _parse_stamp(f"{date} {time}", lineno)
        close_pending_before(ts)
        if state == "ON":
            if sensor in pending:
                close(sensor, pending[sensor], ts)
                diag.auto_closed_on_restart += 1
            pending[sensor] = ts
        else:
            if sensor in pending:
                close(sensor, pending.pop(sensor), ts)
            else:
                diag.skipped_off += 1

    close_pending_before(None)
    events.sort(key=lambda e: (e.start_time, e.end_time, e.service_id))
    return events


def parse_interval(
    lines: Iterable[str], diagnostics: Optional[ParseDiagnostics] = None
) -> list:
    """Parse comma-separated "id,start,end,region[,x,y]" lines.

    Lines whose end precedes their start are rejected and tallied rather
    than aborting the whole file.
    """
    diag = diagnostics if diagnostics is not None else ParseDiagnostics()
    events = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (4, 6):
            raise ParseError(lineno, f"expected 4 or 6 fields, got {len(fields)}")
        service, region = fields[0], fields[3]
        if not service or not region:
            raise ParseError(lineno, "empty id or region")
        start = _parse_time_field(fields[1], lineno)
        end = _parse_time_field(fields[2], lineno)
        if end < start:
            diag.rejected_lines.append((lineno, "end before start"))
            continue
        coord = None
        if len(fields) == 6:
            try:
                coord = (float(fields[4]), float(fields[5]))
            except ValueError:
                raise ParseError(lineno, "bad coordinates") from None
            if not all(map(math.isfinite, coord)):
                raise ParseError(lineno, "non-finite coordinates")
        events.append(
            ServiceEvent(service, start, end, region, start_coord=coord, end_coord=coord)
        )
    events.sort(key=lambda e: (e.start_time, e.end_time, e.service_id))
    return events


def segment(events: Sequence[ServiceEvent], policy: str = "by_day",
            max_gap: Optional[int] = None) -> EventDatabase:
    """Cut a sorted event stream into sequences.

    "by_day" splits at midnight boundaries of start_time; "by_gap" starts a
    new sequence when consecutive start_times are more than max_gap seconds
    apart.
    """
    if policy not in ("by_day", "by_gap"):
        raise DataError(f"unknown segmentation policy {policy!r}")
    if policy == "by_gap" and (max_gap is None or max_gap < 0):
        raise DataError("by_gap segmentation needs a nonnegative max_gap")

    groups: list = []
    current: list = []
    prev = None
    for ev in events:
        if prev is not None:
            if policy == "by_day":
                split = ev.start_time // SECONDS_PER_DAY != prev // SECONDS_PER_DAY
            else:
                split = ev.start_time - prev > max_gap
            if split:
                groups.append(current)
                current = []
        current.append(ev)
        prev = ev.start_time
    if current:
        groups.append(current)

    return EventDatabase(
        tuple(EventSequence(sid, tuple(g)) for sid, g in enumerate(groups))
    )


def partition_by_region(db: EventDatabase) -> dict:
    """Split a database into per-region sub-databases.

    Each sequence keeps only its events in the region (order preserved);
    sequences left empty are dropped. Sids are preserved so instances can
    be traced back to the parent database.
    """
    out: dict = {}
    for region in db.regions:
        seqs = []
        for seq in db.sequences:
            kept = tuple(ev for ev in seq.events if ev.region == region)
            if kept:
                seqs.append(EventSequence(seq.sid, kept))
        out[region] = EventDatabase(tuple(seqs))
    return out
