"""Synthetic multi-day traces from declarative activity specs.

Each planted activity has a spanning lead service plus an overlapping
chain of follow-up services, daily occurrence and inclusion randomness,
and optional successor links that place the follower's interval so a
chosen relation holds exactly. Generation is deterministic per seed and
emits a ground-truth log for oracle-style checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import SpecValidationError
from .events import EventDatabase, EventSequence, ServiceEvent
from .periodic import MINUTES_PER_DAY
from .relations import AllenRelation

_MAX_INSTANCES_PER_DAY = 200


@dataclass(frozen=True)
class SuccessorLink:
    target: str
    relation: AllenRelation
    probability: float


@dataclass(frozen=True)
class ActivitySpec:
    name: str
    region: str
    mandatory: Tuple[str, ...]
    optional: Tuple[Tuple[str, float], ...] = ()
    start_mean: int = 480
    start_jitter: int = 0
    duration: Tuple[int, int] = (30, 30)
    daily_probability: float = 1.0
    successors: Tuple[SuccessorLink, ...] = ()


@dataclass(frozen=True)
class GroundTruthEntry:
    day: int
    label: str
    start: int  # minutes from day start
    end: int
    region: str
    services: Tuple[str, ...]


def validate_specs(specs: Sequence[ActivitySpec]):
    if not specs:
        raise SpecValidationError("no activities defined")
    by_name = {}
    for spec in specs:
        if spec.name in by_name:
            raise SpecValidationError(f"duplicate activity {spec.name!r}")
        by_name[spec.name] = spec
        if not spec.mandatory:
            raise SpecValidationError(f"{spec.name}: needs at least one mandatory service")
        if spec.start_jitter < 0:
            raise SpecValidationError(f"{spec.name}: negative jitter")
        if len(spec.duration) != 2 or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in spec.duration
        ):
            raise SpecValidationError(f"{spec.name}: duration must be two whole minutes")
        dmin, dmax = spec.duration
        if not 0 < dmin <= dmax:
            raise SpecValidationError(f"{spec.name}: bad duration range {spec.duration}")
        if not 0.0 <= spec.daily_probability <= 1.0:
            raise SpecValidationError(f"{spec.name}: bad daily probability")
        for svc, p in spec.optional:
            if not 0.0 <= p <= 1.0:
                raise SpecValidationError(f"{spec.name}: bad inclusion probability for {svc}")
    for spec in specs:
        for link in spec.successors:
            if link.target not in by_name:
                raise SpecValidationError(
                    f"{spec.name}: successor {link.target!r} is not defined"
                )
            if not 0.0 <= link.probability <= 1.0:
                raise SpecValidationError(f"{spec.name}: bad link probability")
            _validate_link(spec, by_name[link.target], link.relation)


def _validate_link(src: ActivitySpec, tgt: ActivitySpec, rel: AllenRelation):
    smin, smax = src.duration
    tmin, tmax = tgt.duration

    def fail(reason):
        raise SpecValidationError(
            f"{src.name} -{rel.value}-> {tgt.name} unsatisfiable: {reason}"
        )

    if rel == AllenRelation.OVERLAP and (smin < 2 or tmin < 2):
        fail("overlap needs durations of at least 2 minutes on both sides")
    if rel in (AllenRelation.START_BY, AllenRelation.FINISH) and tmin <= smax:
        fail("the follower must always outlast the source")
    if rel == AllenRelation.DURING and tmin < smax + 2:
        fail("the container must always exceed the source duration by 2")


def _place_relative(rel: AllenRelation, src: Tuple[int, int], dur: int,
                    rng: random.Random) -> Tuple[int, int]:
    """Interval (start, duration) for a follower so that `src rel follower`."""
    s, e = src
    if rel == AllenRelation.BEFORE:
        return e + rng.randint(5, 40), dur
    if rel == AllenRelation.MEET:
        return e, dur
    if rel == AllenRelation.OVERLAP:
        start = rng.randint(max(s + 1, e + 1 - dur), e - 1)
        return start, dur
    if rel == AllenRelation.EQUAL:
        return s, e - s
    if rel == AllenRelation.START_BY:
        return s, dur
    if rel == AllenRelation.FINISH:
        return e - dur, dur
    if rel == AllenRelation.DURING:
        start = rng.randint(e + 1 - dur, s - 1)
        return start, dur
    raise SpecValidationError(f"cannot place relation {rel!r}")


class _Layout:
    """Stable coordinates: one anchor per region, one offset per service."""

    def __init__(self, specs: Sequence[ActivitySpec]):
        self.region_anchor: dict = {}
        self.service_slot: dict = {}
        for spec in specs:
            if spec.region not in self.region_anchor:
                self.region_anchor[spec.region] = 12.0 * len(self.region_anchor)
            for svc in list(spec.mandatory) + [s for s, _ in spec.optional]:
                if svc not in self.service_slot:
                    self.service_slot[svc] = len(self.service_slot) % 4

    def coord(self, region: str, service: str) -> Tuple[float, float]:
        base = self.region_anchor.get(region, 0.0)
        return (base + self.service_slot.get(service, 0), base)


def _emit_instance(spec: ActivitySpec, day: int, start: int, dur: int,
                   rng: random.Random, layout: _Layout, events: list):
    included = list(spec.mandatory)
    for svc, p in spec.optional:
        if rng.random() < p:
            included.append(svc)

    def add(svc, a, b):
        coord = layout.coord(spec.region, svc)
        events.append(
            ServiceEvent(
                svc,
                (day * MINUTES_PER_DAY + a) * 60,
                (day * MINUTES_PER_DAY + b) * 60,
                spec.region,
                start_coord=coord,
                end_coord=coord,
            )
        )

    add(included[0], start, start + dur)
    chain = included[1:]
    k = len(chain)
    if k:
        # follow-up services nest strictly inside the spanning service,
        # as an overlapping chain with stable ordering
        inset = min(max(1, dur // 10), (dur - 1) // 2) if dur > 1 else 0
        lo_base, width = start + inset, max(1, dur - 2 * inset)
        overlap = max(1, width // 8)
        for i, svc in enumerate(chain):
            a = lo_base + (width * i) // k
            b = lo_base + (width * (i + 1)) // k
            lo = max(lo_base, a - overlap - rng.randint(0, 1))
            hi = min(lo_base + width, b + overlap + rng.randint(0, 1))
            if hi <= lo:
                hi = lo + 1
            add(svc, lo, hi)
    return GroundTruthEntry(day, spec.name, start, start + dur,
                            spec.region, tuple(included))


def generate(specs: Sequence[ActivitySpec], days: int, seed: int = 0):
    """Plant `days` days of activity instances; returns (database, truth).

    One sequence per non-empty day, sid = day index. Bit-identical output
    for identical (specs, days, seed).
    """
    if days < 1:
        raise SpecValidationError(f"days must be >= 1, got {days}")
    validate_specs(specs)
    by_name = {spec.name: spec for spec in specs}
    layout = _Layout(specs)
    rng = random.Random(seed)

    truth = []
    sequences = []
    for day in range(days):
        events: list = []
        queue = []
        for spec in specs:
            if rng.random() < spec.daily_probability:
                start = spec.start_mean + (
                    rng.randint(-spec.start_jitter, spec.start_jitter)
                    if spec.start_jitter
                    else 0
                )
                queue.append((spec, start, rng.randint(*spec.duration)))
        emitted = 0
        while queue:
            spec, start, dur = queue.pop(0)
            emitted += 1
            if emitted > _MAX_INSTANCES_PER_DAY:
                raise SpecValidationError("successor links form a runaway chain")
            truth.append(_emit_instance(spec, day, start, dur, rng, layout, events))
            for link in spec.successors:
                if rng.random() < link.probability:
                    tgt = by_name[link.target]
                    tdur = rng.randint(*tgt.duration)
                    tstart, tdur = _place_relative(
                        link.relation, (start, start + dur), tdur, rng
                    )
                    queue.append((tgt, tstart, tdur))
        if events:
            events.sort(key=lambda ev: (ev.start_time, ev.end_time, ev.service_id))
            sequences.append(EventSequence(day, tuple(events)))
    return EventDatabase(tuple(sequences)), truth


def _parse_minutes(value) -> int:
    if isinstance(value, str):
        h, m = value.split(":")
        return int(h) * 60 + int(m)
    return int(value)


def load_activity_specs(source) -> list:
    """Read activity specs from a JSON file path, file object or dict.

    Raises SpecValidationError (a ConfigError) when the document is not a
    JSON object with an "activities" list, when an activity lacks a name,
    region or mandatory-service list, or when a field cannot be converted.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            if hasattr(source, "read"):
                doc = json.load(source)
            else:
                with open(source) as fh:
                    doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecValidationError(f"activity spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecValidationError("activity spec is not a JSON object")
    activities = doc.get("activities", [])
    if not isinstance(activities, list):
        raise SpecValidationError("activity spec: 'activities' is not a list")
    specs = []
    for n, item in enumerate(activities):
        if not isinstance(item, dict):
            raise SpecValidationError(f"activity {n} is not an object")
        for key, kind in (("name", str), ("region", str), ("mandatory", list)):
            if not isinstance(item.get(key), kind):
                raise SpecValidationError(
                    f"activity {n}: {key!r} is missing or not a {kind.__name__}"
                )
        try:
            specs.append(
                ActivitySpec(
                    name=item["name"],
                    region=item["region"],
                    mandatory=tuple(item["mandatory"]),
                    optional=tuple((s, float(p)) for s, p in item.get("optional", [])),
                    start_mean=_parse_minutes(item.get("start_mean", 480)),
                    start_jitter=int(item.get("start_jitter", 0)),
                    duration=tuple(item.get("duration", (30, 30))),
                    daily_probability=float(item.get("daily_probability", 1.0)),
                    successors=tuple(
                        SuccessorLink(t, AllenRelation(r), float(p))
                        for t, r, p in item.get("successors", [])
                    ),
                )
            )
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(f"activity {item['name']!r}: {exc}") from None
    validate_specs(specs)
    return specs


def format_trace(db: EventDatabase) -> str:
    """Render a database in the interval ingestion format."""
    from .events import from_timestamp

    lines = []
    for seq in db.sequences:
        for ev in seq.events:
            stamp_s = from_timestamp(ev.start_time).isoformat()
            stamp_e = from_timestamp(ev.end_time).isoformat()
            base = f"{ev.service_id},{stamp_s},{stamp_e},{ev.region}"
            if ev.start_coord is not None:
                base += f",{ev.start_coord[0]},{ev.start_coord[1]}"
            lines.append(base)
    return "\n".join(lines) + ("\n" if lines else "")


def truth_as_dicts(truth: Sequence[GroundTruthEntry]) -> list:
    return [
        {
            "day": t.day,
            "label": t.label,
            "start": t.start,
            "end": t.end,
            "region": t.region,
            "services": list(t.services),
        }
        for t in truth
    ]
