"""Frequent composition-pattern discovery over endpoint sequences.

Patterns are interleaved start/end symbol sequences grown one endpoint at
a time via projected databases; only well-formed patterns (every start
closed by a later end of the same service) are reported, each with its
support and the leftmost matching instance per supporting sequence.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from ..errors import ConfigError, InternalError
from ..events import EndpointSymbol, EventDatabase, ServiceEvent
from ._growth_py import mine_sequences

# the name of the one mining kernel; the pipeline benchmark prints it
KERNEL_NAME = "python"

DEFAULT_MAX_PATTERN_LEN = 20


@dataclass(frozen=True)
class PatternInstance:
    """The leftmost match of a pattern inside one sequence."""

    sid: int
    events: Tuple[ServiceEvent, ...]

    @property
    def interval(self) -> Tuple[int, int]:
        return (
            min(ev.start_time for ev in self.events),
            max(ev.end_time for ev in self.events),
        )

    @property
    def region(self) -> str:
        # majority region over the matched events, ties lexicographic
        tally: dict = {}
        for ev in self.events:
            tally[ev.region] = tally.get(ev.region, 0) + 1
        return min(tally, key=lambda r: (-tally[r], r))


@dataclass(frozen=True)
class CompositionPattern:
    seq: Tuple[EndpointSymbol, ...]
    support: int
    region: Optional[str]
    instances: Tuple[PatternInstance, ...]

    @cached_property
    def event_types(self) -> frozenset:
        return frozenset(sym.service_id for sym in self.seq)

    @property
    def tokens(self) -> Tuple[str, ...]:
        return tuple(sym.token for sym in self.seq)

    def __str__(self) -> str:
        return "<" + " ".join(self.tokens) + f">:{self.support}"


def leftmost_match(haystack: Sequence, needle: Sequence) -> Optional[list]:
    """Positions of the leftmost order-preserving embedding, or None.

    haystack is a list or tuple (anything with `index(value, start)`)."""
    positions = []
    find = haystack.index
    i = 0
    try:
        for sym in needle:
            i = find(sym, i)
            positions.append(i)
            i += 1
    except ValueError:
        return None
    return positions


def encode_database(db: EventDatabase):
    """Integer-encode endpoint sequences for the kernel.

    Returns (encoded sequences, service list); code = 2 * index + is_end.
    """
    services = sorted({ev.service_id for s in db.sequences for ev in s.events})
    index = {svc: i for i, svc in enumerate(services)}
    encoded = [
        [2 * index[e.symbol.service_id] + int(e.symbol.is_end) for e in s.endpoints]
        for s in db.sequences
    ]
    return encoded, services


def decode_pattern(codes: Iterable[int], services: Sequence[str]) -> Tuple[EndpointSymbol, ...]:
    return tuple(EndpointSymbol(services[c >> 1], bool(c & 1)) for c in codes)


def _infer_region(db: EventDatabase) -> Optional[str]:
    regions = db.regions
    return regions[0] if len(regions) == 1 else None


def mine(
    db: EventDatabase,
    minsup: int,
    max_len: int = DEFAULT_MAX_PATTERN_LEN,
    region: Optional[str] = None,
) -> list:
    """All well-formed endpoint patterns with support >= minsup.

    Output is canonically sorted (length, then symbols) and carries, per
    pattern, the leftmost matching instance of every supporting sequence.
    """
    if minsup < 1:
        raise ConfigError(f"minsup must be >= 1, got {minsup}")
    if max_len < 2:
        raise ConfigError(f"max pattern length must be >= 2, got {max_len}")
    if region is None:
        region = _infer_region(db)
    encoded, services = encode_database(db)
    raw = mine_sequences(encoded, minsup, max_len)

    # per sequence, the event behind each endpoint position
    event_at = [
        [seq.events[ep.event_index] for ep in seq.endpoints] for seq in db.sequences
    ]
    sids = [seq.sid for seq in db.sequences]
    patterns = []
    # The loop keeps every object it makes and makes no reference cycles,
    # so cyclic collections during it only rescan a growing heap (about 40%
    # of the loop's time on the 150-day dense-kitchen benchmark log). They
    # are paused for the loop.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for codes in sorted(raw, key=lambda p: (len(p), p)):
            symbols = decode_pattern(codes, services)
            starts = [k for k, code in enumerate(codes) if not code & 1]
            instances = []
            for si in raw[codes]:
                positions = leftmost_match(encoded[si], codes)
                if positions is None:  # kernel and matcher disagree: a bug
                    raise InternalError(f"lost match for {symbols} in sid {sids[si]}")
                events = event_at[si]
                matched = tuple([events[positions[k]] for k in starts])
                instances.append(PatternInstance(sids[si], matched))
            patterns.append(
                CompositionPattern(symbols, len(instances), region, tuple(instances))
            )
    finally:
        if collecting:
            gc.enable()
    return patterns


__all__ = [
    "KERNEL_NAME",
    "CompositionPattern",
    "PatternInstance",
    "decode_pattern",
    "encode_database",
    "leftmost_match",
    "mine",
    "mine_sequences",
    "DEFAULT_MAX_PATTERN_LEN",
]
