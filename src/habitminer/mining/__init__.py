"""Frequent composition-pattern discovery over endpoint sequences.

Patterns are interleaved start/end symbol sequences grown one endpoint at
a time via projected databases; only well-formed patterns (every start
closed by a later end of the same service) are reported, each with its
support and, per supporting sequence, the start positions of its leftmost
embedding as the kernel found them. Instances are built from those
positions only where they are read.
"""

from __future__ import annotations

import gc
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..events import EndpointSymbol, EventDatabase, ServiceEvent
from ._growth_py import mine_sequences

# the name of the one mining kernel; the pipeline benchmark prints it
KERNEL_NAME = "python"

DEFAULT_MAX_PATTERN_LEN = 20


@dataclass(frozen=True)
class PatternInstance:
    """The leftmost match of a pattern inside one sequence: the events of
    its start endpoints, in pattern order."""

    sid: int
    events: Tuple[ServiceEvent, ...]


class Embeddings(SequenceABC):
    """A mined pattern's instances, held as the kernel hands them over.

    `pairs` holds one (sequence index, start positions) pair per supporting
    sequence, as `mine_sequences` returns them. The other fields are shared
    by every pattern mined from one database, one list per sequence:
    `sids` its sid, and `event_at`, `start_at` and `end_at` the event behind
    each endpoint position and that event's start and end time. Scoring
    reads the times; a PatternInstance is built only when the sequence is
    read, anew on each read.
    """

    __slots__ = ("pairs", "sids", "event_at", "start_at", "end_at")

    def __init__(self, pairs, sids, event_at, start_at, end_at):
        self.pairs = pairs
        self.sids = sids
        self.event_at = event_at
        self.start_at = start_at
        self.end_at = end_at

    def __len__(self) -> int:
        return len(self.pairs)

    def _instance(self, si, starts) -> PatternInstance:
        events = self.event_at[si]
        return PatternInstance(self.sids[si], tuple([events[p] for p in starts]))

    def __getitem__(self, index) -> PatternInstance:
        return self._instance(*self.pairs[index])

    def __iter__(self):
        for si, starts in self.pairs:
            yield self._instance(si, starts)

    def spans(self) -> list:
        """Per instance, (sid, earliest start, latest end) of its events."""
        return [
            (
                self.sids[si],
                min([self.start_at[si][p] for p in starts]),
                max([self.end_at[si][p] for p in starts]),
            )
            for si, starts in self.pairs
        ]


@dataclass(frozen=True)
class CompositionPattern:
    seq: Tuple[EndpointSymbol, ...]
    support: int
    region: Optional[str]
    # a tuple, or the Embeddings of a mined pattern
    instances: Sequence[PatternInstance]

    @cached_property
    def event_types(self) -> frozenset:
        return frozenset(sym.service_id for sym in self.seq)

    @property
    def tokens(self) -> Tuple[str, ...]:
        return tuple(sym.token for sym in self.seq)

    def __str__(self) -> str:
        return "<" + " ".join(self.tokens) + f">:{self.support}"


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

    Output is canonically sorted (length, then symbols). Each pattern's
    instances are the Embeddings the kernel returned: the leftmost match in
    every supporting sequence, built when read.
    """
    if minsup < 1:
        raise ConfigError(f"minsup must be >= 1, got {minsup}")
    if max_len < 2:
        raise ConfigError(f"max pattern length must be >= 2, got {max_len}")
    if region is None:
        region = _infer_region(db)
    encoded, services = encode_database(db)
    sids = [seq.sid for seq in db.sequences]
    event_at = [
        [seq.events[ep.event_index] for ep in seq.endpoints] for seq in db.sequences
    ]
    start_at = [[ev.start_time for ev in events] for events in event_at]
    end_at = [[ev.end_time for ev in events] for events in event_at]
    # The kernel and the loop keep nearly every container they make, so
    # cyclic collections during them only rescan a growing heap (a sixth of
    # the kernel's time on the dense-kitchen benchmark log, a quarter on
    # the 600-day household). They are paused for both.
    collecting = gc.isenabled()
    gc.disable()
    try:
        raw = mine_sequences(encoded, minsup, max_len)
        return [
            CompositionPattern(
                decode_pattern(codes, services),
                len(raw[codes]),
                region,
                Embeddings(raw[codes], sids, event_at, start_at, end_at),
            )
            for codes in sorted(raw, key=lambda p: (len(p), p))
        ]
    finally:
        if collecting:
            gc.enable()


__all__ = [
    "KERNEL_NAME",
    "CompositionPattern",
    "Embeddings",
    "PatternInstance",
    "encode_database",
    "mine",
    "mine_sequences",
    "DEFAULT_MAX_PATTERN_LEN",
]
