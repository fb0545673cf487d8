"""Independent oracles the tests check the library against.

Everything here favours directness over speed: exhaustive enumeration,
plain double loops, numeric integration. None of it shares code with the
implementations under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from habitminer.events import EndpointSymbol, EventDatabase, EventSequence, ServiceEvent
from habitminer.predict import Scores
from habitminer.quality import temporal_coverage
from habitminer.relations import TemporalCell, classify_ordered


def wellformed_subsequences(codes) -> set:
    """Every distinct well-formed subsequence of one encoded endpoint list.

    Enumerates each distinct subsequence exactly once via its leftmost
    embedding; legality mirrors the pattern definition (a start only while
    the service is closed, an end only while it is open; reported patterns
    are the fully closed ones).
    """
    n = len(codes)
    out = set()

    def extend(pos, open_set, acc):
        seen = set()
        for j in range(pos, n):
            c = codes[j]
            if c in seen:
                continue
            seen.add(c)
            svc = c >> 1
            if bool(c & 1) != (svc in open_set):
                continue
            acc.append(c)
            new_open = open_set ^ {svc}
            if not new_open:
                out.add(tuple(acc))
            extend(j + 1, new_open, acc)
            acc.pop()

    extend(0, set(), [])
    return out


def enumerate_patterns(encoded_db, minsup) -> dict:
    """Exhaustive (pattern -> support) map over encoded sequences."""
    per_seq = [wellformed_subsequences(codes) for codes in encoded_db]
    tally: dict = {}
    for subs in per_seq:
        for p in subs:
            tally[p] = tally.get(p, 0) + 1
    return {p: s for p, s in tally.items() if s >= minsup}


def leftmost_match_scan(haystack, needle):
    """Leftmost order-preserving embedding by a plain position-by-position
    scan: the positions, or None when needle does not embed."""
    positions = []
    i = 0
    for sym in needle:
        while i < len(haystack) and haystack[i] != sym:
            i += 1
        if i == len(haystack):
            return None
        positions.append(i)
        i += 1
    return positions


def _as_symbols(seq) -> Tuple[EndpointSymbol, ...]:
    """Symbols of a sequence, an Endpoint list, or symbols or tokens."""
    if isinstance(seq, EventSequence):
        return tuple(e.symbol for e in seq.endpoints)
    out = []
    for item in seq:
        if isinstance(item, EndpointSymbol):
            out.append(item)
        elif isinstance(item, str):
            out.append(EndpointSymbol.parse(item))
        else:  # an Endpoint
            out.append(item.symbol)
    return tuple(out)


def contains(haystack, needle) -> bool:
    """True iff needle embeds into haystack preserving order."""
    return leftmost_match_scan(_as_symbols(haystack), _as_symbols(needle)) is not None


def support(db: EventDatabase, seq) -> int:
    """Number of sequences of db containing seq (each counted once)."""
    needle = _as_symbols(seq)
    return sum(
        1
        for s in db.sequences
        if leftmost_match_scan(tuple(e.symbol for e in s.endpoints), needle) is not None
    )


@dataclass(frozen=True)
class ProjectedDatabase:
    """Pattern-growth search state: a prefix and the per-sequence suffixes."""

    db: EventDatabase
    prefix: Tuple[EndpointSymbol, ...]
    entries: Tuple[Tuple[int, int], ...]  # (sequence index, suffix start)

    @classmethod
    def initial(cls, db: EventDatabase) -> "ProjectedDatabase":
        return cls(db, (), tuple((i, 0) for i in range(len(db.sequences))))

    @property
    def open_starts(self) -> Tuple[str, ...]:
        state: dict = {}
        for sym in self.prefix:
            state[sym.service_id] = not sym.is_end
        return tuple(sorted(s for s, opened in state.items() if opened))

    def suffixes(self) -> list:
        out = []
        for idx, pos in self.entries:
            seq = self.db.sequences[idx]
            out.append((seq.sid, seq.endpoints[pos:], self.open_starts))
        return out

    def __len__(self) -> int:
        return len(self.entries)


def project(pdb: ProjectedDatabase, symbol: EndpointSymbol) -> ProjectedDatabase:
    """Advance every suffix past its first match of symbol; drop the rest."""
    new_entries = []
    for idx, pos in pdb.entries:
        endpoints = pdb.db.sequences[idx].endpoints
        for j in range(pos, len(endpoints)):
            if endpoints[j].symbol == symbol:
                new_entries.append((idx, j + 1))
                break
    return ProjectedDatabase(pdb.db, pdb.prefix + (symbol,), tuple(new_entries))


def canonical_endpoints(seq: EventSequence) -> list:
    """Endpoint tokens of a sequence by the direct rule: by time, an end
    before a start at the same time, then by service."""
    points = []
    for ev in seq.events:
        points.append((ev.start_time, 1, ev.service_id, ev.service_id + "+"))
        points.append((ev.end_time, 0, ev.service_id, ev.service_id + "-"))
    return [token for *_, token in sorted(points)]


def random_database(rng: random.Random, max_sequences=8, max_events=12, max_services=5):
    services = [chr(ord("a") + i) for i in range(rng.randint(2, max_services))]
    seqs = []
    for sid in range(rng.randint(2, max_sequences)):
        events = []
        for _ in range(rng.randint(1, max_events)):
            svc = rng.choice(services)
            start = rng.randint(0, 200)
            events.append(ServiceEvent(svc, start, start + rng.randint(0, 40), "r"))
        events.sort(key=lambda e: (e.start_time, e.end_time, e.service_id))
        seqs.append(EventSequence(sid, tuple(events)))
    return EventDatabase(tuple(seqs))


def riemann_temporal_coverage(intervals, steps=200_000) -> float:
    """Dense-sampling approximation of the indicator-mass integral."""
    lo = min(s for s, _ in intervals)
    hi = max(e for _, e in intervals)
    if hi == lo:
        return 1.0
    dt = (hi - lo) / steps
    total = 0.0
    for i in range(steps):
        t = lo + (i + 0.5) * dt
        total += sum(1 for s, e in intervals if s <= t <= e) * dt
    return total / ((hi - lo) * len(intervals))


def brute_force_matrix(pattern_instances):
    """Transit counting re-derived with plain scans over all instance pairs.

    Same rule as relations.build_matrix: per source instance, the earliest
    co-starting-or-later instance of every other pattern; swapped
    classifications move to the swapped cell keyed by that cell's own row
    instance; one contribution per (row instance, column pattern), direct
    contributions beating migrated ones.
    """
    ids = [pid for pid, _ in pattern_instances]
    instances = {pid: list(insts) for pid, insts in pattern_instances}
    offers: dict = {}  # (from_id, to_id, row_instance_index) -> (rank, relation)

    for pid in ids:
        for a_idx, a in enumerate(instances[pid]):
            for qid in ids:
                if qid == pid:
                    continue
                candidates = [
                    (b.start, b.end, b_idx, b)
                    for b_idx, b in enumerate(instances[qid])
                    if b.sid == a.sid and b.start >= a.start
                ]
                if not candidates:
                    continue
                bs, be, b_idx, b = min(candidates)
                rel, swapped = classify_ordered((a.start, a.end), (b.start, b.end))
                if not swapped:
                    key, rank = (pid, qid, a_idx), (0, (bs, be, b_idx))
                else:
                    key, rank = (qid, pid, b_idx), (1, (a.start, a.end, a_idx))
                if key not in offers or rank < offers[key][0]:
                    offers[key] = (rank, rel)

    cells: dict = {}
    for (from_id, to_id, _), (_, rel) in offers.items():
        agg = cells.setdefault((from_id, to_id), {})
        agg[rel] = agg.get(rel, 0) + 1
    out = {}
    for (from_id, to_id), rels in cells.items():
        num = len(instances[from_id])
        out[(from_id, to_id)] = (
            sum(rels.values()) / num,
            {r: c / num for r, c in rels.items()},
        )
    return out


def matrix_cell(matrix, from_id: str, to_id: str) -> TemporalCell:
    """The cell from one pattern id to another, empty when no transit was
    counted; an unknown id raises ValueError."""
    ids = matrix.pattern_ids
    return matrix.cells.get((ids.index(from_id), ids.index(to_id)), TemporalCell())


def oracle_score(pattern, obs, model) -> Scores:
    """Recognition scores computed per pattern, straight from the
    definitions: the structure distance over the vocabulary and the
    observed services taken as one set (summed with math.fsum), the time
    score as `temporal_coverage` of each interval and the window of day
    shifted a day back, unshifted and a day on, and linear scans for
    involvement, region and the fallback interval."""

    def involvement(svc):
        return next((p for t, p in pattern.base.entries if t == svc), 0.0)

    present = {ev.service_id for ev in obs.events}
    coords = set(model.vocabulary) | present
    d2 = math.fsum((involvement(t) - (1.0 if t in present else 0.0)) ** 2 for t in coords)
    y_s = 1.0 / (1.0 + math.sqrt(d2))

    start = min(ev.start_time for ev in obs.events)
    end = max(obs.now if ev.end_time is None else ev.end_time for ev in obs.events)
    end = max(start, end)
    m = (start // 60) % 1440
    w = (m, m + max(0, (end // 60) - (start // 60)))
    y_t, matched = 0.0, None
    for iv in pattern.intervals:
        for shift in (-1440, 0, 1440):
            value = temporal_coverage([(iv.start, iv.end), (w[0] + shift, w[1] + shift)])
            if value > y_t:
                y_t, matched = value, iv
    if pattern.intervals and matched is None:
        matched = min(pattern.intervals, key=lambda iv: (-iv.probability, iv.start, iv.location))

    regions = [ev.region for ev in obs.events]
    region = min(set(regions), key=lambda r: (-regions.count(r), r))
    y_l = 1.0 if matched is not None and matched.location == region else 0.0
    ws, wt, wl = model.weights
    return Scores(ws * y_s + wt * y_t + wl * y_l, y_s, y_t, y_l)


def oracle_recognize(obs, model) -> list:
    """Every pattern's oracle scores, best first, ties to the smaller id."""
    scored = [(p.pattern_id, oracle_score(p, obs, model)) for p in model.patterns]
    return sorted(scored, key=lambda t: (-t[1].total, t[0]))
