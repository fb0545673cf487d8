"""Independent oracles the tests check the library against.

Everything here favours directness over speed: exhaustive enumeration,
plain double loops, numeric integration. None of it shares code with the
implementations under test.
"""

from __future__ import annotations

import random

from habitminer.events import EventDatabase, EventSequence, ServiceEvent
from habitminer.relations import classify_ordered


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
