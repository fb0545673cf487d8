"""Interval relations between pattern instances and the transition matrix.

classify_ordered() is total over valid interval pairs: when no relation
predicate holds for (a, b) the roles are swapped and the relation is
reported for (b, a). build_matrix() counts, per source instance, one
transit to the earliest co-starting-or-later instance of each other
pattern; swapped classifications are booked under the swapped cell so
every cell's relation mass always sums to its transition probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

from .errors import DataError, InternalError


class AllenRelation(str, Enum):
    BEFORE = "before"
    OVERLAP = "overlap"
    EQUAL = "equal"
    START_BY = "start_by"
    FINISH = "finish"
    MEET = "meet"
    DURING = "during"

    def __str__(self) -> str:
        return self.value


def _direct(a: Tuple[float, float], b: Tuple[float, float]) -> Optional[AllenRelation]:
    (a0, a1), (b0, b1) = a, b
    if a0 == b0 and a1 == b1:
        return AllenRelation.EQUAL
    if a0 == b0 and a1 < b1:
        return AllenRelation.START_BY
    if a0 > b0 and a1 == b1:
        return AllenRelation.FINISH
    if a1 == b0:
        return AllenRelation.MEET
    if a1 < b0:
        return AllenRelation.BEFORE
    if b0 < a0 and a1 < b1:
        return AllenRelation.DURING
    if a0 < b0 < a1 < b1:
        return AllenRelation.OVERLAP
    return None


def _check(iv: Tuple[float, float]):
    if iv[0] > iv[1]:
        raise DataError(f"invalid interval {iv}")


def classify_ordered(
    a: Tuple[float, float], b: Tuple[float, float]
) -> Tuple[AllenRelation, bool]:
    """Relation of the pair plus whether the roles had to be swapped."""
    _check(a)
    _check(b)
    rel = _direct(a, b)
    if rel is not None:
        return rel, False
    rel = _direct(b, a)
    if rel is None:
        raise InternalError(f"unclassifiable interval pair {a} vs {b}")
    return rel, True


def classify(a: Tuple[float, float], b: Tuple[float, float]) -> AllenRelation:
    return classify_ordered(a, b)[0]


@dataclass(frozen=True)
class InstanceRef:
    """A pattern occurrence reduced to its sequence and joint interval."""

    sid: int
    start: float
    end: float


@dataclass
class TemporalCell:
    tran_pro: float = 0.0
    relations: Dict[AllenRelation, float] = field(default_factory=dict)

    @property
    def top_relation(self) -> Optional[AllenRelation]:
        if not self.relations:
            return None
        return min(self.relations, key=lambda r: (-self.relations[r], r.value))


@dataclass
class TemporalMatrix:
    pattern_ids: Tuple[str, ...]
    cells: Dict[Tuple[int, int], TemporalCell]

    def index_of(self, pattern_id: str) -> int:
        try:
            return self.pattern_ids.index(pattern_id)
        except ValueError:
            raise DataError(f"unknown pattern id {pattern_id!r}") from None

    def cell(self, i: int, j: int) -> TemporalCell:
        return self.cells.get((i, j), TemporalCell())

    def cell_by_ids(self, from_id: str, to_id: str) -> TemporalCell:
        return self.cell(self.index_of(from_id), self.index_of(to_id))


def build_matrix(pattern_instances: Sequence[Tuple[str, Sequence[InstanceRef]]]) -> TemporalMatrix:
    """Transition probabilities and relation mixes between patterns.

    pattern_instances: (pattern id, instances) pairs; every instance must
    carry its sequence id and joint interval.
    """
    ids = tuple(pid for pid, _ in pattern_instances)
    if len(set(ids)) != len(ids):
        raise DataError("duplicate pattern ids")
    inst_lists = [list(insts) for _, insts in pattern_instances]
    n = len(ids)

    by_sid: dict = {}
    for p, insts in enumerate(inst_lists):
        for idx, inst in enumerate(insts):
            by_sid.setdefault(inst.sid, []).append((p, idx, inst))
    for rows in by_sid.values():
        rows.sort(key=lambda r: (r[2].start, r[2].end, r[0], r[1]))

    # (cell, row-instance) -> best contribution (priority, tiebreak, relation)
    chosen: dict = {}

    def offer(cell, key, priority, tiebreak, relation):
        prev = chosen.get((cell, key))
        if prev is None or (priority, tiebreak) < prev[0]:
            chosen[(cell, key)] = ((priority, tiebreak), relation)

    for p in range(n):
        for a_idx, a in enumerate(inst_lists[p]):
            rows = by_sid.get(a.sid, [])
            best: dict = {}
            for q, b_idx, b in rows:
                if q == p or b.start < a.start:
                    continue
                key = (b.start, b.end, b_idx)
                if q not in best or key < best[q][0]:
                    best[q] = (key, b_idx, b)
            for q, (_, b_idx, b) in best.items():
                rel, swapped = classify_ordered((a.start, a.end), (b.start, b.end))
                if not swapped:
                    offer((p, q), a_idx, 0, (b.start, b.end, b_idx), rel)
                else:
                    offer((q, p), b_idx, 1, (a.start, a.end, a_idx), rel)

    cells: dict = {}
    for (cell, _), (_, rel) in chosen.items():
        agg = cells.setdefault(cell, {})
        agg[rel] = agg.get(rel, 0) + 1
    out: dict = {}
    for (i, j), rel_counts in cells.items():
        num_i = len(inst_lists[i])
        total = sum(rel_counts.values())
        out[(i, j)] = TemporalCell(
            tran_pro=total / num_i,
            relations={r: c / num_i for r, c in rel_counts.items()},
        )
    return TemporalMatrix(ids, out)
