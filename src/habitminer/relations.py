"""Interval relations between pattern instances and the transition matrix.

classify_ordered() is total over valid interval pairs: when no relation
predicate holds for (a, b) the roles are swapped and the relation is
reported for (b, a).

build_matrix() counts, per source instance, one transit to the earliest
co-starting-or-later instance of each other pattern in its sequence. It
works on intervals, not instances: per sequence and pattern, instances
with the same (start, end) form one group, which keeps its lowest
instance index and its multiplicity. A group finds its target in each
other pattern by bisecting that pattern's sorted group starts, so each
distinct interval pair is classified once. A direct classification
counts once per instance of the source group. A swapped one is booked
under the swapped cell, once, for the target group's lowest-index
instance, where it gives way to that instance's own direct transit; so
every cell's relation mass always sums to its transition probability.
"""

from __future__ import annotations

from bisect import bisect_left
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


def build_matrix(pattern_instances: Sequence[Tuple[str, Sequence[InstanceRef]]]) -> TemporalMatrix:
    """Transition probabilities and relation mixes between patterns.

    pattern_instances: (pattern id, instances) pairs; every instance must
    carry its sequence id and joint interval.
    """
    ids = tuple(pid for pid, _ in pattern_instances)
    if len(set(ids)) != len(ids):
        raise DataError("duplicate pattern ids")

    # sid -> pattern -> (start, end) -> [lowest instance index, multiplicity]
    by_sid: dict = {}
    for p, (_, insts) in enumerate(pattern_instances):
        for idx, inst in enumerate(insts):
            groups = by_sid.setdefault(inst.sid, {}).setdefault(p, {})
            group = groups.get((inst.start, inst.end))
            if group is None:
                groups[(inst.start, inst.end)] = [idx, 1]
            else:
                group[1] += 1

    # (row pattern, column pattern, row group's lowest index) -> (rank,
    # relation, count). A direct transit ranks (0,) and beats any swapped
    # one; swapped ones rank by their source interval, which is unique
    # among one pattern's groups in one sequence.
    chosen: dict = {}
    relation_of: dict = {}  # (a0, a1, b0, b1) -> classify_ordered's result
    for patterns in by_sid.values():
        tables = []
        for p, groups in patterns.items():
            rows = sorted((s, e, low, mult) for (s, e), (low, mult) in groups.items())
            tables.append((p, rows, [row[0] for row in rows]))
        for p, rows, _ in tables:
            for q, targets, starts in tables:
                if q == p:
                    continue
                for a0, a1, a_low, mult in rows:
                    k = bisect_left(starts, a0)
                    if k == len(starts):
                        break  # rows run by start: no later row has a target either
                    b0, b1, b_low, _ = targets[k]
                    pair = (a0, a1, b0, b1)
                    found = relation_of.get(pair)
                    if found is None:
                        found = relation_of[pair] = classify_ordered((a0, a1), (b0, b1))
                    rel, swapped = found
                    if not swapped:
                        chosen[p, q, a_low] = ((0,), rel, mult)
                    else:
                        rank = (1, a0, a1)
                        prev = chosen.get((q, p, b_low))
                        if prev is None or rank < prev[0]:
                            chosen[q, p, b_low] = (rank, rel, 1)

    cells: dict = {}
    for (i, j, _), (_, rel, count) in chosen.items():
        agg = cells.setdefault((i, j), {})
        agg[rel] = agg.get(rel, 0) + count
    out: dict = {}
    for (i, j), rel_counts in cells.items():
        num_i = len(pattern_instances[i][1])
        total = sum(rel_counts.values())
        out[(i, j)] = TemporalCell(
            tran_pro=total / num_i,
            relations={r: c / num_i for r, c in rel_counts.items()},
        )
    return TemporalMatrix(ids, out)
