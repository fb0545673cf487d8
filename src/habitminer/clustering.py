"""Group similar patterns and derive involvement probabilities.

A k-means-style loop over Jaccard similarity of event-type sets: centers
are the shared event sets of cluster members (medoid fallback when the
intersection is empty), seeded farthest-first from a given RNG seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .errors import ConfigError
from .mining import CompositionPattern


def event_type_set(x) -> frozenset:
    if isinstance(x, CompositionPattern):
        return x.event_types
    return frozenset(x)


def jaccard(a, b) -> float:
    """|intersection| / |union| of event-type sets; 1.0 when both empty."""
    sa, sb = event_type_set(a), event_type_set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


@dataclass(frozen=True)
class PatternCluster:
    members: Tuple[CompositionPattern, ...]
    center: frozenset
    total_instances: int


def _medoid_types(member_sets: Sequence[frozenset]) -> frozenset:
    best, best_cost = 0, float("inf")
    for i, s in enumerate(member_sets):
        cost = sum(1.0 - jaccard(s, t) for t in member_sets)
        if cost < best_cost:
            best, best_cost = i, cost
    return member_sets[best]


def _center_of(member_sets: Sequence[frozenset]) -> frozenset:
    shared = frozenset.intersection(*member_sets)
    return shared if shared else _medoid_types(member_sets)


def _objective(type_sets, assignment, centers) -> float:
    return sum(1.0 - jaccard(s, centers[assignment[i]]) for i, s in enumerate(type_sets))


def cluster(
    patterns: Sequence[CompositionPattern],
    k: int,
    seed: int = 0,
    max_iter: int = 100,
) -> list:
    """Partition patterns into k clusters of similar event-type sets.

    Deterministic for a given seed; the clustering objective (total
    dissimilarity to centers) never increases across accepted iterations.
    """
    n = len(patterns)
    if not 1 <= k <= n:
        raise ConfigError(f"cluster count {k} out of range 1..{n}")
    type_sets = [p.event_types for p in patterns]

    # farthest-first seeding
    rng = random.Random(seed)
    centers = [type_sets[rng.randrange(n)]]
    while len(centers) < k:
        gaps = [min(1.0 - jaccard(s, c) for c in centers) for s in type_sets]
        centers.append(type_sets[max(range(n), key=lambda i: (gaps[i], -i))])

    assignment = [0] * n
    best_f = float("inf")
    for _ in range(max_iter):
        new_assignment = [
            max(range(k), key=lambda j: (jaccard(type_sets[i], centers[j]), -j))
            for i in range(n)
        ]
        # re-seed empty clusters with the worst-fitting pattern
        members = {j: [i for i in range(n) if new_assignment[i] == j] for j in range(k)}
        for j in range(k):
            if members[j]:
                continue
            donors = [i for i in range(n) if len(members[new_assignment[i]]) > 1]
            worst = max(
                donors,
                key=lambda i: (1.0 - jaccard(type_sets[i], centers[new_assignment[i]]), -i),
            )
            members[new_assignment[worst]].remove(worst)
            new_assignment[worst] = j
            members[j] = [worst]

        new_centers = [
            _center_of([type_sets[i] for i in members[j]]) for j in range(k)
        ]
        f = _objective(type_sets, new_assignment, new_centers)
        if f > best_f + 1e-12:
            break  # reject: objective rose, keep the previous state
        converged = new_assignment == assignment and f >= best_f - 1e-12
        assignment, centers, best_f = new_assignment, new_centers, f
        if converged:
            break

    out = []
    for j in range(k):
        group = tuple(patterns[i] for i in range(n) if assignment[i] == j)
        out.append(
            PatternCluster(group, centers[j], sum(p.support for p in group))
        )
    return out


@dataclass(frozen=True)
class ProbabilisticCompositionPattern:
    """Event types with the fraction of cluster instances they appear in."""

    entries: Tuple[Tuple[str, float], ...]
    source_cluster: Optional[PatternCluster] = None

    @property
    def event_types(self) -> frozenset:
        return frozenset(t for t, _ in self.entries)

    @cached_property
    def _probabilities(self) -> dict:
        # reversed, so the first entry of a repeated type wins
        return dict(reversed(self.entries))

    def probability(self, event_type: str) -> float:
        return self._probabilities.get(event_type, 0.0)


def to_probabilistic(cl: PatternCluster) -> ProbabilisticCompositionPattern:
    if not cl.members or cl.total_instances <= 0:
        raise ConfigError("cannot derive probabilities from an empty cluster")
    counts: dict = {}
    for member in cl.members:
        for t in member.event_types:
            counts[t] = counts.get(t, 0) + member.support
    entries = tuple(
        (t, counts[t] / cl.total_instances)
        for t in sorted(counts, key=lambda t: (-counts[t], t))
    )
    return ProbabilisticCompositionPattern(entries, cl)
