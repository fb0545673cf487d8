"""Significance, proximity and the quality filter."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_database, riemann_temporal_coverage

from habitminer.errors import ConfigError, DataError
from habitminer.events import EndpointSymbol, ServiceEvent
from habitminer.mining import CompositionPattern, PatternInstance, mine
from habitminer.quality import (
    EventProbabilityTable,
    RegionProbabilities,
    expected_support,
    filter_quality,
    score_pattern,
    significance,
    spatial_proximity,
    temporal_coverage,
    temporal_proximity,
)

MIN = 60


def make_pattern(instances, region="r", support=None):
    """instances: list of lists of (service, start_min, end_min[, coord])."""
    built = []
    symbols = []
    for sid, events in enumerate(instances):
        evs = []
        for item in events:
            svc, start, end = item[0], item[1], item[2]
            coord = item[3] if len(item) > 3 else None
            evs.append(
                ServiceEvent(svc, start * MIN, end * MIN, region,
                             start_coord=coord, end_coord=coord)
            )
        built.append(PatternInstance(sid, tuple(evs)))
    for item in instances[0]:
        symbols += [EndpointSymbol.start(item[0]), EndpointSymbol.end(item[0])]
    return CompositionPattern(
        tuple(symbols), support or len(built), region, tuple(built)
    )


def table_of(probs, total, region="r"):
    return EventProbabilityTable({region: RegionProbabilities(probs, total)})


# temporal proximity ---------------------------------------------------------

def test_temporal_proximity_worked_example():
    pattern = make_pattern([[("stove", 18 * 60, 19 * 60), ("washer", 18 * 60 + 40, 19 * 60 + 20)]])
    assert temporal_proximity(pattern) == pytest.approx(0.625)


def test_temporal_proximity_identical_intervals():
    pattern = make_pattern([[("stove", 18 * 60, 19 * 60), ("fan", 18 * 60, 19 * 60)]])
    assert temporal_proximity(pattern) == 1.0


def test_temporal_proximity_single_service():
    assert temporal_proximity(make_pattern([[("a", 100, 160)]])) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 300), st.integers(0, 120)), max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_temporal_proximity_equals_mean_coverage(raw_instances):
    instances = [
        [(f"s{i}", start, start + length) for i, (start, length) in enumerate(events)]
        for events in raw_instances
    ]
    built = make_pattern(instances, support=1).instances
    pattern = CompositionPattern((), len(built), "r", built)
    expected = sum(
        temporal_coverage([(ev.start_time, ev.end_time) for ev in inst.events])
        for inst in built
    ) / len(built)
    assert temporal_proximity(pattern) == expected


def test_temporal_proximity_from_embeddings_equals_built_instances():
    # a mined pattern is scored from the kernel's positions; the value must
    # be exactly that of its instances built and scored from their events
    rng = random.Random(41)
    for _ in range(40):
        db = random_database(rng)
        for pattern in mine(db, rng.randint(1, 2), max_len=rng.choice([4, 8, 20])):
            built = replace(pattern, instances=tuple(pattern.instances))
            expected = sum(
                temporal_coverage([(ev.start_time, ev.end_time) for ev in inst.events])
                for inst in built.instances
            ) / len(built.instances)
            assert temporal_proximity(pattern) == temporal_proximity(built) == expected


def test_temporal_coverage_point_instance():
    assert temporal_coverage([(5, 5), (5, 5)]) == 1.0


def test_temporal_coverage_bounds_contiguous():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        intervals = []
        cursor = rng.randint(0, 500)
        for _ in range(n):
            length = rng.randint(1, 60)
            intervals.append((cursor, cursor + length))
            # next interval starts inside the previous one: no coverage gaps
            cursor += rng.randint(0, length)
        value = temporal_coverage(intervals)
        assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12


def test_temporal_coverage_one_iff_identical():
    assert temporal_coverage([(3, 9), (3, 9), (3, 9)]) == 1.0
    assert temporal_coverage([(3, 9), (3, 8)]) < 1.0


def test_temporal_proximity_translation_invariant():
    base = [[("a", 100, 180), ("b", 120, 200)]]
    shifted = [[("a", 400, 480), ("b", 420, 500)]]
    assert temporal_proximity(make_pattern(base)) == temporal_proximity(make_pattern(shifted))


def test_temporal_coverage_matches_riemann():
    # with samples on half-steps the midpoint sum of a unit-step indicator
    # stack is exact, so the 1e-6 agreement is a real equality check
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 5)
        intervals = []
        for _ in range(n):
            s = rng.randint(0, 300)
            intervals.append((s, s + rng.randint(1, 100)))
        span = max(e for _, e in intervals) - min(s for s, _ in intervals)
        exact = temporal_coverage(intervals)
        approx = riemann_temporal_coverage(intervals, steps=2 * span)
        assert abs(exact - approx) < 1e-6


# spatial proximity ----------------------------------------------------------

def test_spatial_proximity_worked_example():
    pattern = make_pattern([[("e", 60, 75, (1, 2)), ("f", 61, 73, (2, 4))]])
    assert spatial_proximity(pattern) == pytest.approx(1 / 3, abs=0.005)


def test_spatial_proximity_zero_distance_uses_epsilon():
    pattern = make_pattern([[("a", 0, 10, (2, 2)), ("b", 1, 11, (2, 2)), ("c", 2, 12, (2, 2))]])
    assert spatial_proximity(pattern, epsilon=1.0) == pytest.approx(2.0)


def test_spatial_proximity_single_service():
    assert spatial_proximity(make_pattern([[("a", 0, 10, (1, 1))]])) == 0.0


def test_spatial_proximity_requires_coordinates():
    pattern = make_pattern([[("a", 0, 10), ("b", 1, 11)]])
    with pytest.raises(DataError):
        spatial_proximity(pattern)


# significance ---------------------------------------------------------------

def test_expected_support_single_factor():
    table = table_of({"a": 0.5}, 10)
    seq = (EndpointSymbol.start("a"), EndpointSymbol.end("a"))
    assert expected_support(seq, table, "r") == pytest.approx(5.0)


def test_expected_support_two_services():
    table = table_of({"a": 0.5, "b": 0.2}, 100)
    seq = (
        EndpointSymbol.start("a"), EndpointSymbol.end("a"),
        EndpointSymbol.start("b"), EndpointSymbol.end("b"),
    )
    assert expected_support(seq, table, "r") == pytest.approx(10.0)


def test_expected_support_ignores_end_symbols():
    table = table_of({"a": 0.3}, 50)
    with_end = (EndpointSymbol.start("a"), EndpointSymbol.end("a"))
    only_start = (EndpointSymbol.start("a"),)
    assert expected_support(with_end, table, "r") == expected_support(only_start, table, "r")


def test_expected_support_unknown_symbol():
    table = table_of({"a": 1.0}, 10)
    with pytest.raises(DataError) as err:
        expected_support((EndpointSymbol.start("zz"),), table, "r")
    assert "zz" in str(err.value)


def test_significance_centered_and_z_value():
    pattern = make_pattern([[("a", 0, 10)]] * 5)
    table = table_of({"a": 0.5}, 10)  # expect = 5 == support
    assert significance(pattern, table) == pytest.approx(0.0)

    pattern9 = make_pattern([[("a", 0, 10)]] * 9)
    table9 = table_of({"a": 0.4}, 10)  # expect = 4
    assert significance(pattern9, table9) == pytest.approx(2.5)


def test_significance_monotone_in_support_and_expectation():
    table = table_of({"a": 0.4}, 10)
    sigs = [significance(make_pattern([[("a", 0, 10)]] * s), table) for s in (5, 7, 9)]
    assert sigs == sorted(sigs)
    pattern = make_pattern([[("a", 0, 10)]] * 9)
    lower_expect = table_of({"a": 0.2}, 10)
    assert significance(pattern, lower_expect) > significance(pattern, table)


def test_significance_zero_expectation():
    pattern = make_pattern([[("a", 0, 10)]])
    with pytest.raises(DataError):
        significance(pattern, table_of({"a": 0.0}, 10))


def test_probability_table_sums_to_one(running_example):
    table = EventProbabilityTable.from_database(running_example)
    for region, sub in table.regions.items():
        assert math.isclose(sum(sub.probabilities.values()), 1.0, abs_tol=1e-9)
    assert table.total_events("room") == running_example.event_count


# filter ---------------------------------------------------------------------

def test_filter_running_example_survivors(running_example):
    table = EventProbabilityTable.from_database(running_example)
    patterns = mine(running_example, 2)
    kept = filter_quality(patterns, table, minsig=0.01, minpro=0.3, w1=0.0, w2=1.0)
    by_tokens = {sp.pattern.tokens: sp.score for sp in kept}
    ef = by_tokens[("E+", "F+", "F-", "E-")]
    interleaved = by_tokens[("A+", "A-", "B+", "C+", "C-", "B-")]
    assert ef.combined == pytest.approx(0.879, abs=0.005)
    assert interleaved.combined == pytest.approx(0.494, abs=0.005)


def test_filter_vacuous_thresholds(running_example):
    table = EventProbabilityTable.from_database(running_example)
    patterns = mine(running_example, 2)
    kept = filter_quality(patterns, table, minsig=-1e9, minpro=0.0, w1=0.0, w2=1.0)
    assert len(kept) == len(patterns)


def test_filter_monotone_in_thresholds(running_example):
    table = EventProbabilityTable.from_database(running_example)
    patterns = mine(running_example, 2)

    def survivors(minsig, minpro):
        return {
            sp.pattern.tokens
            for sp in filter_quality(patterns, table, minsig, minpro, 0.0, 1.0)
        }

    for lo, hi in [(0.0, 0.3), (0.3, 0.5), (0.5, 0.9)]:
        assert survivors(-1e9, hi) <= survivors(-1e9, lo)
    for lo, hi in [(-1.0, 0.0), (0.0, 2.0), (2.0, 5.0)]:
        assert survivors(hi, 0.0) <= survivors(lo, 0.0)


def test_filter_validates_weights(running_example):
    table = EventProbabilityTable.from_database(running_example)
    with pytest.raises(ConfigError):
        filter_quality([], table, 0.0, 0.0, 0.5, 0.2)


def test_score_pattern_spatial_skipped_when_unweighted():
    pattern = make_pattern([[("a", 0, 10), ("b", 1, 11)]])  # no coordinates
    table = table_of({"a": 0.5, "b": 0.5}, 2)
    score = score_pattern(pattern, table, w1=0.0, w2=1.0)
    assert score.spatial_proximity is None
    assert score.combined == pytest.approx(score.temporal_proximity)
    (kept,) = filter_quality([pattern], table, minsig=-1e9, minpro=0.0, w1=0.0, w2=1.0)
    assert kept.score.spatial_proximity is None
    with pytest.raises(DataError):
        score_pattern(pattern, table, w1=0.5, w2=0.5)
    # at w1 > 0 missing coordinates raise even for a pattern failing minsig
    assert score.significance < 1e9
    with pytest.raises(DataError):
        score_pattern(pattern, table, w1=0.5, w2=0.5, minsig=1e9, minpro=1e9)
    with pytest.raises(DataError):
        filter_quality([pattern], table, minsig=1e9, minpro=1e9, w1=0.5, w2=0.5)


def test_combined_is_weighted_sum():
    pattern = make_pattern([[("a", 0, 10, (0, 0)), ("b", 5, 15, (2, 0))]])
    table = table_of({"a": 0.5, "b": 0.5}, 2)
    score = score_pattern(pattern, table, w1=0.4, w2=0.6)
    assert score.combined == pytest.approx(
        0.4 * score.spatial_proximity + 0.6 * score.temporal_proximity
    )


def test_score_pattern_spatial_only_for_kept_at_zero_weight(running_example):
    table = EventProbabilityTable.from_database(running_example)
    patterns = mine(running_example, 2)
    kept = filter_quality(patterns, table, minsig=0.01, minpro=0.3, w1=0.0, w2=1.0)
    assert kept and len(kept) < len(patterns)
    for sp in kept:
        assert sp.score.spatial_proximity == spatial_proximity(sp.pattern)
    kept_tokens = {sp.pattern.tokens for sp in kept}
    for pattern in patterns:
        full = score_pattern(pattern, table, 0.0, 1.0)
        gated = score_pattern(pattern, table, 0.0, 1.0, minsig=0.01, minpro=0.3)
        assert full.spatial_proximity == spatial_proximity(pattern)
        assert (gated.significance, gated.temporal_proximity, gated.combined) == (
            full.significance, full.temporal_proximity, full.combined
        )
        if pattern.tokens in kept_tokens:
            assert gated.spatial_proximity == full.spatial_proximity
        else:
            assert gated.spatial_proximity is None
