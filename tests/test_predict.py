"""Recognition scoring and next-activity prediction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import oracle_recognize, oracle_score

import habitminer

from habitminer.clustering import ProbabilisticCompositionPattern
from habitminer.errors import DataError
from habitminer.events import ServiceEvent
from habitminer.periodic import RepresentativeInterval
from habitminer.predict import (
    Observation,
    PeriodicPattern,
    PredictionModel,
    predict_next,
    recognize,
    score,
)
from habitminer.relations import AllenRelation, TemporalCell, TemporalMatrix

MIN = 60


def interval(start, end, location="kitchen", p=1.0):
    return RepresentativeInterval(
        start=start, end=end, location=location, probability=p,
        tolerance=120, support_count=1, total_count=1,
    )


def periodic(pid, entries, intervals):
    return PeriodicPattern(
        pid, ProbabilisticCompositionPattern(tuple(entries)), tuple(intervals)
    )


def model_of(patterns, cells=None, weights=(1.0, 1.0, 1.0)):
    ids = tuple(p.pattern_id for p in patterns)
    index = {pid: i for i, pid in enumerate(ids)}
    matrix_cells = {}
    for (a, b), cell in (cells or {}).items():
        matrix_cells[(index[a], index[b])] = cell
    vocabulary = tuple(sorted({t for p in patterns for t, _ in p.base.entries}))
    return PredictionModel(tuple(patterns), TemporalMatrix(ids, matrix_cells), vocabulary, weights)


def obs_of(events, region="kitchen", day_minute=0):
    built = tuple(
        ServiceEvent(svc, (day_minute + s) * MIN, (day_minute + e) * MIN, region)
        for svc, s, e in events
    )
    return Observation(built)


def breakfast_model():
    breakfast = periodic(
        "breakfast",
        [("stove", 1.0), ("toaster", 1.0)],
        [interval(6 * 60, 7 * 60, "kitchen", 1.0)],
    )
    dishes = periodic(
        "dishes",
        [("sink", 1.0)],
        [interval(7 * 60 + 8, 7 * 60 + 34, "kitchen", 0.45),
         interval(11 * 60 + 28, 11 * 60 + 31, "kitchen", 0.35)],
    )
    cells = {
        ("breakfast", "dishes"): TemporalCell(0.9, {AllenRelation.BEFORE: 0.9}),
    }
    return model_of([breakfast, dishes], cells)


def test_score_exact_match_is_three():
    model = breakfast_model()
    obs = obs_of([("stove", 6 * 60, 7 * 60), ("toaster", 6 * 60, 7 * 60)])
    scores = score(model.patterns[0], obs, model)
    assert scores.structure == pytest.approx(1.0)
    assert scores.time == pytest.approx(1.0)
    assert scores.location == 1.0
    assert scores.total == pytest.approx(3.0)


def test_score_region_mismatch():
    model = breakfast_model()
    obs = obs_of([("stove", 6 * 60, 7 * 60)], region="garage")
    assert score(model.patterns[0], obs, model).location == 0.0


def test_score_structure_euclidean_example():
    pattern = periodic("p", [("a", 1.0), ("b", 0.5)], [interval(0, 60)])
    model = model_of([pattern, periodic("q", [("c", 1.0)], [])])
    obs = obs_of([("a", 0, 60), ("b", 0, 60)])
    scores = score(pattern, obs, model)
    assert scores.structure == pytest.approx(1 / 1.5)


def test_score_unknown_observation_type_costs_distance():
    pattern = periodic("p", [("a", 1.0)], [interval(0, 60)])
    model = model_of([pattern])
    near = score(pattern, obs_of([("a", 0, 60)]), model).structure
    far = score(pattern, obs_of([("a", 0, 60), ("mystery", 0, 60)]), model).structure
    assert far < near


def test_score_time_bounds_for_overlapping_windows():
    pattern = periodic("p", [("a", 1.0)], [interval(6 * 60, 7 * 60)])
    model = model_of([pattern])
    for start, end in [(6 * 60, 7 * 60), (6 * 60 + 30, 7 * 60 + 30), (5 * 60 + 30, 6 * 60 + 30)]:
        y_t = score(pattern, obs_of([("a", start, end)]), model).time
        assert 0.5 - 1e-9 <= y_t <= 1.0 + 1e-9


def test_score_time_crossing_midnight():
    pattern = periodic("p", [("a", 1.0)], [interval(23 * 60, 24 * 60 + 30, "kitchen")])
    model = model_of([pattern])
    # an observation in the small hours, two days later
    obs = obs_of([("a", 0, 30)], day_minute=2 * 1440)
    assert score(pattern, obs, model).time > 0.5


def test_score_pattern_without_intervals():
    pattern = periodic("p", [("a", 1.0)], [])
    model = model_of([pattern])
    scores = score(pattern, obs_of([("a", 0, 60)]), model)
    assert scores.time == 0.0
    assert scores.location == 0.0


def test_recognize_single_pattern_model():
    pattern = periodic("only", [("a", 1.0)], [interval(0, 60)])
    model = model_of([pattern])
    ranked = recognize(obs_of([("zzz", 500, 560)], region="attic"), model)
    assert ranked[0][0] == "only"


def test_recognize_dominance():
    match = periodic("match", [("a", 1.0)], [interval(6 * 60, 7 * 60, "kitchen")])
    other = periodic("other", [("b", 1.0)], [interval(20 * 60, 21 * 60, "garage")])
    model = model_of([match, other])
    ranked = recognize(obs_of([("a", 6 * 60, 7 * 60)]), model)
    assert [pid for pid, _ in ranked] == ["match", "other"]
    assert ranked[0][1].total == pytest.approx(3.0)


def test_recognize_exact_match_ranks_first():
    exact = periodic("exact", [("a", 1.0), ("b", 1.0)], [interval(100, 160, "kitchen")])
    close = periodic("close", [("a", 1.0), ("b", 0.7)], [interval(100, 160, "kitchen")])
    model = model_of([exact, close])
    ranked = recognize(obs_of([("a", 100, 160), ("b", 100, 160)]), model)
    assert ranked[0][0] == "exact"


def test_recognize_ties_broken_by_id():
    twin_a = periodic("a_twin", [("x", 1.0)], [interval(0, 60, "kitchen")])
    twin_b = periodic("b_twin", [("x", 1.0)], [interval(0, 60, "kitchen")])
    model = model_of([twin_b, twin_a])
    ranked = recognize(obs_of([("x", 0, 60)]), model)
    assert [pid for pid, _ in ranked] == ["a_twin", "b_twin"]


def test_recognize_weighted_scores():
    pattern = periodic("p", [("a", 1.0)], [interval(0, 60, "kitchen")])
    model = model_of([pattern], weights=(2.0, 0.0, 0.0))
    scores = recognize(obs_of([("a", 0, 60)]), model)[0][1]
    assert scores.total == pytest.approx(2.0)


def test_recognize_ranking_invariant_under_score_shift():
    patterns = [
        periodic("p0", [("a", 1.0), ("b", 0.4)], [interval(6 * 60, 7 * 60, "kitchen")]),
        periodic("p1", [("b", 1.0)], [interval(9 * 60, 10 * 60, "hall")]),
        periodic("p2", [("a", 0.7), ("c", 0.9)], [interval(6 * 60 + 30, 7 * 60, "kitchen")]),
    ]
    model = model_of(patterns)
    ranked = recognize(obs_of([("a", 6 * 60, 7 * 60)]), model)
    shift = 7.5  # a constant offset cannot reorder the decomposition sum
    shifted_order = sorted(
        ranked, key=lambda item: (-(item[1].structure + item[1].time + item[1].location + shift), item[0])
    )
    assert [pid for pid, _ in ranked] == [pid for pid, _ in shifted_order]


def test_structure_score_peaks_at_own_support_set():
    pattern = periodic("p", [("a", 1.0), ("b", 1.0)], [interval(0, 60, "kitchen")])
    model = model_of([pattern, periodic("q", [("c", 1.0)], [])])
    exact = score(pattern, obs_of([("a", 0, 60), ("b", 0, 60)]), model).structure
    for events in ([("a", 0, 60)], [("a", 0, 60), ("c", 0, 60)], [("c", 0, 60)]):
        assert score(pattern, obs_of(events), model).structure <= exact


def test_recognize_empty_model():
    model = model_of([periodic("p", [("a", 1.0)], [])])
    object.__setattr__(model, "patterns", ())
    with pytest.raises(DataError):
        recognize(obs_of([("a", 0, 10)]), model)


def test_predict_next_walkthrough():
    # recognized breakfast; dishes is the best successor and its morning
    # interval follows breakfast's end
    model = breakfast_model()
    prediction = predict_next("breakfast", model)
    assert prediction.next_id == "dishes"
    assert prediction.interval == (7 * 60 + 8, 7 * 60 + 34)
    assert prediction.location == "kitchen"
    assert prediction.confidence == pytest.approx(0.9 * 0.45)
    assert prediction.relation == AllenRelation.BEFORE


def test_predict_next_skips_earlier_intervals():
    source = periodic("src", [("a", 1.0)], [interval(12 * 60, 13 * 60)])
    target = periodic(
        "tgt",
        [("b", 1.0)],
        [interval(8 * 60, 9 * 60, "kitchen", 0.9), interval(14 * 60, 15 * 60, "kitchen", 0.4)],
    )
    cells = {("src", "tgt"): TemporalCell(1.0, {AllenRelation.BEFORE: 1.0})}
    model = model_of([source, target], cells)
    prediction = predict_next("src", model)
    # the high-probability morning slot is already past 13:00
    assert prediction.interval == (14 * 60, 15 * 60)
    assert prediction.confidence == pytest.approx(0.4)


def test_predict_next_falls_back_to_top_interval():
    source = periodic("src", [("a", 1.0)], [interval(22 * 60, 23 * 60)])
    target = periodic("tgt", [("b", 1.0)], [interval(8 * 60, 9 * 60, "kitchen", 0.8)])
    cells = {("src", "tgt"): TemporalCell(0.5, {AllenRelation.BEFORE: 0.5})}
    model = model_of([source, target], cells)
    prediction = predict_next("src", model)
    assert prediction.interval == (8 * 60, 9 * 60)
    assert prediction.confidence == pytest.approx(0.4)


def test_predict_next_zero_row():
    pattern = periodic("isolated", [("a", 1.0)], [interval(0, 60)])
    model = model_of([pattern])
    prediction = predict_next("isolated", model)
    assert prediction.next_id is None
    assert prediction.interval is None
    assert prediction.confidence == 0.0


def test_predict_next_ties_break_by_id():
    src = periodic("src", [("a", 1.0)], [interval(0, 60)])
    t1 = periodic("t1", [("b", 1.0)], [interval(120, 180, "kitchen", 0.5)])
    t2 = periodic("t2", [("c", 1.0)], [interval(120, 180, "kitchen", 0.5)])
    cells = {
        ("src", "t2"): TemporalCell(0.5, {AllenRelation.BEFORE: 0.5}),
        ("src", "t1"): TemporalCell(0.5, {AllenRelation.BEFORE: 0.5}),
    }
    model = model_of([src, t1, t2], cells)
    assert predict_next("src", model).next_id == "t1"


def test_observation_window_and_region():
    obs = Observation(
        (
            ServiceEvent("a", 100, 200, "kitchen"),
            ServiceEvent("b", 150, None, "hall"),
            ServiceEvent("c", 160, 210, "kitchen"),
        ),
        now=260,
    )
    assert obs.window == (100, 260)
    assert obs.region == "kitchen"
    with pytest.raises(DataError):
        Observation((ServiceEvent("a", 0, None, "r"),)).window


SERVICES = ("a", "b", "c", "d", "e")
REGIONS = ("kitchen", "hall")
_PROBABILITY = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def models(draw):
    """Random models: vocabularies that repeat services or miss some a
    pattern involves, repeated entries, and patterns without intervals."""
    patterns = []
    for n in range(draw(st.integers(1, 4))):
        entries = draw(st.lists(st.tuples(st.sampled_from(SERVICES), _PROBABILITY), max_size=6))
        intervals = []
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, 1439))
            intervals.append(interval(start, start + draw(st.integers(0, 600)),
                                      draw(st.sampled_from(REGIONS)), draw(_PROBABILITY)))
        patterns.append(periodic(f"p{n}", entries, intervals))
    ids = tuple(p.pattern_id for p in patterns)
    vocabulary = tuple(draw(st.lists(st.sampled_from(SERVICES), max_size=8)))
    weights = tuple(draw(st.floats(0.0, 3.0)) for _ in range(3))
    return PredictionModel(tuple(patterns), TemporalMatrix(ids, {}), vocabulary, weights)


@st.composite
def observations(draw):
    """Random observations over three days, with services outside every
    vocabulary, open events and windows that wrap midnight."""
    events = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(0, 3 * 86400))
        end = draw(st.none() | st.integers(start, start + 4 * 3600))
        events.append(ServiceEvent(draw(st.sampled_from(SERVICES + ("x", "y"))), start, end,
                                   draw(st.sampled_from(REGIONS))))
    now = max(ev.start_time for ev in events) + draw(st.integers(0, 3600))
    return Observation(tuple(events), now=now)


@settings(max_examples=300, deadline=None)
@given(models(), observations())
@example(  # a window from 23:30 to 00:30 against an interval at 00:00-00:45
    model_of([periodic("p", [("a", 0.5)], [interval(0, 45)])]),
    obs_of([("a", 23 * 60 + 30, 24 * 60 + 30)]),
)
@example(  # no coverage anywhere: the location comes from the top interval
    model_of([periodic("p", [("a", 0.5)], [interval(600, 600), interval(900, 900, "hall", 0.5)])]),
    obs_of([("a", 100, 100)]),
)
def test_recognize_equals_oracle(model, obs):
    assert recognize(obs, model) == oracle_recognize(obs, model)
    for pattern in model.patterns:
        assert score(pattern, obs, model) == oracle_score(pattern, obs, model)


_SCORES_SCRIPT = """
from habitminer.clustering import ProbabilisticCompositionPattern
from habitminer.events import ServiceEvent
from habitminer.predict import Observation, PeriodicPattern, PredictionModel, recognize
from habitminer.relations import TemporalMatrix

services = [f"s{i}" for i in range(40)]
patterns = tuple(
    PeriodicPattern(f"p{k}", ProbabilisticCompositionPattern(
        tuple((svc, 1 / (i + k + 3)) for i, svc in enumerate(services))), ())
    for k in range(3)
)
model = PredictionModel(patterns, TemporalMatrix(("p0", "p1", "p2"), {}), tuple(services))
obs = Observation(tuple(ServiceEvent(svc, 0, 60, "r") for svc in services[::3]))
for pid, s in recognize(obs, model):
    print(pid, repr(s.total), repr(s.structure))
"""


def test_recognize_scores_do_not_depend_on_hash_seed():
    src = str(Path(habitminer.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _SCORES_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 3


def test_predict_next_unknown_id():
    with pytest.raises(DataError):
        predict_next("nope", breakfast_model())
