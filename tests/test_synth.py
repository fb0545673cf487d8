"""Synthetic trace generation and its ground truth."""

import io
import math

import pytest

from conftest import planted_chain, planted_household
from oracles import matrix_cell

from habitminer.errors import SpecValidationError
from habitminer.events import parse_interval
from habitminer.mining import mine
from habitminer.relations import AllenRelation, InstanceRef, build_matrix, classify
from habitminer.synth import (
    ActivitySpec,
    SuccessorLink,
    format_trace,
    generate,
    load_activity_specs,
    truth_as_dicts,
)


def simple_spec(**kw):
    defaults = dict(
        name="act", region="kitchen", mandatory=("a", "b"),
        start_mean=480, duration=(30, 30), daily_probability=1.0,
    )
    defaults.update(kw)
    return ActivitySpec(**defaults)


def test_generate_reproducible():
    specs = planted_household()
    db1, truth1 = generate(specs, 10, seed=4)
    db2, truth2 = generate(specs, 10, seed=4)
    assert db1 == db2
    assert truth1 == truth2
    db3, _ = generate(specs, 10, seed=5)
    assert db3 != db1


def test_generate_fixed_schedule_mines_back():
    spec = simple_spec(mandatory=("stove", "light"))
    db, truth = generate([spec], 14, seed=0)
    assert len(truth) == 14
    assert len(db) == 14
    patterns = {p.tokens: p.support for p in mine(db, 14)}
    # the spanning service wraps the follower every day
    assert patterns[("stove+", "light+", "light-", "stove-")] == 14


def test_generate_no_optional_means_identical_service_sets():
    db, truth = generate([simple_spec()], 6, seed=1)
    sets = {t.services for t in truth}
    assert sets == {("a", "b")}


def test_generate_optional_inclusion():
    spec = simple_spec(optional=(("c", 0.5),))
    _, truth = generate([spec], 40, seed=2)
    with_c = sum(1 for t in truth if "c" in t.services)
    assert 0 < with_c < 40


def test_generate_binomial_counts():
    spec = simple_spec(daily_probability=0.6)
    days, seeds = 10, 100
    total = 0
    for seed in range(seeds):
        _, truth = generate([spec], days, seed=seed)
        total += len(truth)
    n = days * seeds
    mean = n * 0.6
    sd = math.sqrt(n * 0.6 * 0.4)
    assert abs(total - mean) <= 3 * sd


def test_generate_ground_truth_matches_events():
    db, truth = generate(planted_household(), 5, seed=7)
    by_day = {}
    for entry in truth:
        by_day.setdefault(entry.day, []).append(entry)
    for seq in db.sequences:
        services = {ev.service_id for ev in seq.events}
        expected = {svc for e in by_day[seq.sid] for svc in e.services}
        assert services == expected


@pytest.mark.parametrize(
    "relation",
    [
        AllenRelation.BEFORE,
        AllenRelation.MEET,
        AllenRelation.OVERLAP,
        AllenRelation.EQUAL,
        AllenRelation.START_BY,
        AllenRelation.FINISH,
        AllenRelation.DURING,
    ],
)
def test_generate_places_relations_exactly(relation):
    src = simple_spec(
        name="src", mandatory=("a",), duration=(20, 25),
        successors=(SuccessorLink("tgt", relation, 1.0),),
    )
    tgt = simple_spec(name="tgt", region="hall", mandatory=("z",), duration=(30, 40),
                      daily_probability=0.0)
    _, truth = generate([src, tgt], 12, seed=3)
    by_day = {}
    for t in truth:
        by_day.setdefault(t.day, {})[t.label] = t
    assert len(by_day) == 12
    for labels in by_day.values():
        a, b = labels["src"], labels["tgt"]
        assert classify((a.start, a.end), (b.start, b.end)) == relation


def test_generate_link_recovers_in_matrix():
    db, truth = generate(planted_chain(), 14, seed=9)
    refs = {"cook": [], "dishes": []}
    for t in truth:
        refs[t.label].append(InstanceRef(t.day, t.start, t.end))
    matrix = build_matrix(sorted(refs.items()))
    cell = matrix_cell(matrix, "cook", "dishes")
    assert cell.tran_pro == pytest.approx(1.0)
    assert cell.relations[AllenRelation.BEFORE] == pytest.approx(1.0)


def test_validate_rejects_impossible_during():
    src = simple_spec(name="src", duration=(30, 30),
                      successors=(SuccessorLink("tgt", AllenRelation.DURING, 1.0),))
    tgt = simple_spec(name="tgt", duration=(10, 20), daily_probability=0.0)
    with pytest.raises(SpecValidationError):
        generate([src, tgt], 3, seed=0)


def test_validate_rejects_unknown_successor():
    src = simple_spec(successors=(SuccessorLink("ghost", AllenRelation.BEFORE, 1.0),))
    with pytest.raises(SpecValidationError):
        generate([src], 3, seed=0)


def test_validate_rejects_bad_numbers():
    with pytest.raises(SpecValidationError):
        generate([simple_spec(daily_probability=1.5)], 3, seed=0)
    with pytest.raises(SpecValidationError):
        generate([simple_spec(duration=(0, 5))], 3, seed=0)
    with pytest.raises(SpecValidationError):
        generate([simple_spec(optional=(("x", 2.0),))], 3, seed=0)
    with pytest.raises(SpecValidationError):
        generate([], 3, seed=0)
    with pytest.raises(SpecValidationError):
        generate([simple_spec()], 0, seed=0)


def test_trace_roundtrips_through_interval_parser():
    db, _ = generate(planted_household(), 3, seed=6)
    text = format_trace(db)
    events = parse_interval(io.StringIO(text))
    assert len(events) == db.event_count
    assert all(ev.start_coord is not None for ev in events)


def test_load_activity_specs():
    doc = {
        "activities": [
            {
                "name": "tea",
                "region": "kitchen",
                "mandatory": ["kettle"],
                "optional": [["radio", 0.25]],
                "start_mean": "16:30",
                "start_jitter": 5,
                "duration": [10, 15],
                "daily_probability": 0.8,
                "successors": [["wash", "before", 0.5]],
            },
            {"name": "wash", "region": "kitchen", "mandatory": ["sink"]},
        ]
    }
    specs = load_activity_specs(doc)
    assert specs[0].start_mean == 16 * 60 + 30
    assert specs[0].successors[0] == SuccessorLink("wash", AllenRelation.BEFORE, 0.5)
    assert truth_as_dicts(generate(specs, 2, seed=0)[1])
