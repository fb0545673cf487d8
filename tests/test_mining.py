"""Pattern growth: containment, support, projection and full mining."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ProjectedDatabase,
    contains,
    enumerate_patterns,
    leftmost_match_scan,
    project,
    random_database,
    support,
    wellformed_subsequences,
)

from habitminer.errors import ConfigError
from habitminer.events import EndpointSymbol, EventSequence, parse_interval
from habitminer.mining import encode_database, leftmost_match, mine


def _sym(token):
    return EndpointSymbol.parse(token)


def _tokens(*tokens):
    return tuple(_sym(t) for t in tokens)


def test_contains_running_example(running_example):
    day1 = running_example.sequences[0]
    assert contains(day1, _tokens("E+", "F+", "F-", "E-"))
    assert contains(day1, ())  # every sequence contains the empty pattern
    assert not contains(_tokens("B+", "A+"), _tokens("A+", "B+"))


def test_support_running_example(running_example):
    assert support(running_example, _tokens("E+", "F+", "F-", "E-")) == 2
    assert support(running_example, _tokens("A+", "A-")) == 3


def test_support_empty_db():
    from habitminer.events import EventDatabase

    assert support(EventDatabase(), _tokens("A+", "A-")) == 0


def test_support_antimonotone_random():
    rng = random.Random(3)
    for _ in range(20):
        db = random_database(rng, max_sequences=5, max_events=6, max_services=3)
        encoded, services = encode_database(db)
        full = enumerate_patterns(encoded, 1)
        for codes, sup in full.items():
            # strip the final pair to get a shorter well-formed subpattern
            for cut in wellformed_subsequences(list(codes)):
                if len(cut) < len(codes):
                    assert full[cut] >= sup


def test_mine_running_example_pair_counts(running_example):
    patterns = {p.tokens: p.support for p in mine(running_example, 2)}
    assert patterns[("A+", "A-")] == 3
    assert patterns[("B+", "B-")] == 3
    assert patterns[("C+", "C-")] == 3
    assert patterns[("E+", "E-")] == 2
    assert patterns[("F+", "F-")] == 3
    assert ("D+", "D-") not in patterns  # support 1


def test_mine_interleaved_growth(running_example):
    patterns = {p.tokens: p.support for p in mine(running_example, 2)}
    assert patterns[("A+", "A-", "B+", "C+", "C-", "B-")] == 3
    # the longer interleavings from the same walk-through
    assert patterns[("A+", "A-", "B+", "C+", "C-", "B-", "F+", "F-")] == 3
    assert patterns[("A+", "A-", "B+", "C+", "C-", "B-", "E+", "F+", "F-", "E-")] == 2


def test_mine_reports_only_wellformed(running_example):
    for pattern in mine(running_example, 2):
        open_set = set()
        for sym in pattern.seq:
            if sym.is_end:
                assert sym.service_id in open_set
                open_set.discard(sym.service_id)
            else:
                assert sym.service_id not in open_set
                open_set.add(sym.service_id)
        assert not open_set


def test_mine_rejects_bad_minsup(running_example):
    with pytest.raises(ConfigError):
        mine(running_example, 0)


def test_mine_instances_are_leftmost(running_example):
    patterns = {p.tokens: p for p in mine(running_example, 2)}
    inst = next(i for i in patterns[("E+", "F+", "F-", "E-")].instances if i.sid == 0)
    # day 1 instance: E covers 60..75, F covers 61..73 (minutes)
    spans = sorted((ev.start_time // 60 % 1440, ev.end_time // 60 % 1440) for ev in inst.events)
    assert spans == [(60, 75), (61, 73)]


@settings(max_examples=300, deadline=None)
@given(
    haystack=st.lists(st.integers(0, 3), max_size=14),
    needle=st.lists(st.integers(0, 5), max_size=6),  # 4 and 5 never occur
    as_tuples=st.booleans(),
)
@example(haystack=[], needle=[], as_tuples=False)
@example(haystack=[3, 1], needle=[], as_tuples=True)
@example(haystack=[1, 1, 2, 1], needle=[1, 1, 1], as_tuples=False)
@example(haystack=[1, 1, 2], needle=[1, 1, 1], as_tuples=True)
@example(haystack=[2, 1], needle=[1, 2], as_tuples=False)
def test_leftmost_match_agrees_with_scan(haystack, needle, as_tuples):
    if as_tuples:
        haystack, needle = tuple(haystack), tuple(needle)
    assert leftmost_match(haystack, needle) == leftmost_match_scan(haystack, needle)


def test_mine_deterministic(running_example):
    a = mine(running_example, 2)
    b = mine(running_example, 2)
    assert [(p.tokens, p.support) for p in a] == [(p.tokens, p.support) for p in b]
    lengths = [len(p.seq) for p in a]
    assert lengths == sorted(lengths)


def test_mine_oracle_equivalence_small():
    rng = random.Random(99)
    for _ in range(25):
        db = random_database(rng)
        minsup = rng.randint(1, 3)
        encoded, services = encode_database(db)
        expected = enumerate_patterns(encoded, minsup)
        got = {
            tuple(2 * services.index(s.service_id) + s.is_end for s in p.seq): p.support
            for p in mine(db, minsup, max_len=24)
        }
        assert got == expected


def test_mine_max_len_caps_growth(running_example):
    capped = mine(running_example, 2, max_len=4)
    assert max(len(p.seq) for p in capped) <= 4


def test_mine_repeated_service_pattern():
    events = parse_interval(
        ["a,08:00,08:10,r", "a,09:00,09:10,r", "a,10:00,10:15,r"]
    )
    from habitminer.events import EventDatabase

    db = EventDatabase((EventSequence(0, tuple(events)),))
    patterns = {p.tokens for p in mine(db, 1)}
    assert ("a+", "a-", "a+", "a-", "a+", "a-") in patterns


def test_project_running_example(running_example):
    pdb = ProjectedDatabase.initial(running_example)
    pdb = project(pdb, _sym("A+"))
    pdb = project(pdb, _sym("A-"))
    assert len(pdb) == 3
    # suffixes start right after each sequence's first A- endpoint
    suffixes = {sid: [e.symbol.token for e in rest] for sid, rest, _ in pdb.suffixes()}
    assert suffixes[0][:3] == ["B+", "C+", "D+"]
    assert suffixes[2][:2] == ["B+", "C+"]


def test_project_unmatched_symbol(running_example):
    pdb = ProjectedDatabase.initial(running_example)
    assert len(project(pdb, _sym("Z+"))) == 0


def test_double_projection_counts_pair_support(running_example):
    pdb = ProjectedDatabase.initial(running_example)
    projected = project(project(pdb, _sym("E+")), _sym("E-"))
    assert len(projected) == support(running_example, _tokens("E+", "E-"))
    assert projected.open_starts == ()


def test_pattern_instance_interval(running_example):
    pattern = next(
        p for p in mine(running_example, 2) if p.tokens == ("E+", "F+", "F-", "E-")
    )
    assert pattern.support == len({i.sid for i in pattern.instances}) == 2
    inst = pattern.instances[0]
    lo, hi = inst.interval
    assert lo <= hi
