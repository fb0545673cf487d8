"""The mining kernel against the brute-force oracle, and the hook around it."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import leftmost_match_scan, random_database, wellformed_subsequences

import habitminer.mining as mining
from habitminer.events import EventDatabase, EventSequence, ServiceEvent
from habitminer.mining import encode_database, mine, mine_sequences


def _leftmost_starts(codes, pattern):
    """Positions of the pattern's start codes along the leftmost embedding."""
    positions = leftmost_match_scan(codes, pattern)
    return tuple(pos for pos, code in zip(positions, pattern) if not code & 1)


def test_pure_kernel_matches_oracle_under_length_cut():
    # the pure kernel prunes prefixes whose open services cannot close;
    # short max_len puts many of them right at the length cut
    rng = random.Random(20261020)
    for _ in range(300):
        db = random_database(rng)
        encoded, _ = encode_database(db)
        minsup = rng.randint(1, 3)
        max_len = rng.choice([2, 4, 6, 8])
        expected = {}
        for si, codes in enumerate(encoded):
            for p in wellformed_subsequences(codes):
                if len(p) <= max_len:
                    expected.setdefault(p, []).append((si, _leftmost_starts(codes, p)))
        expected = {p: pairs for p, pairs in expected.items() if len(pairs) >= minsup}
        assert mine_sequences(encoded, minsup, max_len) == expected


_events = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 60), st.integers(0, 20)),
    min_size=1, max_size=9,
)


@settings(max_examples=200, deadline=None)
@given(
    sequences=st.lists(_events, min_size=1, max_size=6),
    minsup=st.integers(1, 3),
    max_len=st.sampled_from([2, 3, 4, 6, 20]),
)
def test_kernel_positions_are_leftmost_scan_starts(sequences, minsup, max_len):
    db = EventDatabase(tuple(
        EventSequence(sid, tuple(
            ServiceEvent("abcd"[svc], start, start + length, "r")
            for svc, start, length in events
        ))
        for sid, events in enumerate(sequences)
    ))
    encoded, _ = encode_database(db)
    for pattern, pairs in mine_sequences(encoded, minsup, max_len).items():
        assert len(pattern) <= max_len
        sids = [si for si, _ in pairs]
        assert sids == sorted(set(sids)) and len(sids) >= minsup
        for si, starts in pairs:
            assert starts == _leftmost_starts(encoded[si], pattern)


def test_pure_kernel_empty_inputs():
    assert mine_sequences([], 1, 20) == {}
    assert mine_sequences([[], []], 1, 20) == {}
    assert mine_sequences([[0, 1], []], 1, 20) == {(0, 1): [(0, (0,))]}


def test_mine_calls_kernel_through_module_name(monkeypatch):
    # the pipeline benchmark times the kernel by replacing this module
    # global; mine() must look the name up on every call
    calls = []

    def counting(*args):
        calls.append(args)
        return mine_sequences(*args)

    monkeypatch.setattr(mining, "mine_sequences", counting)
    db = random_database(random.Random(7))
    for expected_calls in (1, 2):
        mine(db, 1)
        assert len(calls) == expected_calls
    assert mining.KERNEL_NAME == "python"
