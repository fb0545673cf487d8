"""The mining kernel against the brute-force oracle, and the hook around it."""

import random

from oracles import random_database, wellformed_subsequences

import habitminer.mining as mining
from habitminer.mining import encode_database, mine, mine_sequences


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
                    expected.setdefault(p, []).append(si)
        expected = {p: sids for p, sids in expected.items() if len(sids) >= minsup}
        assert mine_sequences(encoded, minsup, max_len) == expected


def test_pure_kernel_empty_inputs():
    assert mine_sequences([], 1, 20) == {}
    assert mine_sequences([[], []], 1, 20) == {}


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
