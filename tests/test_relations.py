"""Allen-style classification and the transition matrix."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_matrix, matrix_cell

from habitminer.errors import DataError
from habitminer.relations import (
    AllenRelation,
    InstanceRef,
    build_matrix,
    classify,
    classify_ordered,
)

R = AllenRelation

# the thirteen endpoint-order configurations of two intervals
CONFIGURATIONS = [
    (((1, 2), (3, 4)), R.BEFORE, False),
    (((3, 4), (1, 2)), R.BEFORE, True),       # after
    (((1, 3), (3, 5)), R.MEET, False),
    (((3, 5), (1, 3)), R.MEET, True),         # met-by
    (((1, 4), (2, 6)), R.OVERLAP, False),
    (((2, 6), (1, 4)), R.OVERLAP, True),      # overlapped-by
    (((1, 2), (1, 4)), R.START_BY, False),
    (((1, 4), (1, 2)), R.START_BY, True),     # started-by
    (((3, 4), (1, 4)), R.FINISH, False),
    (((1, 4), (3, 4)), R.FINISH, True),       # finished-by
    (((2, 3), (1, 4)), R.DURING, False),
    (((1, 4), (2, 3)), R.DURING, True),       # contains
    (((1, 4), (1, 4)), R.EQUAL, False),
]


@pytest.mark.parametrize("pair,expected,swapped", CONFIGURATIONS)
def test_thirteen_configurations(pair, expected, swapped):
    assert classify_ordered(*pair) == (expected, swapped)


def test_classify_worked_examples():
    assert classify((1, 2), (3, 4)) == R.BEFORE
    assert classify((1, 4), (1, 4)) == R.EQUAL
    assert classify((1, 3), (3, 5)) == R.MEET
    assert classify((1, 4), (2, 6)) == R.OVERLAP
    assert classify((2, 3), (1, 4)) == R.DURING


def test_classify_rejects_invalid_interval():
    with pytest.raises(DataError):
        classify((5, 1), (0, 2))


@given(
    st.tuples(st.integers(0, 50), st.integers(0, 50)),
    st.tuples(st.integers(0, 50), st.integers(0, 50)),
)
@settings(max_examples=500)
def test_classify_total_over_valid_pairs(a, b):
    a = (min(a), max(a))
    b = (min(b), max(b))
    rel, swapped = classify_ordered(a, b)
    assert isinstance(rel, AllenRelation)
    # agreement with the raw predicates on the reported orientation
    x, y = (b, a) if swapped else (a, b)
    checks = {
        R.BEFORE: x[1] < y[0],
        R.MEET: x[1] == y[0],
        R.OVERLAP: x[0] < y[0] < x[1] < y[1],
        R.EQUAL: x == y,
        R.START_BY: x[0] == y[0] and x[1] < y[1],
        R.FINISH: x[0] > y[0] and x[1] == y[1],
        R.DURING: y[0] < x[0] and x[1] < y[1],
    }
    assert checks[rel]


def _refs(spec):
    """spec: {pattern: [(sid, start, end), ...]}"""
    return [
        (pid, [InstanceRef(sid, s, e) for sid, s, e in insts])
        for pid, insts in spec.items()
    ]


def test_matrix_half_transits():
    # 2 of 4 instances of a are followed in-sequence by a b instance
    spec = {
        "a": [(0, 10, 20), (1, 10, 20), (2, 10, 20), (3, 10, 20)],
        "b": [(0, 30, 40), (1, 25, 35)],
    }
    matrix = build_matrix(_refs(spec))
    cell = matrix_cell(matrix, "a", "b")
    assert cell.tran_pro == pytest.approx(0.5)
    assert cell.relations[R.BEFORE] == pytest.approx(0.5)


def test_matrix_cell_mass_matches_tran_pro():
    rng = random.Random(2)
    for _ in range(40):
        spec = {}
        for p in range(rng.randint(2, 5)):
            insts = []
            for _ in range(rng.randint(1, 6)):
                sid = rng.randint(0, 3)
                start = rng.randint(0, 100)
                insts.append((sid, start, start + rng.randint(0, 30)))
            spec[f"p{p}"] = insts
        matrix = build_matrix(_refs(spec))
        for (i, j), cell in matrix.cells.items():
            assert i != j  # no self transitions
            assert 0.0 <= cell.tran_pro <= 1.0 + 1e-9
            assert sum(cell.relations.values()) == pytest.approx(cell.tran_pro)


def test_matrix_brute_force_equivalence():
    rng = random.Random(77)
    for _ in range(60):
        spec = {}
        for p in range(rng.randint(2, 5)):
            insts = []
            for _ in range(rng.randint(1, 6)):
                sid = rng.randint(0, 2)
                start = rng.randint(0, 60)
                insts.append((sid, start, start + rng.randint(0, 25)))
            spec[f"p{p}"] = insts
        refs = _refs(spec)
        matrix = build_matrix(refs)
        expected = brute_force_matrix(refs)
        got = {
            (matrix.pattern_ids[i], matrix.pattern_ids[j]): (cell.tran_pro, cell.relations)
            for (i, j), cell in matrix.cells.items()
        }
        assert set(got) == set(expected)
        for key, (tran, rels) in expected.items():
            assert got[key][0] == pytest.approx(tran)
            assert got[key][1] == pytest.approx(rels)


@st.composite
def _grouped_instances(draw):
    """(pattern id, instances) pairs that always hold an interval repeated
    inside one pattern and sequence, instances of two patterns that start
    together, a zero-length interval and instances in several sequences,
    in a drawn order, so the repeats sit at any index."""
    pool = draw(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 10)).map(lambda t: (t[0], t[0] + t[1])),
            min_size=2,
            max_size=5,
        )
    )
    start = pool[0][0]
    pool.append((start, start))
    spec = [
        draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(pool)), max_size=8))
        for _ in range(draw(st.integers(2, 4)))
    ]
    spec[0] += [(0, pool[0]), (0, pool[0]), (1, pool[1])]
    spec[1] += [(0, (start, start)), (1, pool[0]), (1, pool[0])]
    return [
        (f"p{p}", [InstanceRef(sid, s, e) for sid, (s, e) in draw(st.permutations(insts))])
        for p, insts in enumerate(spec)
    ]


@given(_grouped_instances())
@settings(max_examples=300, deadline=None)
def test_matrix_equals_brute_force_exactly(refs):
    matrix = build_matrix(refs)
    got = {
        (matrix.pattern_ids[i], matrix.pattern_ids[j]): (cell.tran_pro, cell.relations)
        for (i, j), cell in matrix.cells.items()
    }
    assert got == brute_force_matrix(refs)


def test_matrix_nested_activity_lands_in_swapped_cell():
    # dish washing happens strictly inside listening to music: the
    # containment is booked as washing-during-music even though only the
    # music instance starts first
    spec = {
        "music": [(0, 13 * 60 + 10, 14 * 60)],
        "washing": [(0, 13 * 60 + 20, 13 * 60 + 40)],
    }
    matrix = build_matrix(_refs(spec))
    cell = matrix_cell(matrix, "washing", "music")
    assert cell.tran_pro == pytest.approx(1.0)
    assert cell.relations[R.DURING] == pytest.approx(1.0)
    assert matrix_cell(matrix, "music", "washing").tran_pro == 0.0


def test_matrix_counts_each_source_instance_once():
    # one a instance, two later b instances: only the earliest counts
    spec = {
        "a": [(0, 0, 10)],
        "b": [(0, 20, 30), (0, 40, 50)],
    }
    matrix = build_matrix(_refs(spec))
    cell = matrix_cell(matrix, "a", "b")
    assert cell.tran_pro == pytest.approx(1.0)
    assert cell.relations[R.BEFORE] == pytest.approx(1.0)


def test_matrix_requires_same_sequence():
    spec = {"a": [(0, 0, 10)], "b": [(1, 20, 30)]}
    matrix = build_matrix(_refs(spec))
    assert matrix_cell(matrix, "a", "b").tran_pro == 0.0


def test_matrix_duplicate_ids_rejected():
    with pytest.raises(DataError):
        build_matrix([("a", []), ("a", [])])


def test_matrix_top_relation():
    spec = {
        "a": [(0, 0, 10), (1, 0, 10), (2, 0, 10)],
        "b": [(0, 20, 30), (1, 5, 30), (2, 50, 60)],
    }
    cell = matrix_cell(build_matrix(_refs(spec)), "a", "b")
    assert cell.top_relation == R.BEFORE
