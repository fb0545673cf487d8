"""Event model, parsers, segmentation and partitioning."""

import pytest

from oracles import canonical_endpoints

from habitminer.errors import DataError, ParseError
from habitminer.events import (
    EndpointSymbol,
    EventDatabase,
    EventSequence,
    ParseDiagnostics,
    ServiceEvent,
    parse_casas,
    parse_interval,
    partition_by_region,
    segment,
)

H = 3600


def test_event_invariants():
    with pytest.raises(DataError):
        ServiceEvent("a", 10, 5, "kitchen")
    with pytest.raises(DataError):
        ServiceEvent("a", 0, 5, "")
    with pytest.raises(DataError):
        ServiceEvent("a", 0, 5, "kitchen", start_coord=(1, 2))


def test_parse_casas_pairs_on_off():
    lines = [
        "2008-02-21 11:45:35 M14 ON",
        "2008-02-21 11:46:05 M14 OFF",
    ]
    events = parse_casas(lines)
    assert len(events) == 1
    ev = events[0]
    assert ev.service_id == "M14"
    assert ev.end_time - ev.start_time == 30


def test_parse_casas_empty():
    assert parse_casas([]) == []


def test_parse_casas_on_on_off():
    # second ON closes the first interval; the OFF closes the second
    lines = [
        "2008-02-21 10:00:00 M1 ON",
        "2008-02-21 10:05:00 M1 ON",
        "2008-02-21 10:09:00 M1 OFF",
    ]
    diag = ParseDiagnostics()
    events = parse_casas(lines, diag)
    spans = [(e.start_time % 86400, e.end_time % 86400) for e in events]
    assert spans == [(10 * H, 10 * H + 300), (10 * H + 300, 10 * H + 540)]
    assert diag.auto_closed_on_restart == 1


def test_parse_casas_orphan_off_and_end_of_day():
    lines = [
        "2008-02-21 10:00:00 M1 OFF",
        "2008-02-21 23:50:00 M2 ON",
        "2008-02-22 08:00:00 M3 ON",
        "2008-02-22 08:10:00 M3 OFF",
    ]
    diag = ParseDiagnostics()
    events = parse_casas(lines, diag)
    assert diag.skipped_off == 1
    assert diag.auto_closed_end_of_day == 1  # only M2 was left open
    by_id = {e.service_id: e for e in events}
    assert by_id["M2"].end_time % 86400 == 0  # closed at midnight


def test_parse_casas_malformed_line():
    with pytest.raises(ParseError) as err:
        parse_casas(["2008-02-21 11:45:35 M14"])
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_casas(["2008-02-21 11:45:35 M14 OPEN"])
    with pytest.raises(ParseError):  # stamps are local times: no UTC offset
        parse_casas(["2008-02-21 11:45:35+01:00 M14 ON"])


def test_parse_casas_deterministic():
    lines = [
        "2008-02-21 10:00:00 M1 ON",
        "2008-02-21 10:00:00 M2 ON",
        "2008-02-21 10:03:00 M2 OFF",
        "2008-02-21 10:05:00 M1 OFF",
    ]
    assert parse_casas(list(lines)) == parse_casas(list(lines))


def test_parse_interval_basic():
    events = parse_interval(["Light,8:00,9:00,Bedroom"])
    assert len(events) == 1
    ev = events[0]
    assert (ev.service_id, ev.region) == ("Light", "Bedroom")
    assert (ev.start_time, ev.end_time) == (8 * H, 9 * H)
    assert ev.start_coord is None


def test_parse_interval_coordinates():
    ev = parse_interval(["L100,20:00,22:00,kitchen,2,3"])[0]
    assert ev.start_coord == (2.0, 3.0)
    assert ev.end_coord == (2.0, 3.0)


def test_parse_interval_zero_duration():
    ev = parse_interval(["Door,12:30,12:30,hall"])[0]
    assert ev.start_time == ev.end_time


def test_parse_interval_rejects_backwards():
    diag = ParseDiagnostics()
    events = parse_interval(["a,9:00,8:00,hall", "b,9:00,10:00,hall"], diag)
    assert [e.service_id for e in events] == ["b"]
    assert diag.rejected_lines == [(1, "end before start")]


def test_parse_interval_iso_timestamps():
    ev = parse_interval(["tv,2024-01-02T20:00:00,2024-01-02T21:30:00,livingroom"])[0]
    assert ev.end_time - ev.start_time == 5400


def test_parse_interval_malformed():
    with pytest.raises(ParseError):
        parse_interval(["only,three,fields"])
    with pytest.raises(ParseError):
        parse_interval(["a,8:00,9:00,hall,x,y"])
    with pytest.raises(ParseError):
        parse_interval(["a,2024-01-02T08:00:00+05:00,2024-01-02T09:00:00,hall"])


def test_segment_by_day():
    events = []
    for day in range(3):
        events += parse_interval([f"a,2024-01-0{day+1}T08:00:00,2024-01-0{day+1}T09:00:00,r"])
    db = segment(events, "by_day")
    assert len(db) == 3
    assert [s.sid for s in db.sequences] == [0, 1, 2]


def test_segment_single_event():
    db = segment(parse_interval(["a,8:00,9:00,r"]), "by_day")
    assert len(db) == 1


def test_segment_by_gap():
    events = parse_interval(["a,08:00,08:30,r", "b,18:00,18:30,r"])
    db = segment(events, "by_gap", max_gap=2 * H)
    assert len(db) == 2
    db2 = segment(events, "by_gap", max_gap=11 * H)
    assert len(db2) == 1


def test_partition_by_region(running_example):
    # single-region fixture partitions to itself
    parts = partition_by_region(running_example)
    assert set(parts) == {"room"}
    assert parts["room"].event_count == running_example.event_count


def test_partition_preserves_order_and_counts():
    events = parse_interval(
        [
            "a,08:00,08:30,kitchen",
            "b,08:10,08:40,bathroom",
            "c,08:20,08:50,kitchen",
        ]
    )
    db = segment(events, "by_day")
    parts = partition_by_region(db)
    assert [e.service_id for e in parts["kitchen"].sequences[0].events] == ["a", "c"]
    assert [e.service_id for e in parts["bathroom"].sequences[0].events] == ["b"]
    assert sum(p.event_count for p in parts.values()) == db.event_count


def test_canonical_endpoints_order():
    events = parse_interval(["E,01:00,01:15,r", "F,01:01,01:13,r"])
    seq = EventSequence(0, tuple(events))
    tokens = [e.symbol.token for e in seq.endpoints]
    assert tokens == canonical_endpoints(seq) == ["E+", "F+", "F-", "E-"]


def test_canonical_endpoints_single_event():
    seq = EventSequence(0, tuple(parse_interval(["s,08:00,09:00,r"])))
    assert [e.symbol.token for e in seq.endpoints] == ["s+", "s-"]


def test_canonical_tiebreak_end_before_start():
    events = parse_interval(["A,08:00,09:00,r", "B,09:00,10:00,r"])
    seq = EventSequence(0, tuple(events))
    tokens = [e.symbol.token for e in seq.endpoints]
    assert tokens == canonical_endpoints(seq) == ["A+", "A-", "B+", "B-"]


def test_endpoint_roundtrip_structure(running_example):
    for seq in running_example.sequences:
        endpoints = seq.endpoints
        assert len(endpoints) == 2 * len(seq.events)
        starts = sorted(e.symbol.service_id for e in endpoints if not e.symbol.is_end)
        ends = sorted(e.symbol.service_id for e in endpoints if e.symbol.is_end)
        assert starts == ends
        times = [e.time for e in endpoints]
        assert times == sorted(times)


def test_duplicate_sids_rejected():
    seq = EventSequence(0, tuple(parse_interval(["a,8:00,9:00,r"])))
    with pytest.raises(DataError):
        EventDatabase((seq, seq))


def test_endpoint_symbol_order_and_parse():
    a_start = EndpointSymbol.start("a")
    a_end = EndpointSymbol.end("a")
    b_start = EndpointSymbol.start("b")
    assert a_start < a_end < b_start
    assert EndpointSymbol.parse("a+") == a_start
    assert EndpointSymbol.parse("a-") == a_end
