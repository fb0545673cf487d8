"""Output checks computed apart from the package.

Every check reads the artifacts as plain JSON and the generated trace files
as text, recomputes what it needs with its own code, and raises CheckFailed
on the first disagreement. Nothing here calls
into habitminer, so a later change to the package cannot make a check agree
with a wrong output.
"""

from __future__ import annotations

import math
from datetime import datetime
from itertools import combinations

SECONDS_PER_DAY = 86400
_EPOCH = datetime(1970, 1, 1)


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def seconds(stamp: str) -> int:
    return int((datetime.fromisoformat(stamp) - _EPOCH).total_seconds())


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# --- build checks -------------------------------------------------------


def region_points(events_doc) -> dict:
    """region -> {sid: [(endpoint token, event interval)]}, sorted by time,
    ends before starts on ties, then by service."""
    out: dict = {}
    for rec in events_doc["sequences"]:
        points: dict = {}
        for ev in rec["events"]:
            span = (seconds(ev["start"]), seconds(ev["end"]))
            pts = points.setdefault(ev["region"], [])
            pts.append((span[0], 1, ev["service"], span))
            pts.append((span[1], 0, ev["service"], span))
        for region, pts in points.items():
            pts.sort()
            out.setdefault(region, {})[rec["sid"]] = [
                (svc + ("+" if is_start else "-"), span) for _, is_start, svc, span in pts
            ]
    return out


def region_endpoints(events_doc) -> dict:
    """region -> {sid: endpoint tokens}, in the order of `region_points`."""
    return {
        region: {sid: [tok for tok, _ in pts] for sid, pts in seqs.items()}
        for region, seqs in region_points(events_doc).items()
    }


def _embeds(haystack, needle) -> bool:
    it = iter(haystack)
    return all(tok in it for tok in needle)


def _leftmost(haystack, needle):
    """Positions of the leftmost order-preserving embedding, or None."""
    positions, i = [], 0
    for tok in needle:
        while i < len(haystack) and haystack[i] != tok:
            i += 1
        if i == len(haystack):
            return None
        positions.append(i)
        i += 1
    return positions


def check_support(events_doc, patterns_doc, minsup_pct: float):
    """Supporting sids recounted by a direct subsequence test."""
    endpoints = region_endpoints(events_doc)
    for region, minsup in patterns_doc["minsup_resolved"].items():
        want = max(1, math.ceil(minsup_pct / 100.0 * len(endpoints.get(region, {}))))
        _require(minsup == want,
                 f"minsup_resolved[{region}] = {minsup}, expected {want}")
    for rec in patterns_doc["patterns"]:
        seqs = endpoints.get(rec["region"], {})
        sids = sorted(sid for sid, toks in seqs.items() if _embeds(toks, rec["seq"]))
        inst_sids = sorted(inst["sid"] for inst in rec["instances"])
        _require(sids == inst_sids,
                 f"{rec['id']}: supporting sids {sids[:5]}... != instance sids {inst_sids[:5]}...")
        _require(rec["support"] == len(sids),
                 f"{rec['id']}: support {rec['support']} != {len(sids)} supporting sequences")
        _require(rec["support"] >= patterns_doc["minsup_resolved"][rec["region"]],
                 f"{rec['id']}: support {rec['support']} below minsup")


def check_instances(events_doc, patterns_doc):
    """Instance events are events of their sequence, in the pattern's
    start order."""
    events = {}
    for rec in events_doc["sequences"]:
        events[rec["sid"]] = {
            (ev["service"], ev["start"], ev["end"], ev["region"]) for ev in rec["events"]
        }
    for rec in patterns_doc["patterns"]:
        starts = [tok[:-1] for tok in rec["seq"] if tok.endswith("+")]
        for inst in rec["instances"]:
            present = events.get(inst["sid"], set())
            for ev in inst["events"]:
                _require((ev["service"], ev["start"], ev["end"], rec["region"]) in present,
                         f"{rec['id']}: {ev} is not an event of sid {inst['sid']}")
            _require([ev["service"] for ev in inst["events"]] == starts,
                     f"{rec['id']}: instance in sid {inst['sid']} does not follow "
                     f"the pattern's starts {starts}")


def _coverage(intervals) -> float:
    lo = min(s for s, _ in intervals)
    hi = max(e for _, e in intervals)
    if hi == lo:
        return 1.0
    return sum(e - s for s, e in intervals) / ((hi - lo) * len(intervals))


def _event_counts(events_doc) -> dict:
    """region -> {service: events}."""
    counts: dict = {}
    for rec in events_doc["sequences"]:
        for ev in rec["events"]:
            per = counts.setdefault(ev["region"], {})
            per[ev["service"]] = per.get(ev["service"], 0) + 1
    return counts


def _significance(per: dict, seq, support: int) -> float:
    """(support - expected) / sqrt(expected); the expectation is the region's
    event total times the probability of every start in seq."""
    total = sum(per.values())
    expect = float(total)
    for tok in seq:
        if tok.endswith("+"):
            expect *= per[tok[:-1]] / total
    return (support - expect) / math.sqrt(expect)


def check_quality(events_doc, patterns_doc, minsig: float, minpro: float):
    """Significance from event counts and temporal proximity from instances."""
    counts = _event_counts(events_doc)
    for rec in patterns_doc["patterns"]:
        sig = _significance(counts[rec["region"]], rec["seq"], rec["support"])
        _require(sig >= minsig - 1e-9,
                 f"{rec['id']}: significance {sig:.4f} below minsig {minsig}")
        prox = sum(
            _coverage([(seconds(ev["start"]), seconds(ev["end"])) for ev in inst["events"]])
            for inst in rec["instances"]
        ) / len(rec["instances"])
        _require(prox >= minpro - 1e-9,
                 f"{rec['id']}: temporal proximity {prox:.4f} below minpro {minpro}")


def _short_patterns(services):
    """Every well-formed pattern over one service or two distinct ones."""
    for a in services:
        yield (a + "+", a + "-")
    for a, b in combinations(services, 2):
        a0, a1, b0, b1 = a + "+", a + "-", b + "+", b + "-"
        yield from (
            (a0, a1, b0, b1), (a0, b0, a1, b1), (a0, b0, b1, a1),
            (b0, b1, a0, a1), (b0, a0, b1, a1), (b0, a0, a1, b1),
        )


def _service_support(seqs) -> dict:
    """service -> sequences that hold it."""
    out: dict = {}
    for pts in seqs.values():
        for svc in {tok[:-1] for tok, _ in pts}:
            out[svc] = out.get(svc, 0) + 1
    return out


def check_complete(events_doc, patterns_doc, minsig: float, minpro: float):
    """Every one- and two-service pattern that meets minsup, minsig and minpro
    is kept.

    Support is counted by a subsequence test; temporal proximity is taken
    over each supporting sequence's leftmost match, whose instance events
    are the events of the matched starts. A margin of 1e-6 on both
    thresholds leaves patterns that sit on a threshold to rounding."""
    counts = _event_counts(events_doc)
    kept = {(rec["region"], tuple(rec["seq"])) for rec in patterns_doc["patterns"]}
    for region, seqs in region_points(events_doc).items():
        minsup = patterns_doc["minsup_resolved"][region]
        frequent = {svc for svc, n in _service_support(seqs).items() if n >= minsup}
        found: dict = {}  # pattern -> [support, sum of instance coverages]
        for pts in seqs.values():
            tokens = [tok for tok, _ in pts]
            present = sorted({tok[:-1] for tok in tokens} & frequent)
            for pattern in _short_patterns(present):
                positions = _leftmost(tokens, pattern)
                if positions is None:
                    continue
                spans = [pts[i][1] for i, tok in zip(positions, pattern) if tok.endswith("+")]
                acc = found.setdefault(pattern, [0, 0.0])
                acc[0] += 1
                acc[1] += _coverage(spans)
        for pattern, (support, coverage) in found.items():
            if support < minsup:
                continue
            sig = _significance(counts[region], pattern, support)
            if sig >= minsig + 1e-6 and coverage / support >= minpro + 1e-6:
                _require((region, pattern) in kept,
                         f"{region} {' '.join(pattern)}: support {support}, significance "
                         f"{sig:.4f}, proximity {coverage / support:.4f}, but not kept")


def check_clusters(patterns_doc, clusters_doc, k: int):
    """Cluster members partition the kept pattern ids."""
    kept = sorted(rec["id"] for rec in patterns_doc["patterns"])
    members = sorted(pid for cl in clusters_doc["clusters"] for pid in cl["members"])
    _require(len(clusters_doc["clusters"]) == k,
             f"{len(clusters_doc['clusters'])} clusters, expected {k}")
    _require(members == kept, "cluster members do not partition the kept pattern ids")


def check_matrix(matrix_doc):
    """tran_pro in [0, 1]; each cell's relation mass sums to its tran_pro."""
    ids = set(matrix_doc["patterns"])
    for cell in matrix_doc["cells"]:
        where = f"cell {cell['from']} -> {cell['to']}"
        _require(cell["from"] in ids and cell["to"] in ids and cell["from"] != cell["to"],
                 f"{where}: bad endpoints")
        _require(0.0 <= cell["tran_pro"] <= 1.0, f"{where}: tran_pro {cell['tran_pro']}")
        _require(_close(sum(cell["relations"].values()), cell["tran_pro"]),
                 f"{where}: relations sum to {sum(cell['relations'].values())}, "
                 f"not tran_pro {cell['tran_pro']}")


def check_model(events_doc, clusters_doc, model_doc):
    """The model holds one pattern per cluster, with involvements in (0, 1]
    over services of the log, and the log's vocabulary."""
    services = sorted({ev["service"] for rec in events_doc["sequences"] for ev in rec["events"]})
    _require(model_doc["vocabulary"] == services, "model vocabulary is not the log's services")
    ids = [cl["cluster_id"] for cl in clusters_doc["clusters"]]
    _require([rec["pattern_id"] for rec in model_doc["patterns"]] == ids,
             "model patterns are not the clusters")
    _require(model_doc["matrix"]["patterns"] == ids, "matrix patterns are not the clusters")
    known = set(services)
    for rec in model_doc["patterns"]:
        for e in rec["entries"]:
            _require(e["event"] in known and 0.0 < e["p"] <= 1.0,
                     f"{rec['pattern_id']}: bad involvement {e}")


def check_build(docs: dict, config):
    """All build checks over one build's decoded artifacts."""
    check_support(docs["events"], docs["patterns"], float(config.minsup.rstrip("%")))
    check_instances(docs["events"], docs["patterns"])
    check_quality(docs["events"], docs["patterns"], config.minsig, config.minpro)
    check_complete(docs["events"], docs["patterns"], config.minsig, config.minpro)
    check_clusters(docs["patterns"], docs["clusters"], config.k)
    check_matrix(docs["matrix"])
    check_model(docs["events"], docs["clusters"], docs["model"])


def check_same_hashes(first: dict, hashes: dict):
    for name, digest in first.items():
        _require(hashes.get(name) == digest, f"{name} differs from the first build")


# --- replay checks ------------------------------------------------------


def read_trace(path) -> list:
    """Day sequences of (service, start, end) read from an interval trace."""
    days: dict = {}
    with open(path) as fh:
        for line in fh:
            fields = line.strip().split(",")
            if len(fields) < 4:
                continue
            start, end = seconds(fields[1]), seconds(fields[2])
            days.setdefault(start // SECONDS_PER_DAY, []).append((fields[0], start, end))
    return [days[d] for d in sorted(days)]


def expected_windows(days, window_min: float, waits: dict):
    """(scored windows, upper bound on saved minutes) of a replay.

    A window is a (sequence, distinct end time) pair with an event started
    in the preceding window and one starting in the next; the bound sums the
    waits of the distinct services that actually start in each such window.
    """
    w = int(window_min * 60)
    windows, bound = 0, 0.0
    for events in days:
        for t in sorted({end for _, _, end in events}):
            observed = any(t - w <= s <= t for _, s, _ in events)
            actual = {svc for svc, s, _ in events if t < s <= t + w}
            if observed and actual:
                windows += 1
                bound += sum(waits.get(svc, 0.0) for svc in actual)
    return windows, bound


def check_replay(report: dict, windows: int, time_bound: float, expect_savings: bool):
    overall = report["overall"]
    _require(overall["windows"] == windows,
             f"report scores {overall['windows']} windows, the trace has {windows}")
    efforts, saved = overall["saved_efforts"], overall["saved_time_min"]
    _require(efforts is not None, "no saved_efforts although windows were scored")
    lo_ok = efforts > 0 if expect_savings else efforts >= 0
    _require(lo_ok and efforts <= 1, f"saved_efforts {efforts} out of range")
    lo_ok = saved > 0 if expect_savings else saved >= 0
    _require(lo_ok and saved <= time_bound + 1e-9,
             f"saved_time_min {saved} out of range (bound {time_bound})")


def check_same_report(first: dict, report: dict):
    _require(report == first, "replay report differs from the first pass")
