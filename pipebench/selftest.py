#!/usr/bin/env python3
"""Show that every output check can fail.

    python3 pipebench/selftest.py

Builds the replay-chain workload once (seed 1), runs each check on the good
outputs, which must pass, and on corrupted copies, each of which must be
rejected. Prints one line per case; exits 1 if any case goes the wrong way.
"""

import copy
import json
import os
import shutil
import sys

import run


def _cases(bench, docs, report):
    """Good cases (name, check) and bad cases (name, corruption, check)."""
    import checks

    config, hashes = bench.config, bench.hashes
    pct = float(config.minsup.rstrip("%"))
    minsig, minpro, k = config.minsig, config.minpro, config.k
    events, patterns = docs["events"], docs["patterns"]

    def with_pattern(change):
        doc = copy.deepcopy(patterns)
        change(doc["patterns"][0])
        return doc

    def shift_event(rec):
        ev = rec["instances"][0]["events"][0]
        ev["start"] = ev["start"][:-2] + ("30" if ev["start"][-2:] != "30" else "00")

    def move_apart(rec):
        for inst in rec["instances"]:
            ev = inst["events"][-1]
            ev["start"], ev["end"] = "1999" + ev["start"][4:], "1999" + ev["end"][4:]

    def drop_member(doc):
        doc = copy.deepcopy(doc)
        doc["clusters"][0]["members"].pop()
        return doc

    def drop_pair():
        """Drop the first kept two-service pattern and its cluster member."""
        pats, clusters = copy.deepcopy(patterns), copy.deepcopy(docs["clusters"])
        rec = next(r for r in pats["patterns"]
                   if len(r["seq"]) == 4 and len({t[:-1] for t in r["seq"]}) == 2)
        pats["patterns"].remove(rec)
        for cl in clusters["clusters"]:
            if rec["id"] in cl["members"]:
                cl["members"].remove(rec["id"])
        checks.check_clusters(pats, clusters, k)  # still a partition
        return pats

    def cell_change(change):
        doc = copy.deepcopy(docs["matrix"])
        change(doc["cells"][0])
        return doc

    def halve_relations(cell):
        cell["relations"] = {r: p / 2 for r, p in cell["relations"].items()}

    def model_change(change):
        doc = copy.deepcopy(docs["model"])
        change(doc)
        return doc

    def minsup_off():
        doc = copy.deepcopy(patterns)
        region = sorted(doc["minsup_resolved"])[0]
        doc["minsup_resolved"][region] += 1
        return doc

    def overall(**change):
        doc = copy.deepcopy(report)
        doc["overall"].update(change)
        return doc

    windows, bound = bench.expected
    good = [
        ("support", lambda: checks.check_support(events, patterns, pct)),
        ("instances", lambda: checks.check_instances(events, patterns)),
        ("quality", lambda: checks.check_quality(events, patterns, minsig, minpro)),
        ("complete", lambda: checks.check_complete(events, patterns, minsig, minpro)),
        ("clusters", lambda: checks.check_clusters(patterns, docs["clusters"], k)),
        ("matrix", lambda: checks.check_matrix(docs["matrix"])),
        ("model", lambda: checks.check_model(events, docs["clusters"], docs["model"])),
        ("hashes", lambda: checks.check_same_hashes(hashes, dict(hashes))),
        ("replay", lambda: checks.check_replay(report, windows, bound, True)),
        ("same report", lambda: checks.check_same_report(report, copy.deepcopy(report))),
    ]
    bad = [
        ("support", "a support off by one", lambda: checks.check_support(
            events, with_pattern(lambda r: r.update(support=r["support"] + 1)), pct)),
        ("support", "a resolved minsup off by one", lambda: checks.check_support(
            events, minsup_off(), pct)),
        ("support", "a dropped instance", lambda: checks.check_support(
            events, with_pattern(lambda r: r["instances"].pop()), pct)),
        ("instances", "an instance event moved by 30 s", lambda: checks.check_instances(
            events, with_pattern(shift_event))),
        ("instances", "instance events out of pattern order", lambda: checks.check_instances(
            events, with_pattern(lambda r: r["instances"][0]["events"].reverse()))),
        ("quality", "a support of 0 (significance)", lambda: checks.check_quality(
            events, with_pattern(lambda r: r.update(support=0)), minsig, minpro)),
        ("quality", "instance events moved apart (proximity)", lambda: checks.check_quality(
            events, with_pattern(move_apart), minsig, minpro)),
        ("complete", "a kept two-service pattern dropped with its cluster member",
         lambda: checks.check_complete(events, drop_pair(), minsig, minpro)),
        ("clusters", "a dropped cluster member", lambda: checks.check_clusters(
            patterns, drop_member(docs["clusters"]), k)),
        ("matrix", "relations that do not sum to tran_pro", lambda: checks.check_matrix(
            cell_change(halve_relations))),
        ("matrix", "a tran_pro of 1.5", lambda: checks.check_matrix(
            cell_change(lambda c: c.update(tran_pro=1.5)))),
        ("model", "an involvement of 1.5", lambda: checks.check_model(
            events, docs["clusters"], model_change(
                lambda d: d["patterns"][0]["entries"][0].update(p=1.5)))),
        ("model", "a pattern missing", lambda: checks.check_model(
            events, docs["clusters"], model_change(lambda d: d["patterns"].pop()))),
        ("hashes", "one artifact digest changed", lambda: checks.check_same_hashes(
            hashes, dict(hashes, patterns="0" * 64))),
        ("replay", "one window fewer", lambda: checks.check_replay(
            overall(windows=report["overall"]["windows"] - 1), windows, bound, True)),
        ("replay", "saved_efforts of 0", lambda: checks.check_replay(
            overall(saved_efforts=0.0), windows, bound, True)),
        ("replay", "saved_time_min above the waits of what started", lambda: checks.check_replay(
            overall(saved_time_min=bound + 1.0), windows, bound, True)),
        ("same report", "a second pass with one day changed", lambda: checks.check_same_report(
            report, dict(report, days=report["days"][1:]))),
    ]
    return good, bad


def main() -> int:
    if not run.add_package_paths():
        return 2
    import checks
    from workloads import WORKLOADS

    work = run.HERE / "_work" / f"selftest-{os.getpid()}"
    try:
        bench = run.Bench(WORKLOADS["replay-chain"], 1, work)
        _, paths = bench.build()
        bench.check_build(paths)
        bench.check_reference()
        _, report = bench.replay()
        bench.check_replay(report)
        docs = {name: json.loads(path.read_text()) for name, path in paths.items()}
        good, bad = _cases(bench, docs, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = 0
    for name, check in good:
        try:
            check()
            print(f"ok    {name}: accepts the good output")
        except checks.CheckFailed as exc:
            wrong += 1
            print(f"WRONG {name}: rejects the good output: {exc}")
    for name, what, check in bad:
        try:
            check()
            wrong += 1
            print(f"WRONG {name}: accepts {what}")
        except checks.CheckFailed as exc:
            print(f"ok    {name}: rejects {what}: {exc}")
    print(f"{len(good) + len(bad) - wrong} of {len(good) + len(bad)} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
