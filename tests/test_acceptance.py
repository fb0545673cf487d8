"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every test measures its own runtime against the agreed budget.
"""

import math
import random
import time
from itertools import product

import pytest

from conftest import build_running_example, planted_chain, planted_household
from oracles import enumerate_patterns, matrix_cell, random_database

from habitminer.clustering import ProbabilisticCompositionPattern
from habitminer.config import build_config
from habitminer.convenience import WaitTable, evaluate
from habitminer.events import EventDatabase, EventSequence, ServiceEvent, partition_by_region
from habitminer.mining import encode_database, mine
from habitminer.periodic import (
    RepresentativeInterval,
    interval_dissimilarity,
    median_optimality_check,
)
from habitminer.pipeline import load_model, run_pipeline
from habitminer.predict import (
    Observation,
    PeriodicPattern,
    PredictionModel,
    predict_next,
    recognize,
    score,
)
from habitminer.quality import spatial_proximity, temporal_proximity
from habitminer.relations import AllenRelation, TemporalCell, TemporalMatrix, classify_ordered
from habitminer.synth import ActivitySpec, format_trace, generate

MIN = 60


def _report(tag, ok, detail=""):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag} failed: {detail}"


def _pattern_of(instances, region="r"):
    from habitminer.events import EndpointSymbol
    from habitminer.mining import CompositionPattern, PatternInstance

    built = []
    symbols = []
    for sid, events in enumerate(instances):
        evs = tuple(
            ServiceEvent(svc, s * MIN, e * MIN, region,
                         start_coord=coord, end_coord=coord)
            for svc, s, e, coord in events
        )
        built.append(PatternInstance(sid, evs))
    for svc, _, _, _ in instances[0]:
        symbols += [EndpointSymbol.start(svc), EndpointSymbol.end(svc)]
    return CompositionPattern(tuple(symbols), len(built), region, tuple(built))


def test_c01_temporal_proximity_worked_examples():
    cooking = _pattern_of([[("stove", 18 * 60, 19 * 60, None), ("washer", 18 * 60 + 40, 19 * 60 + 20, None)]])
    parallel = _pattern_of([[("stove", 18 * 60, 19 * 60, None), ("fan", 18 * 60, 19 * 60, None)]])
    t0 = time.perf_counter()
    staggered = temporal_proximity(cooking)
    concurrent = temporal_proximity(parallel)
    elapsed = time.perf_counter() - t0
    ok = staggered == 0.625 and concurrent == 1.0 and elapsed < 1e-3
    _report("C01 temporal-proximity", ok,
            f"0.625 -> {staggered}, 1.0 -> {concurrent}, {elapsed*1e6:.0f}us")


def test_c02_spatial_proximity_worked_example():
    pattern = _pattern_of([[("e", 60, 75, (1, 2)), ("f", 61, 73, (2, 4))]])
    t0 = time.perf_counter()
    value = spatial_proximity(pattern)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.33) <= 0.005 and elapsed < 1e-3
    _report("C02 spatial-proximity", ok, f"0.33 -> {value:.4f}, {elapsed*1e6:.0f}us")


def test_c03_interval_dissimilarity_worked_examples():
    near = interval_dissimilarity((3, 5), (4, 6))
    far = interval_dissimilarity((3, 5), (7, 8))
    ok = near == 2 and far == 7
    _report("C03 interval-dissimilarity", ok, f"2 -> {near}, 7 -> {far}")


def test_c04_running_example_fixture():
    t0 = time.perf_counter()
    db = build_running_example()
    patterns = {p.tokens: p.support for p in mine(db, 2)}
    elapsed = time.perf_counter() - t0
    pair_counts = {
        ("A+", "A-"): 3, ("B+", "B-"): 3, ("C+", "C-"): 3,
        ("E+", "E-"): 2, ("F+", "F-"): 3,
    }
    counts_ok = all(patterns.get(k) == v for k, v in pair_counts.items())
    interleaved_ok = patterns.get(("A+", "A-", "B+", "C+", "C-", "B-")) == 3
    ok = counts_ok and interleaved_ok and elapsed < 1.0
    _report("C04 running-example-mining", ok,
            f"pair counts ok={counts_ok}, interleaved support "
            f"{patterns.get(('A+', 'A-', 'B+', 'C+', 'C-', 'B-'))}, {elapsed:.3f}s")


def test_c05_brute_force_oracle_equivalence():
    rng = random.Random(20240810)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        db = random_database(rng)
        minsup = rng.randint(1, 3)
        encoded, services = encode_database(db)
        expected = enumerate_patterns(encoded, minsup)
        got = {
            tuple(2 * services.index(s.service_id) + s.is_end for s in p.seq): p.support
            for p in mine(db, minsup, max_len=24)
        }
        assert got == expected, "mined set diverged from exhaustive enumeration"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 60.0
    _report("C05 oracle-equivalence", ok, f"{checked} databases, {elapsed:.1f}s")


def test_c06_allen_classifier_exhaustive():
    t0 = time.perf_counter()
    configurations = set()
    for a0, a1, b0, b1 in product(range(5), repeat=4):
        if a0 <= a1 and b0 <= b1:
            rel, swapped = classify_ordered((a0, a1), (b0, b1))
            configurations.add((rel, swapped))
    rng = random.Random(6)
    unclassified = 0
    for _ in range(10_000):
        a0, b0 = rng.randint(0, 1000), rng.randint(0, 1000)
        a = (a0, a0 + rng.randint(0, 200))
        b = (b0, b0 + rng.randint(0, 200))
        try:
            classify_ordered(a, b)
        except Exception:
            unclassified += 1
    elapsed = time.perf_counter() - t0
    # 7 relations, each reachable directly and (all but equal) via swap
    ok = len(configurations) == 13 and unclassified == 0 and elapsed < 1.0
    _report("C06 allen-exhaustive", ok,
            f"{len(configurations)} configurations, {unclassified} unclassified, {elapsed:.2f}s")


def test_c07_median_optimality():
    rng = random.Random(17)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 9)
        starts = [rng.randint(0, 1440) for _ in range(n)]
        ends = [s + rng.randint(0, 360) for s in starts]
        if not median_optimality_check(starts, ends):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    _report("C07 median-optimality", ok, f"{failures} failures, {elapsed:.1f}s")


def _pipeline_model(specs, days, gen_seed, overrides, tmp_path):
    db, truth = generate(specs, days, seed=gen_seed)
    trace = tmp_path / "trace.csv"
    trace.write_text(format_trace(db))
    outdir = tmp_path / "artifacts"
    config = build_config(None, overrides)
    report = run_pipeline(config, trace, outdir)
    return load_model(outdir), truth, report


def _best_match(model, mandatory):
    best, best_pattern = 0.0, None
    for pattern in model.patterns:
        likely = {t for t, p in pattern.base.entries if p >= 0.5}
        denom = likely | set(mandatory)
        value = len(likely & set(mandatory)) / len(denom) if denom else 1.0
        if value > best:
            best, best_pattern = value, pattern
    return best, best_pattern


def test_c08_planted_pattern_recovery(tmp_path):
    t0 = time.perf_counter()
    specs = planted_household()
    model, _, _ = _pipeline_model(
        specs, 14, 11, {"minsup": "10%", "k": 9, "seed": 5}, tmp_path
    )
    recovered = 0
    details = []
    for spec in specs:
        value, pattern = _best_match(model, spec.mandatory)
        planted = (spec.start_mean, spec.start_mean + sum(spec.duration) // 2)
        within = bool(pattern and pattern.intervals) and all(
            interval_dissimilarity((iv.start, iv.end), planted) <= 120
            for iv in pattern.intervals
        )
        ok = value >= 0.6 and within
        recovered += ok
        details.append(f"{spec.name}={value:.2f}{'' if ok else '!'}")
    elapsed = time.perf_counter() - t0
    ok = recovered >= 4 and elapsed < 30.0
    _report("C08 planted-recovery", ok,
            f"{recovered}/5 recovered ({', '.join(details)}), {elapsed:.1f}s")


def test_c09_transition_recovery(tmp_path):
    t0 = time.perf_counter()
    specs = planted_chain()
    model, _, _ = _pipeline_model(
        specs, 14, 9, {"minsup": "10%", "k": 2, "seed": 3}, tmp_path
    )
    _, cook = _best_match(model, specs[0].mandatory)
    _, dishes = _best_match(model, specs[1].mandatory)
    cell = matrix_cell(model.matrix, cook.pattern_id, dishes.pattern_id)
    before = cell.relations.get(AllenRelation.BEFORE, 0.0)
    elapsed = time.perf_counter() - t0
    ok = abs(before - 1.0) <= 0.01 and cell.tran_pro >= 0.9 and elapsed < 30.0
    _report("C09 transition-recovery", ok,
            f"before={before:.3f}, tran_pro={cell.tran_pro:.3f}, {elapsed:.1f}s")


def test_c10_predictor_identity(tmp_path):
    # constructed model: the exact match must score the 3.0 maximum
    def iv(start, end, location, p):
        return RepresentativeInterval(start=start, end=end, location=location,
                                      probability=p, tolerance=120,
                                      support_count=1, total_count=1)

    exact = PeriodicPattern(
        "exact", ProbabilisticCompositionPattern((("a", 1.0), ("b", 1.0))),
        (iv(6 * 60, 7 * 60, "kitchen", 1.0),),
    )
    rival = PeriodicPattern(
        "rival", ProbabilisticCompositionPattern((("c", 1.0),)),
        (iv(20 * 60, 21 * 60, "garage", 1.0),),
    )
    model = PredictionModel(
        (exact, rival), TemporalMatrix(("exact", "rival"), {}), ("a", "b", "c")
    )
    obs = Observation(
        tuple(ServiceEvent(s, 6 * 3600, 7 * 3600, "kitchen") for s in ("a", "b"))
    )

    # planted chain: the recognized cook pattern must hand over to dishes
    chain_specs = planted_chain()
    chain_model, _, _ = _pipeline_model(
        chain_specs, 14, 9, {"minsup": "10%", "k": 2, "seed": 3}, tmp_path
    )
    _, cook = _best_match(chain_model, chain_specs[0].mandatory)
    _, dishes = _best_match(chain_model, chain_specs[1].mandatory)

    t0 = time.perf_counter()
    scores = score(exact, obs, model)
    ranked = recognize(obs, model)
    prediction = predict_next(cook.pattern_id, chain_model)
    elapsed = time.perf_counter() - t0

    identity_ok = (
        scores.total == pytest.approx(3.0)
        and scores.structure == pytest.approx(1.0)
        and scores.time == pytest.approx(1.0)
        and scores.location == 1.0
        and ranked[0][0] == "exact"
    )
    planted_dishes = (
        chain_specs[1].start_mean,
        chain_specs[1].start_mean + sum(chain_specs[1].duration) // 2,
    )
    chain_ok = (
        prediction.next_id == dishes.pattern_id
        and prediction.interval is not None
        and interval_dissimilarity(prediction.interval, planted_dishes) <= 120
        and prediction.location == "scullery"
    )
    ok = identity_ok and chain_ok and elapsed < 1.0
    _report("C10 predictor-identity", ok,
            f"Y={scores.total:.3f}, next={prediction.next_id}, "
            f"interval={prediction.interval}, {elapsed*1000:.0f}ms")


def _sweep_specs():
    # optional services whose inclusion rates land inside the swept 5..10%
    # band, so every threshold step prunes a real share of the patterns
    base = planted_household()
    out = []
    for spec in base:
        mandatory = tuple(list(spec.mandatory) + [f"{spec.name}_m"])
        optional = tuple(
            list(spec.optional)
            + [(f"{spec.name}_x{j}", 0.052 + 0.010 * j) for j in range(5)]
        )
        out.append(
            ActivitySpec(spec.name, spec.region, mandatory, optional=optional,
                         start_mean=spec.start_mean, start_jitter=spec.start_jitter,
                         duration=spec.duration, daily_probability=spec.daily_probability)
        )
    return out


def test_c11_minsup_monotonicity_sweep():
    # 200 days so every 1% step resolves to a distinct absolute threshold
    t0 = time.perf_counter()
    db, _ = generate(_sweep_specs(), 200, seed=21)
    parts = partition_by_region(db)

    def run_at(pct):
        total = 0
        for region in sorted(parts):
            minsup = max(1, math.ceil(pct / 100 * len(parts[region])))
            total += len(mine(parts[region], minsup))
        return total

    steps = list(range(5, 11))
    counts = {}
    best = {pct: float("inf") for pct in steps}
    # interleaved rounds: background load hits every step evenly
    for _ in range(4):
        for pct in steps:
            t1 = time.perf_counter()
            counts[pct] = run_at(pct)
            best[pct] = min(best[pct], time.perf_counter() - t1)
    count_list = [counts[pct] for pct in steps]
    times = [best[pct] for pct in steps]
    elapsed = time.perf_counter() - t0
    counts_ok = all(b <= a for a, b in zip(count_list, count_list[1:]))
    times_ok = all(b <= a * 1.10 for a, b in zip(times, times[1:]))
    ok = counts_ok and times_ok and elapsed < 120.0
    _report("C11 minsup-sweep", ok,
            f"counts={count_list}, times={[f'{t*1000:.0f}ms' for t in times]}, {elapsed:.1f}s")


def test_c12_filter_effectiveness(tmp_path):
    db, _ = generate(planted_household(), 14, seed=11)
    trace = tmp_path / "trace.csv"
    trace.write_text(format_trace(db))
    config = build_config(None, {"minsup": "10%", "k": 9, "seed": 5})
    report = run_pipeline(config, trace, tmp_path / "artifacts")
    counts = report["stages"]["mine"]["counts"]
    sig_reduces = counts["significant"] < counts["mined"]
    pro_reduces = counts["proximate"] < counts["mined"]
    ok = sig_reduces and pro_reduces
    _report("C12 filter-effectiveness", ok,
            f"mined={counts['mined']}, significance kept {counts['significant']}, "
            f"proximity kept {counts['proximate']}")


def test_c13_convenience_arithmetic():
    def pattern(pid, svc, start, end):
        return PeriodicPattern(
            pid, ProbabilisticCompositionPattern(((svc, 1.0),)),
            (RepresentativeInterval(start=start, end=end, location="kitchen",
                                    probability=1.0, tolerance=120,
                                    support_count=1, total_count=1),),
        )

    model = PredictionModel(
        (
            pattern("pa", "stove", 7 * 60, 7 * 60 + 30),
            pattern("pb", "radio", 8 * 60, 8 * 60 + 20),
            pattern("pc", "fan", 9 * 60, 9 * 60 + 15),
        ),
        TemporalMatrix(
            ("pa", "pb", "pc"),
            {
                (0, 1): TemporalCell(1.0, {AllenRelation.BEFORE: 1.0}),
                (1, 2): TemporalCell(1.0, {AllenRelation.BEFORE: 1.0}),
            },
        ),
        ("fan", "radio", "stove"),
    )
    trace = EventDatabase(
        (
            EventSequence(
                0,
                (
                    ServiceEvent("stove", 7 * 3600, 7 * 3600 + 1800, "kitchen"),
                    ServiceEvent("radio", 8 * 3600, 8 * 3600 + 1200, "kitchen"),
                    ServiceEvent("fan", 9 * 3600, 9 * 3600 + 900, "kitchen"),
                ),
            ),
        )
    )
    report = evaluate(trace, model, WaitTable({"stove": 5, "radio": 3, "fan": 2}), window=60)
    # hand computation: two scored boundaries, both predicting the single
    # actual follower -> efforts 1/1 each; saved waits 3 (radio) + 2 (fan)
    ok = (
        report.overall_efforts == 1.0
        and report.overall_time == 5
        and report.days[0].saving_efforts == 1.0
        and report.days[0].saving_time == 5
    )
    _report("C13 convenience-arithmetic", ok,
            f"efforts={report.overall_efforts}, saved={report.overall_time}min")
