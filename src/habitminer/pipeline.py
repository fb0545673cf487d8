"""Stage orchestration over inspectable JSON artifacts.

Every stage reads the previous stage's file from the artifact directory,
writes its own atomically, and embeds the resolved configuration so any
stage can be rerun (or replaced by an oracle) in isolation.
"""

from __future__ import annotations

import json
import os
from datetime import datetime
from pathlib import Path

from .clustering import ProbabilisticCompositionPattern, cluster, to_probabilistic
from .config import PipelineConfig
from .convenience import WaitTable, evaluate
from .errors import ConfigError, DataError, HabitMinerError
from .events import (
    EndpointSymbol,
    EventDatabase,
    EventSequence,
    ParseDiagnostics,
    ServiceEvent,
    from_timestamp,
    parse_casas,
    parse_interval,
    partition_by_region,
    segment,
    to_timestamp,
)
from .mining import CompositionPattern, PatternInstance, mine
from .periodic import RepresentativeInterval, minutes_to_hhmm, representative_intervals
from .predict import Observation, PeriodicPattern, PredictionModel, predict_next, recognize
from .quality import EventProbabilityTable, score_pattern
from .relations import AllenRelation, InstanceRef, TemporalCell, TemporalMatrix, build_matrix

ARTIFACTS = {
    "ingest": "events.json",
    "mine": "patterns.json",
    "cluster": "clusters.json",
    "periodic": "periodic.json",
    "relations": "matrix.json",
    "model": "model.json",
}


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _load_artifact(outdir, stage: str) -> dict:
    path = Path(outdir) / ARTIFACTS[stage]
    if not path.exists():
        raise ConfigError(f"{path} missing: run stage '{stage}' first")
    with open(path) as fh:
        return json.load(fh)


def _iso(ts: int) -> str:
    return from_timestamp(ts).isoformat()


def _unixtime(text: str) -> int:
    return to_timestamp(datetime.fromisoformat(text))


def stage_ingest(config: PipelineConfig, input_path, outdir, fmt: str = "interval") -> dict:
    diag = ParseDiagnostics()
    with open(input_path) as fh:
        if fmt == "casas":
            events = parse_casas(fh, diag)
        elif fmt == "interval":
            events = parse_interval(fh, diag)
        else:
            raise ConfigError(f"unknown input format {fmt!r}")
    policy, max_gap = config.segment_policy()
    db = segment(events, policy, max_gap)
    doc = {
        "config": config.as_dict(),
        "format": fmt,
        "diagnostics": diag.as_dict(),
        "sequences": [
            {
                "sid": seq.sid,
                "events": [
                    {
                        "service": ev.service_id,
                        "start": _iso(ev.start_time),
                        "end": _iso(ev.end_time),
                        "region": ev.region,
                        "coord": list(ev.start_coord) if ev.start_coord else None,
                    }
                    for ev in seq.events
                ],
            }
            for seq in db.sequences
        ],
    }
    _write_json(Path(outdir) / ARTIFACTS["ingest"], doc)
    return {
        "stage": "ingest",
        "sequences": len(db),
        "events": db.event_count,
        "diagnostics": diag.summary(),
    }


def _load_database(outdir) -> EventDatabase:
    doc = _load_artifact(outdir, "ingest")
    sequences = []
    for rec in doc["sequences"]:
        events = tuple(
            ServiceEvent(
                e["service"],
                _unixtime(e["start"]),
                _unixtime(e["end"]),
                e["region"],
                start_coord=tuple(e["coord"]) if e.get("coord") else None,
                end_coord=tuple(e["coord"]) if e.get("coord") else None,
            )
            for e in rec["events"]
        )
        sequences.append(EventSequence(rec["sid"], events))
    return EventDatabase(tuple(sequences))


def stage_mine(config: PipelineConfig, outdir) -> dict:
    db = _load_database(outdir)
    by_region = partition_by_region(db)
    table = EventProbabilityTable.from_database(db) if by_region else None
    counts = {"mined": 0, "significant": 0, "proximate": 0, "kept": 0}
    kept = []
    minsup_resolved = {}
    for region in sorted(by_region):
        sub = by_region[region]
        minsup = config.resolve_minsup(len(sub))
        minsup_resolved[region] = minsup
        for pattern in mine(sub, minsup, max_len=config.max_len, region=region):
            score = score_pattern(
                pattern, table, config.w1, config.w2, config.epsilon,
                config.minsig, config.minpro,
            )
            counts["mined"] += 1
            sig_ok = score.significance >= config.minsig
            pro_ok = score.combined >= config.minpro
            counts["significant"] += sig_ok
            counts["proximate"] += pro_ok
            if sig_ok and pro_ok:
                counts["kept"] += 1
                kept.append((pattern, score))

    kept.sort(key=lambda ps: (ps[0].region, len(ps[0].seq), ps[0].tokens))
    doc = {
        "config": config.as_dict(),
        "counts": counts,
        "minsup_resolved": minsup_resolved,
        "vocabulary": sorted({ev.service_id for s in db.sequences for ev in s.events}),
        "patterns": [
            {
                "id": f"p{i:04d}",
                "region": pattern.region,
                "seq": list(pattern.tokens),
                "support": pattern.support,
                "score": {
                    "significance": score.significance,
                    "spatial_proximity": score.spatial_proximity,
                    "temporal_proximity": score.temporal_proximity,
                    "combined": score.combined,
                },
                "instances": [
                    {
                        "sid": inst.sid,
                        "events": [
                            {
                                "service": ev.service_id,
                                "start": _iso(ev.start_time),
                                "end": _iso(ev.end_time),
                            }
                            for ev in inst.events
                        ],
                    }
                    for inst in pattern.instances
                ],
            }
            for i, (pattern, score) in enumerate(kept)
        ],
    }
    _write_json(Path(outdir) / ARTIFACTS["mine"], doc)
    return {"stage": "mine", "counts": counts, "minsup_resolved": minsup_resolved}


def _patterns_from_artifact(doc) -> list:
    """Rebuild (id, CompositionPattern) pairs from patterns.json."""
    out = []
    for rec in doc["patterns"]:
        symbols = tuple(EndpointSymbol.parse(t) for t in rec["seq"])
        instances = tuple(
            PatternInstance(
                inst["sid"],
                tuple(
                    ServiceEvent(
                        e["service"], _unixtime(e["start"]), _unixtime(e["end"]), rec["region"]
                    )
                    for e in inst["events"]
                ),
            )
            for inst in rec["instances"]
        )
        out.append(
            (rec["id"], CompositionPattern(symbols, rec["support"], rec["region"], instances))
        )
    return out


def stage_cluster(config: PipelineConfig, outdir) -> dict:
    doc = _load_artifact(outdir, "mine")
    pairs = _patterns_from_artifact(doc)
    clusters_doc = []
    if pairs:
        if config.k > len(pairs):
            raise ConfigError(
                f"k = {config.k} exceeds the {len(pairs)} surviving patterns"
            )
        patterns = [p for _, p in pairs]
        ids = {id(p): pid for pid, p in pairs}
        for idx, cl in enumerate(cluster(patterns, config.k, seed=config.seed)):
            pro = to_probabilistic(cl)
            clusters_doc.append(
                {
                    "cluster_id": f"c{idx}",
                    "center": sorted(cl.center),
                    "members": [ids[id(m)] for m in cl.members],
                    "total_instances": cl.total_instances,
                    "entries": [{"event": t, "p": p} for t, p in pro.entries],
                }
            )
    out = {"config": config.as_dict(), "clusters": clusters_doc}
    _write_json(Path(outdir) / ARTIFACTS["cluster"], out)
    return {"stage": "cluster", "clusters": len(clusters_doc)}


def _cluster_instances(outdir):
    """Per cluster id, the (sid, start, end, region) of member instances."""
    clusters = _load_artifact(outdir, "cluster")["clusters"]
    patterns = {rec["id"]: rec for rec in _load_artifact(outdir, "mine")["patterns"]}
    out = []
    for cl in clusters:
        instances = []
        for pid in cl["members"]:
            rec = patterns[pid]
            for inst in rec["instances"]:
                start = min(_unixtime(e["start"]) for e in inst["events"])
                end = max(_unixtime(e["end"]) for e in inst["events"])
                instances.append((inst["sid"], start, end, rec["region"]))
        out.append((cl, instances))
    return out


def stage_periodic(config: PipelineConfig, outdir) -> dict:
    records = []
    n_intervals = 0
    for cl, instances in _cluster_instances(outdir):
        intervals = representative_intervals(
            [(start // 60, end // 60, region) for _, start, end, region in instances],
            zeta=config.zeta,
            min_p=config.min_p,
        )
        n_intervals += len(intervals)
        records.append(
            {
                "pattern_id": cl["cluster_id"],
                "entries": cl["entries"],
                "intervals": [
                    {
                        "start_min": iv.start,
                        "end_min": iv.end,
                        "start_hhmm": iv.start_hhmm,
                        "end_hhmm": iv.end_hhmm,
                        "location": iv.location,
                        "P": iv.probability,
                        "zeta": iv.tolerance,
                        "num": iv.support_count,
                        "tnum": iv.total_count,
                    }
                    for iv in intervals
                ],
            }
        )
    doc = {"config": config.as_dict(), "patterns": records}
    _write_json(Path(outdir) / ARTIFACTS["periodic"], doc)
    return {"stage": "periodic", "patterns": len(records), "intervals": n_intervals}


def stage_relations(config: PipelineConfig, outdir) -> dict:
    pattern_instances = []
    for cl, instances in _cluster_instances(outdir):
        refs = [InstanceRef(sid, start, end) for sid, start, end, _ in instances]
        pattern_instances.append((cl["cluster_id"], refs))
    matrix = build_matrix(pattern_instances)
    n = len(matrix.pattern_ids)
    cells = [
        {
            "from": matrix.pattern_ids[i],
            "to": matrix.pattern_ids[j],
            "tran_pro": cell.tran_pro,
            "relations": {rel.value: p for rel, p in sorted(cell.relations.items())},
        }
        for (i, j), cell in sorted(matrix.cells.items())
    ]
    doc = {
        "config": config.as_dict(),
        "patterns": list(matrix.pattern_ids),
        "cells": cells,
        "density": len(cells) / (n * (n - 1)) if n > 1 else 0.0,
    }
    _write_json(Path(outdir) / ARTIFACTS["relations"], doc)
    return {"stage": "relations", "patterns": n, "cells": len(cells), "density": doc["density"]}


def _model_doc(outdir) -> dict:
    """The model document, less its config echo, from upstream artifacts.

    The vocabulary is the sorted service set of events.json: the same list
    patterns.json records, from a file a quarter its size.
    """
    periodic_doc = _load_artifact(outdir, "periodic")
    matrix_doc = _load_artifact(outdir, "relations")
    events_doc = _load_artifact(outdir, "ingest")
    return {
        "vocabulary": sorted(
            {e["service"] for rec in events_doc["sequences"] for e in rec["events"]}
        ),
        "patterns": periodic_doc["patterns"],
        "matrix": {"patterns": matrix_doc["patterns"], "cells": matrix_doc["cells"]},
    }


def stage_model(config: PipelineConfig, outdir) -> dict:
    doc = {"config": config.as_dict(), **_model_doc(outdir)}
    _write_json(Path(outdir) / ARTIFACTS["model"], doc)
    return {"stage": "model", "patterns": len(doc["patterns"])}


def model_from_doc(doc: dict, y_weights=(1.0, 1.0, 1.0)) -> PredictionModel:
    patterns = []
    for rec in doc["patterns"]:
        base = ProbabilisticCompositionPattern(
            tuple((e["event"], e["p"]) for e in rec["entries"])
        )
        intervals = tuple(
            RepresentativeInterval(
                start=iv["start_min"],
                end=iv["end_min"],
                location=iv["location"],
                probability=iv["P"],
                tolerance=iv.get("zeta", 0.0),
                support_count=iv["num"],
                total_count=iv["tnum"],
            )
            for iv in rec["intervals"]
        )
        patterns.append(PeriodicPattern(rec["pattern_id"], base, intervals))
    ids = tuple(doc["matrix"]["patterns"])
    index = {pid: i for i, pid in enumerate(ids)}
    cells = {}
    for cell in doc["matrix"]["cells"]:
        cells[(index[cell["from"]], index[cell["to"]])] = TemporalCell(
            cell["tran_pro"],
            {AllenRelation(r): p for r, p in cell["relations"].items()},
        )
    matrix = TemporalMatrix(ids, cells)
    return PredictionModel(tuple(patterns), matrix, tuple(doc["vocabulary"]), y_weights)


def load_model(outdir, y_weights=(1.0, 1.0, 1.0)) -> PredictionModel:
    path = Path(outdir) / ARTIFACTS["model"]
    if path.exists():
        with open(path) as fh:
            return model_from_doc(json.load(fh), y_weights)
    return model_from_doc(_model_doc(outdir), y_weights)


_STAGES = ("ingest", "mine", "cluster", "periodic", "relations", "model")


def run_pipeline(config: PipelineConfig, input_path, outdir, fmt: str = "interval") -> dict:
    """Run every stage in order; abort (and name the stage) on first error."""
    reports = {}
    for stage in _STAGES:
        try:
            if stage == "ingest":
                reports[stage] = stage_ingest(config, input_path, outdir, fmt)
            else:
                runner = globals()[f"stage_{stage}"]
                reports[stage] = runner(config, outdir)
        except HabitMinerError as exc:
            artifact = Path(outdir) / ARTIFACTS[stage]
            if artifact.exists():
                artifact.unlink()
            raise type(exc)(f"stage {stage}: {exc}") from exc
    return {"config": config.as_dict(), "stages": reports}


def predict_from_file(model: PredictionModel, observation_path) -> dict:
    """Recognize an observation file (interval format) and predict the next step."""
    with open(observation_path) as fh:
        events = parse_interval(fh)
    if not events:
        raise DataError(f"no events in {observation_path}")
    now = max(ev.end_time for ev in events)
    obs = Observation(tuple(events), now=now)
    ranked = recognize(obs, model)
    top_id, scores = ranked[0]
    prediction = predict_next(top_id, model, scores)
    return {
        "recognized": {
            "id": top_id,
            "Y": scores.total,
            "Y_s": scores.structure,
            "Y_T": scores.time,
            "Y_L": scores.location,
        },
        "next": None
        if prediction.next_id is None
        else {
            "id": prediction.next_id,
            "start_hhmm": None
            if prediction.interval is None
            else minutes_to_hhmm(prediction.interval[0]),
            "end_hhmm": None
            if prediction.interval is None
            else minutes_to_hhmm(prediction.interval[1]),
            "location": prediction.location,
            "confidence": prediction.confidence,
            "relation": prediction.relation.value if prediction.relation else None,
        },
    }


def load_wait_table(path) -> WaitTable:
    if path is None:
        return WaitTable({})
    with open(path) as fh:
        doc = json.load(fh)
    return WaitTable({str(k): float(v) for k, v in doc.items()})


def evaluate_trace(
    config: PipelineConfig, model: PredictionModel, trace_path, fmt: str = "interval"
) -> dict:
    with open(trace_path) as fh:
        events = parse_casas(fh) if fmt == "casas" else parse_interval(fh)
    policy, max_gap = config.segment_policy()
    trace = segment(events, policy, max_gap)
    waits = load_wait_table(config.waits)
    report = evaluate(
        trace, model, waits, window=config.window, involvement_threshold=config.involvement
    )
    return report.as_dict()
