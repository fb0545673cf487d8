"""Stage orchestration over inspectable JSON artifacts.

Every stage writes its artifact atomically and embeds the resolved
configuration, so any stage can be rerun (or replaced by an oracle) in
isolation. A stage run alone reads its inputs from the artifact directory,
each artifact through its one loader, which checks the document's shape.
Inside run_pipeline each stage hands its document (ingest: the event
database) to the later stages in memory, so a build reads back none of
the artifacts it writes.
"""

from __future__ import annotations

import json
import math
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
from .mining import CompositionPattern, mine
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
    # Compact, sorted, one line: a one-shot dumps without indent is the only
    # call that takes the C encoder; dump and indent run the Python one.
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.write("\n")
    os.replace(tmp, path)


def _read_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None


def _load_artifact(outdir, stage: str) -> dict:
    path = Path(outdir) / ARTIFACTS[stage]
    if not path.exists():
        raise ConfigError(f"{path} missing: run stage '{stage}' first")
    return _read_json(path)


def _take(outdir, stage: str, docs, keep: bool = False):
    """The document of `stage`, and the file it was read from or None.

    Inside run_pipeline, `docs` holds the documents earlier stages wrote;
    the document is taken from there and dropped unless `keep` says a
    later stage reads it too. This process built it, so the file is None
    and its shape is not checked again. A stage run alone (docs is None)
    reads the artifact, whose shape the caller checks.
    """
    if docs is None:
        return _load_artifact(outdir, stage), str(Path(outdir) / ARTIFACTS[stage])
    return (docs[stage] if keep else docs.pop(stage)), None


def _iso(ts: int) -> str:
    return from_timestamp(ts).isoformat()


def _unixtime(text: str) -> int:
    try:
        return to_timestamp(datetime.fromisoformat(text))
    except ValueError:
        raise DataError(f"{text!r} is not an ISO timestamp") from None


def stage_ingest(
    config: PipelineConfig, input_path, outdir, fmt: str = "interval", docs=None
) -> dict:
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
    if docs is not None:
        # the database events.json describes, as _load_database would rebuild it
        docs["database"] = db
    return {
        "stage": "ingest",
        "sequences": len(db),
        "events": db.event_count,
        "diagnostics": diag.summary(),
    }


def _check_events(doc, where: str):
    """The shape of events.json as _load_database and _model_doc read it."""
    for n, rec in enumerate(_field(doc, "sequences", list, where)):
        at = f"{where} sequence {n}"
        _field(rec, "sid", int, at)
        for e in _field(rec, "events", list, at):
            for key in ("service", "start", "end", "region"):
                _field(e, key, str, at)
            coord = e.get("coord")
            if coord is not None and not (
                isinstance(coord, list)
                and len(coord) == 2
                and all(_is_kind(c, float) and math.isfinite(c) for c in coord)
            ):
                raise DataError(f"{at}: 'coord' is neither null nor two finite numbers")


def _load_database(outdir) -> EventDatabase:
    doc, where = _take(outdir, "ingest", None)
    _check_events(doc, where)
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


def stage_mine(config: PipelineConfig, outdir, docs=None) -> dict:
    db = _load_database(outdir) if docs is None else docs.pop("database")
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
    # instances share their events' stamps: convert each distinct one once
    stamps = {t for s in db.sequences for ev in s.events for t in (ev.start_time, ev.end_time)}
    iso = {ts: _iso(ts) for ts in stamps}
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
                                "start": iso[ev.start_time],
                                "end": iso[ev.end_time],
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
    if docs is not None:
        docs["mine"] = doc
        # stage_model's vocabulary, which it would read from events.json
        docs["vocabulary"] = doc["vocabulary"]
    return {"stage": "mine", "counts": counts, "minsup_resolved": minsup_resolved}


def _patterns_from_artifact(doc, where=None) -> list:
    """(id, CompositionPattern) pairs from patterns.json, without instances:
    clustering reads only each pattern's event types and support. `where`
    names the file a document was read from, whose shape is checked."""
    if where:
        for n, rec in enumerate(_field(doc, "patterns", list, where)):
            at = f"{where} pattern {n}"
            _field(rec, "id", str, at)
            _field(rec, "region", str, at)
            _field(rec, "support", int, at)
            if not all(isinstance(t, str) for t in _field(rec, "seq", list, at)):
                raise DataError(f"{at}: 'seq' holds a non-string")
    return [
        (
            rec["id"],
            CompositionPattern(
                tuple(EndpointSymbol.parse(t) for t in rec["seq"]),
                rec["support"],
                rec["region"],
                (),
            ),
        )
        for rec in doc["patterns"]
    ]


def stage_cluster(config: PipelineConfig, outdir, docs=None) -> dict:
    pairs = _patterns_from_artifact(*_take(outdir, "mine", docs, keep=True))
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
    if docs is not None:
        docs["cluster"] = out
    return {"stage": "cluster", "clusters": len(clusters_doc)}


def _check_instances(doc, where: str):
    """The shape of patterns.json as _cluster_instances reads it."""
    for n, rec in enumerate(_field(doc, "patterns", list, where)):
        at = f"{where} pattern {n}"
        _field(rec, "id", str, at)
        _field(rec, "region", str, at)
        for inst in _field(rec, "instances", list, at):
            _field(inst, "sid", int, at)
            if not _field(inst, "events", list, at):
                raise DataError(f"{at}: an instance has no events")
            for e in inst["events"]:
                _field(e, "start", str, at)
                _field(e, "end", str, at)


def _check_clusters(doc, where: str, patterns: dict):
    """The shape of clusters.json as _cluster_instances and its callers
    read it; every member must be a pattern of `patterns`."""
    for n, cl in enumerate(_field(doc, "clusters", list, where)):
        at = f"{where} cluster {n}"
        _field(cl, "cluster_id", str, at)
        _field(cl, "entries", list, at)
        for pid in _field(cl, "members", list, at):
            if not isinstance(pid, str) or pid not in patterns:
                raise DataError(f"{at}: member {pid!r} is not a mined pattern")


def _cluster_instances(outdir, docs=None):
    """Per cluster, its record and the (sid, start, end, region) of its
    member instances. In a build this takes the last of the clusters and
    patterns documents."""
    clusters_doc, clusters_where = _take(outdir, "cluster", docs)
    patterns_doc, patterns_where = _take(outdir, "mine", docs)
    if patterns_where:
        _check_instances(patterns_doc, patterns_where)
    patterns = {rec["id"]: rec for rec in patterns_doc["patterns"]}
    if clusters_where:
        _check_clusters(clusters_doc, clusters_where, patterns)
    clusters = clusters_doc["clusters"]
    # instances share their events' stamps: convert each distinct one once
    stamps = {
        e[key]
        for rec in patterns.values()
        for inst in rec["instances"]
        for e in inst["events"]
        for key in ("start", "end")
    }
    seconds = {text: _unixtime(text) for text in stamps}
    out = []
    for cl in clusters:
        instances = []
        for pid in cl["members"]:
            rec = patterns[pid]
            for inst in rec["instances"]:
                start = min(seconds[e["start"]] for e in inst["events"])
                end = max(seconds[e["end"]] for e in inst["events"])
                instances.append((inst["sid"], start, end, rec["region"]))
        out.append((cl, instances))
    return out


def stage_periodic(config: PipelineConfig, outdir, docs=None) -> dict:
    records = []
    n_intervals = 0
    cluster_instances = _cluster_instances(outdir, docs)
    for cl, instances in cluster_instances:
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
    if docs is not None:
        docs["periodic"] = doc
        docs["cluster_instances"] = cluster_instances
    return {"stage": "periodic", "patterns": len(records), "intervals": n_intervals}


def stage_relations(config: PipelineConfig, outdir, docs=None) -> dict:
    if docs is None:
        cluster_instances = _cluster_instances(outdir)
    else:  # resolved by stage_periodic
        cluster_instances = docs.pop("cluster_instances")
    pattern_instances = []
    for cl, instances in cluster_instances:
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
    if docs is not None:
        docs["relations"] = doc
    return {"stage": "relations", "patterns": n, "cells": len(cells), "density": doc["density"]}


def _model_doc(outdir, docs=None) -> dict:
    """The model document, less its config echo, from upstream documents.

    The vocabulary is the sorted service set of events.json: the same list
    patterns.json records, from a file a quarter its size. In a build,
    stage_mine hands that list forward instead.
    """
    periodic_doc, where = _take(outdir, "periodic", docs)
    if where:
        _field(periodic_doc, "patterns", list, where)
    matrix_doc, where = _take(outdir, "relations", docs)
    if where:
        _field(matrix_doc, "patterns", list, where)
        _field(matrix_doc, "cells", list, where)
    if docs is None:
        events_doc, where = _take(outdir, "ingest", None)
        _check_events(events_doc, where)
        vocabulary = sorted(
            {e["service"] for rec in events_doc["sequences"] for e in rec["events"]}
        )
    else:
        vocabulary = docs.pop("vocabulary")
    return {
        "vocabulary": vocabulary,
        "patterns": periodic_doc["patterns"],
        "matrix": {"patterns": matrix_doc["patterns"], "cells": matrix_doc["cells"]},
    }


def stage_model(config: PipelineConfig, outdir, docs=None) -> dict:
    doc = {"config": config.as_dict(), **_model_doc(outdir, docs)}
    _write_json(Path(outdir) / ARTIFACTS["model"], doc)
    return {"stage": "model", "patterns": len(doc["patterns"])}


_KIND_NAMES = {
    str: "a string", list: "a list", dict: "an object", float: "a number", int: "an integer"
}


def _is_kind(value, kind) -> bool:
    """Whether a decoded JSON value is of `kind`; float stands for any number."""
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def _field(rec, key: str, kind, where: str):
    """rec[key], which must be of `kind`; DataError naming `where` otherwise."""
    if not isinstance(rec, dict):
        raise DataError(f"{where} is not an object")
    if key not in rec:
        raise DataError(f"{where} has no {key!r}")
    if not _is_kind(rec[key], kind):
        raise DataError(f"{where}: {key!r} is not {_KIND_NAMES[kind]}")
    return rec[key]


def _interval_from_doc(iv, where: str) -> RepresentativeInterval:
    return RepresentativeInterval(
        start=_field(iv, "start_min", float, where),
        end=_field(iv, "end_min", float, where),
        location=_field(iv, "location", str, where),
        probability=_field(iv, "P", float, where),
        tolerance=_field(iv, "zeta", float, where) if "zeta" in iv else 0.0,
        support_count=_field(iv, "num", float, where),
        total_count=_field(iv, "tnum", float, where),
    )


def model_from_doc(doc: dict, y_weights=(1.0, 1.0, 1.0)) -> PredictionModel:
    """The model a model document describes.

    A document of the wrong shape raises DataError: a field missing or of
    the wrong JSON type, a relation name that is not one, or a matrix
    naming a pattern the document does not hold.
    """
    if not isinstance(doc, dict):
        raise DataError("model document is not an object")
    records = _field(doc, "patterns", list, "model document")
    vocabulary = _field(doc, "vocabulary", list, "model document")
    matrix_doc = _field(doc, "matrix", dict, "model document")
    ids = _field(matrix_doc, "patterns", list, "model matrix")
    cells_doc = _field(matrix_doc, "cells", list, "model matrix")
    if not all(_is_kind(svc, str) for svc in vocabulary):
        raise DataError("model vocabulary holds a non-string")

    patterns = []
    for n, rec in enumerate(records):
        where = f"model pattern {n}"
        entries = []
        for e in _field(rec, "entries", list, where):
            entries.append((_field(e, "event", str, where), _field(e, "p", float, where)))
        intervals = tuple(
            _interval_from_doc(iv, where) for iv in _field(rec, "intervals", list, where)
        )
        patterns.append(
            PeriodicPattern(
                _field(rec, "pattern_id", str, where),
                ProbabilisticCompositionPattern(tuple(entries)),
                intervals,
            )
        )

    known = {p.pattern_id for p in patterns}
    for pid in ids:
        if not _is_kind(pid, str) or pid not in known:
            raise DataError(f"model matrix names unknown pattern {pid!r}")
    index = {pid: i for i, pid in enumerate(ids)}
    cells = {}
    for n, cell in enumerate(cells_doc):
        where = f"model matrix cell {n}"
        ends = []
        for key in ("from", "to"):
            pid = _field(cell, key, str, where)
            if pid not in index:
                raise DataError(f"{where}: unknown pattern {pid!r}")
            ends.append(index[pid])
        relations = {}
        for r, p in _field(cell, "relations", dict, where).items():
            try:
                relation = AllenRelation(r)
            except ValueError:
                raise DataError(f"{where}: unknown relation {r!r}") from None
            if not _is_kind(p, float):
                raise DataError(f"{where}: relation {r!r} is not a number")
            relations[relation] = p
        cells[tuple(ends)] = TemporalCell(_field(cell, "tran_pro", float, where), relations)
    matrix = TemporalMatrix(tuple(ids), cells)
    return PredictionModel(tuple(patterns), matrix, tuple(vocabulary), y_weights)


def load_model(outdir, y_weights=(1.0, 1.0, 1.0)) -> PredictionModel:
    path = Path(outdir) / ARTIFACTS["model"]
    if not path.exists():
        return model_from_doc(_model_doc(outdir), y_weights)
    doc = _load_artifact(outdir, "model")
    try:
        return model_from_doc(doc, y_weights)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


_STAGES = ("ingest", "mine", "cluster", "periodic", "relations", "model")


def run_pipeline(config: PipelineConfig, input_path, outdir, fmt: str = "interval") -> dict:
    """Run every stage in order; abort (and name the stage) on first error.

    Each stage hands its document to the later stages through `docs`,
    except stage_ingest, which hands stage_mine the event database itself;
    stage_mine adds the vocabulary and stage_periodic the clusters'
    instances. Each leaves `docs` with its last reader.
    """
    reports = {}
    docs: dict = {}
    for stage in _STAGES:
        try:
            if stage == "ingest":
                reports[stage] = stage_ingest(config, input_path, outdir, fmt, docs=docs)
            else:
                runner = globals()[f"stage_{stage}"]
                reports[stage] = runner(config, outdir, docs=docs)
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
    """A JSON object of service -> waiting minutes, each finite and >= 0."""
    if path is None:
        return WaitTable({})
    try:
        doc = _read_json(Path(path))
    except DataError as exc:
        raise ConfigError(f"wait table {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"wait table {path}: expected a JSON object of service -> minutes")
    waits = {}
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"wait table {path}: wait for {key!r} is not a number")
        if not math.isfinite(value) or value < 0:
            raise ConfigError(f"wait table {path}: wait for {key!r} must be finite and >= 0")
        waits[key] = float(value)
    return WaitTable(waits)


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
