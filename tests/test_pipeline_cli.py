"""Pipeline stages, artifacts and the command-line surface."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import build_running_example, planted_chain, planted_household

from habitminer import pipeline
from habitminer.cli import main
from habitminer.config import PipelineConfig, build_config, read_config_file
from habitminer.errors import ConfigError, ParseError
from habitminer.events import partition_by_region
from habitminer.mining import mine
from habitminer.pipeline import (
    ARTIFACTS,
    _iso,
    _load_database,
    _unixtime,
    load_model,
    run_pipeline,
    stage_cluster,
    stage_ingest,
    stage_mine,
)
from habitminer.quality import EventProbabilityTable, score_pattern
from habitminer.synth import format_trace, generate


@pytest.fixture()
def fixture_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(format_trace(build_running_example()))
    return path


def fixture_config(**kw):
    overrides = {"minsup": 2, "minpro": 0.3, "w1": 0.0, "w2": 1.0, "k": 2, "seed": 1}
    overrides.update(kw)
    return build_config(None, overrides)


def test_config_defaults_and_validation():
    config = PipelineConfig().validate()
    assert config.minsig == 0.01
    assert config.minpro == 0.39
    assert (config.w1, config.w2) == (0.0, 1.0)
    assert config.k == 9
    assert config.zeta == 120
    assert config.min_p == 0.25
    nan, inf = float("nan"), float("inf")
    for bad in (
        {"w1": 0.5, "w2": 0.9},
        {"minsup": "150%"},
        {"minsup": 0},
        {"segment": "hourly"},
        {"window": nan},
        {"window": 1e308},  # overflows when turned into seconds
        {"zeta": nan},
        {"minsig": nan},
        {"epsilon": inf},
        {"y_weights": (nan, 1.0, 1.0)},
        {"segment": "by_gap:nan"},
        {"segment": "by_gap:1e308"},
    ):
        with pytest.raises(ConfigError):
            build_config(None, bad)


def test_config_minsup_resolution():
    assert build_config(None, {"minsup": "5%"}).resolve_minsup(100) == 5
    assert build_config(None, {"minsup": "5%"}).resolve_minsup(10) == 1
    assert build_config(None, {"minsup": "10%"}).resolve_minsup(14) == 2
    assert build_config(None, {"minsup": 4}).resolve_minsup(2) == 4


def test_config_segment_policies():
    assert build_config(None, {"segment": "by_day"}).segment_policy() == ("by_day", None)
    assert build_config(None, {"segment": "by_gap:90"}).segment_policy() == ("by_gap", 5400)
    with pytest.raises(ConfigError):
        build_config(None, {"segment": "by_gap:bogus"})


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("minsup = 3\nminpro = 0.2  # loose\nk = 4\n")
    values = read_config_file(cfg)
    assert values == {"minsup": 3, "minpro": 0.2, "k": 4}
    config = build_config(cfg, {"minsup": "5%"})
    assert config.minsup == "5%"
    assert config.k == 4
    with pytest.raises(ConfigError):
        build_config(None, {"nope": 1})
    bad = tmp_path / "bad.cfg"
    bad.write_text("minsup\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)


def test_run_pipeline_running_example(fixture_trace, tmp_path):
    outdir = tmp_path / "artifacts"
    report = run_pipeline(fixture_config(), fixture_trace, outdir)
    counts = report["stages"]["mine"]["counts"]
    assert counts["mined"] == 31
    assert counts["kept"] >= 2
    patterns_doc = json.loads((outdir / "patterns.json").read_text())
    kept_seqs = {tuple(p["seq"]) for p in patterns_doc["patterns"]}
    assert ("E+", "F+", "F-", "E-") in kept_seqs
    assert ("A+", "A-", "B+", "C+", "C-", "B-") in kept_seqs
    for name in ("events", "patterns", "clusters", "periodic", "matrix", "model"):
        assert (outdir / f"{name}.json").exists()
    model = load_model(outdir)
    assert len(model.patterns) == 2
    assert patterns_doc["config"]["minsup"] == 2
    model_doc = json.loads((outdir / "model.json").read_text())
    assert model_doc["vocabulary"] == patterns_doc["vocabulary"] == sorted("ABCDEFGKM")
    (outdir / "model.json").unlink()  # load_model falls back to the upstream artifacts
    assert load_model(outdir).vocabulary == model.vocabulary


def test_pipeline_empty_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    report = run_pipeline(fixture_config(), empty, tmp_path / "artifacts")
    assert report["stages"]["mine"]["counts"]["mined"] == 0
    assert report["stages"]["cluster"]["clusters"] == 0
    assert report["stages"]["relations"]["patterns"] == 0


def test_pipeline_k_exceeding_patterns(fixture_trace, tmp_path):
    with pytest.raises(ConfigError) as err:
        run_pipeline(fixture_config(k=500), fixture_trace, tmp_path / "a")
    assert "stage cluster" in str(err.value)


def test_stage_isolation_byte_identical(fixture_trace, tmp_path):
    outdir = tmp_path / "artifacts"
    config = fixture_config()
    stage_ingest(config, fixture_trace, outdir)
    stage_mine(config, outdir)
    first = (outdir / "patterns.json").read_bytes()
    stage_mine(config, outdir)
    assert (outdir / "patterns.json").read_bytes() == first


@pytest.fixture()
def chain_trace(tmp_path):
    db, _ = generate(planted_chain(), 14, seed=9)
    path = tmp_path / "chain.csv"
    path.write_text(format_trace(db))
    return path


def test_run_pipeline_matches_stages_run_alone(chain_trace, tmp_path):
    config = build_config(None, {"minsup": "10%", "k": 2, "seed": 3})
    run_pipeline(config, chain_trace, tmp_path / "run")
    alone = tmp_path / "alone"
    stage_ingest(config, chain_trace, alone)
    for stage in ("mine", "cluster", "periodic", "relations", "model"):
        getattr(pipeline, f"stage_{stage}")(config, alone)
    for name in ARTIFACTS.values():
        assert (tmp_path / "run" / name).read_bytes() == (alone / name).read_bytes(), name


def test_run_pipeline_reads_no_artifact(chain_trace, tmp_path, monkeypatch):
    reads = []
    read_json = pipeline._read_json

    def counting(path):
        reads.append(path.name)
        return read_json(path)

    monkeypatch.setattr(pipeline, "_read_json", counting)
    config = build_config(None, {"minsup": "10%", "k": 2, "seed": 3})
    run_pipeline(config, chain_trace, tmp_path / "run")
    assert reads.count("patterns.json") == 0
    assert reads == []
    stage_cluster(config, tmp_path / "run")
    assert reads == ["patterns.json"]


def test_artifacts_are_compact_sorted_json(fixture_trace, tmp_path):
    outdir = tmp_path / "artifacts"
    run_pipeline(fixture_config(), fixture_trace, outdir)
    for name in ARTIFACTS.values():
        text = (outdir / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_stage_cluster_ignores_instances(fixture_trace, tmp_path):
    outdir = tmp_path / "artifacts"
    config = fixture_config()
    stage_ingest(config, fixture_trace, outdir)
    stage_mine(config, outdir)
    stage_cluster(config, outdir)
    first = (outdir / "clusters.json").read_bytes()
    patterns = outdir / "patterns.json"
    doc = json.loads(patterns.read_text())
    assert all(rec["instances"] for rec in doc["patterns"])
    for rec in doc["patterns"]:
        rec["instances"] = []
    patterns.write_text(json.dumps(doc))
    stage_cluster(config, outdir)
    assert (outdir / "clusters.json").read_bytes() == first


# datetime's whole range: 0001-01-01T00:00:00 to 9999-12-31T23:59:59
@given(st.integers(min_value=-62_135_596_800, max_value=253_402_300_799))
@example(-62_135_596_800)
@example(253_402_300_799)
@example(0)
def test_iso_unixtime_round_trip(ts):
    assert _unixtime(_iso(ts)) == ts


def test_stage_requires_upstream(tmp_path):
    with pytest.raises(ConfigError) as err:
        stage_mine(fixture_config(), tmp_path)
    assert "ingest" in str(err.value)


def test_stage_mine_matches_recount(tmp_path):
    db, _ = generate(planted_household(), 20, seed=3)
    trace = tmp_path / "t.csv"
    trace.write_text(format_trace(db))
    outdir = tmp_path / "artifacts"
    # minsig above minpro, so a swap of the two would show in the scores
    config = build_config(None, {"minsig": 1.0, "minpro": 0.5})
    stage_ingest(config, trace, outdir)
    report = stage_mine(config, outdir)
    doc = json.loads((outdir / "patterns.json").read_text())

    db = _load_database(outdir)
    table = EventProbabilityTable.from_database(db)
    counts = {"mined": 0, "significant": 0, "proximate": 0, "kept": 0}
    kept = {}
    for region, sub in partition_by_region(db).items():
        minsup = config.resolve_minsup(len(sub))
        for pattern in mine(sub, minsup, max_len=config.max_len, region=region):
            score = score_pattern(pattern, table, config.w1, config.w2, config.epsilon)
            sig_ok = score.significance >= config.minsig
            pro_ok = score.combined >= config.minpro
            counts["mined"] += 1
            counts["significant"] += sig_ok
            counts["proximate"] += pro_ok
            counts["kept"] += sig_ok and pro_ok
            if sig_ok and pro_ok:
                kept[(region, pattern.tokens)] = {
                    "significance": score.significance,
                    "spatial_proximity": score.spatial_proximity,
                    "temporal_proximity": score.temporal_proximity,
                    "combined": score.combined,
                }
    assert report["counts"] == doc["counts"] == counts
    assert 0 < counts["kept"] < min(counts["significant"], counts["proximate"])
    assert max(counts["significant"], counts["proximate"]) < counts["mined"]
    assert {(rec["region"], tuple(rec["seq"])): rec["score"] for rec in doc["patterns"]} == kept
    assert all(score["spatial_proximity"] is not None for score in kept.values())


def test_config_file_rejects_threads(tmp_path, capsys):
    path = tmp_path / "habitminer.conf"
    path.write_text("threads = 4\n")
    assert run_cli("mine", "--config", str(path), "--outdir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "threads" in err


# CLI ------------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_stagewise_flow(fixture_trace, tmp_path, capsys):
    outdir = str(tmp_path / "artifacts")
    base = ["--outdir", outdir, "--minsup", "2", "--minpro", "0.3", "--k", "2"]
    assert run_cli("ingest", str(fixture_trace), *base) == 0
    assert run_cli("mine", *base) == 0
    assert run_cli("cluster", *base) == 0
    assert run_cli("periodic", *base) == 0
    assert run_cli("relations", *base) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "artifacts" / "matrix.json").exists()
    assert '"stage": "relations"' in out


def test_cli_requires_upstream_stage(tmp_path, capsys):
    assert run_cli("relations", "--outdir", str(tmp_path / "nothing")) == 1
    assert "first" in capsys.readouterr().err


def test_cli_run_predict_evaluate(tmp_path, capsys):
    db, truth = generate(planted_chain(), 14, seed=9)
    trace = tmp_path / "trace.csv"
    trace.write_text(format_trace(db))
    outdir = str(tmp_path / "artifacts")
    base = ["--outdir", outdir, "--minsup", "10%", "--k", "2", "--seed", "3"]
    assert run_cli("run", str(trace), *base) == 0
    capsys.readouterr()

    # an observation matching the cook activity on a fresh day
    obs = tmp_path / "obs.csv"
    obs.write_text(
        "stove,2024-03-05T18:02:00,2024-03-05T18:35:00,kitchen\n"
        "hood,2024-03-05T18:05:00,2024-03-05T18:30:00,kitchen\n"
        "light,2024-03-05T18:10:00,2024-03-05T18:33:00,kitchen\n"
    )
    assert run_cli("predict", str(obs), *base) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["next"] is not None
    assert doc["next"]["location"] == "scullery"
    assert doc["recognized"]["Y"] > 2.0

    waits = tmp_path / "waits.json"
    waits.write_text(json.dumps({"sink": 3, "rack": 1}))
    assert run_cli("evaluate", str(trace), "--waits", str(waits), *base) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"]["saved_time_min"] > 0
    assert 0.0 <= report["overall"]["saved_efforts"] <= 1.0


def test_cli_simulate(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "activities": [
                    {"name": "tea", "region": "kitchen", "mandatory": ["kettle", "cup"],
                     "start_mean": "16:00", "duration": [10, 12]},
                ]
            }
        )
    )
    outdir = tmp_path / "sim"
    assert run_cli("simulate", "--spec", str(spec), "--days", "3",
                   "--outdir", str(outdir)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["days"] == 3
    assert (outdir / "trace.csv").exists()
    truth = json.loads((outdir / "ground_truth.json").read_text())
    assert len(truth) == 3
    # the simulated trace feeds straight back into the pipeline
    assert run_cli("run", str(outdir / "trace.csv"), "--outdir",
                   str(outdir / "artifacts"), "--minsup", "2", "--k", "1") == 0


def test_cli_exit_codes(fixture_trace, tmp_path, capsys):
    assert run_cli("mine", "--outdir", str(tmp_path), "--minsup", "0") == 1
    assert run_cli("predict", str(tmp_path / "missing.csv"), "--outdir", str(tmp_path)) in (1, 2)
    with pytest.raises(SystemExit) as err:
        run_cli("not-a-command")
    assert err.value.code == 1
    capsys.readouterr()
    for flag in ("--window=nan", "--zeta=nan", "--minsig=nan", "--epsilon=inf",
                 "--y-weights=nan,1,1", "--y-weights=1,a,1", "--y-weights=--", "--zeta=--"):
        assert run_cli("evaluate", str(fixture_trace), "--outdir", str(tmp_path), flag) == 1
        name = flag[2:].split("=")[0]
        assert name.replace("-", "_") in _one_line_error(capsys).replace("-", "_")
    # values argparse itself rejects end in one line too, without the usage
    for value in ("abc", "-inf"):
        with pytest.raises(SystemExit) as err:
            run_cli("run", str(fixture_trace), "--outdir", str(tmp_path), "--zeta", value)
        assert err.value.code == 1
        assert "--zeta" in _one_line_error(capsys)


def test_cli_missing_config_file_exits_1(fixture_trace, tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli("run", str(fixture_trace), "--outdir", str(tmp_path),
                   "--config", str(missing)) == 1
    assert str(missing) in _one_line_error(capsys)
    assert not (tmp_path / "events.json").exists()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "fmt, text",
    [("interval", "fridge,notatime,08:10,kitchen\n"),
     ("casas", "fridge,08:00,08:10,kitchen\n")],
)
def test_cli_run_bad_log_line_exits_2(tmp_path, capsys, fmt, text):
    log = tmp_path / "log.csv"
    log.write_text(text)
    outdir = tmp_path / "artifacts"
    assert run_cli("run", str(log), "--format", fmt, "--outdir", str(outdir)) == 2
    assert "stage ingest: line 1" in _one_line_error(capsys)
    with pytest.raises(ParseError) as err:  # the prefix keeps the error's fields
        run_pipeline(PipelineConfig(), log, outdir, fmt)
    assert err.value.lineno == 1


@pytest.fixture()
def built(fixture_trace, tmp_path):
    outdir = tmp_path / "artifacts"
    run_pipeline(fixture_config(), fixture_trace, outdir)
    return outdir


def test_cli_truncated_model_exits_2(fixture_trace, built, capsys):
    model = built / "model.json"
    model.write_text(model.read_text()[:100])
    assert run_cli("evaluate", str(fixture_trace), "--outdir", str(built)) == 2
    assert "model.json" in _one_line_error(capsys)


def test_cli_undecodable_artifact_exits_2(built, capsys):
    (built / "patterns.json").write_bytes(b"\xff\xfe{}")
    assert run_cli("cluster", "--outdir", str(built)) == 2
    assert "patterns.json" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "command, code",
    [("run", 2), ("evaluate", 2), ("predict", 2), ("config", 1)],
)
def test_cli_non_utf8_input(fixture_trace, built, tmp_path, capsys, command, code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"fridge,08:00,08:10,kitchen\n\xff\xfe\n")
    argv = {
        "run": ["run", str(bad), "--outdir", str(tmp_path / "fresh")],
        "evaluate": ["evaluate", str(bad), "--outdir", str(built)],
        "predict": ["predict", str(bad), "--outdir", str(built)],
        "config": ["evaluate", str(fixture_trace), "--outdir", str(built),
                   "--config", str(bad)],
    }[command]
    assert run_cli(*argv) == code
    assert "bad.txt is not UTF-8 text" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: doc.clear(), "'patterns'"),
        (lambda doc: doc.update(patterns={}), "'patterns'"),
        (lambda doc: doc.update(vocabulary=None), "'vocabulary'"),
        (lambda doc: doc.update(vocabulary=[1]), "vocabulary"),
        (lambda doc: doc.update(matrix=[]), "'matrix'"),
        (lambda doc: doc["matrix"].update(patterns="c0"), "'patterns'"),
        (lambda doc: doc["matrix"].update(cells={}), "'cells'"),
        (lambda doc: doc["matrix"]["cells"][0].update(to="nowhere"), "'nowhere'"),
        (lambda doc: doc["matrix"]["cells"][0].update(relations={"sideways": 1.0}), "'sideways'"),
        (lambda doc: doc["matrix"]["cells"][0].update(tran_pro="high"), "'tran_pro'"),
        (lambda doc: doc["matrix"]["patterns"].__setitem__(0, "ghost"), "'ghost'"),
        (lambda doc: doc["patterns"][0].pop("entries"), "'entries'"),
        (lambda doc: doc["patterns"][0].update(pattern_id=7), "'pattern_id'"),
        (lambda doc: doc["patterns"][0]["entries"].append(["a", 1.0]), "not an object"),
        (lambda doc: doc["patterns"][0]["intervals"][0].update(P=None), "'P'"),
    ],
)
def test_cli_wrong_shape_model_exits_2(fixture_trace, built, capsys, edit, named):
    doc = json.loads((built / "model.json").read_text())
    assert doc["matrix"]["cells"] and doc["patterns"][0]["intervals"]
    edit(doc)
    (built / "model.json").write_text(json.dumps(doc))
    assert run_cli("evaluate", str(fixture_trace), "--outdir", str(built)) == 2
    err = _one_line_error(capsys)
    assert "model.json" in err and named in err


@pytest.mark.parametrize(
    "name, edit, command, named",
    [
        ("events.json", lambda doc: doc.update(sequences={}), "mine", "'sequences'"),
        ("events.json", lambda doc: doc["sequences"][0].update(sid="0"), "mine", "'sid'"),
        ("events.json", lambda doc: doc["sequences"][0]["events"][0].pop("start"), "mine", "'start'"),
        ("events.json", lambda doc: doc["sequences"][0]["events"][0].update(coord=[1.0]), "mine", "'coord'"),
        ("patterns.json", lambda doc: doc.update(patterns=None), "cluster", "'patterns'"),
        ("patterns.json", lambda doc: doc["patterns"][0].update(seq=[1, 2]), "cluster", "'seq'"),
        ("patterns.json", lambda doc: doc["patterns"][0].update(support="9"), "cluster", "'support'"),
        ("patterns.json", lambda doc: doc["patterns"][0]["instances"][0].update(events=[]), "periodic", "no events"),
        ("patterns.json", lambda doc: doc["patterns"][0]["instances"][0]["events"][0].pop("end"), "relations", "'end'"),
        ("clusters.json", lambda doc: doc.update(clusters=None), "periodic", "'clusters'"),
        ("clusters.json", lambda doc: doc["clusters"][0]["members"].append("p9999"), "relations", "'p9999'"),
        ("clusters.json", lambda doc: doc["clusters"][0].pop("entries"), "periodic", "'entries'"),
    ],
)
def test_cli_wrong_shape_artifact_exits_2(built, capsys, name, edit, command, named):
    path = built / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert run_cli(command, "--outdir", str(built)) == 2
    err = _one_line_error(capsys)
    assert name in err and named in err


def test_cli_bad_timestamp_exits_2(built, capsys):
    path = built / "events.json"
    doc = json.loads(path.read_text())
    for stamp in ("noon", "2024-01-02T08:00:00+05:00"):
        doc["sequences"][0]["events"][0]["end"] = stamp
        path.write_text(json.dumps(doc))
        assert run_cli("mine", "--outdir", str(built)) == 2
        assert repr(stamp) in _one_line_error(capsys)


@pytest.mark.parametrize(
    "name, text, named",
    [
        ("periodic.json", "[]", "not an object"),
        ("periodic.json", '{"patterns": {}}', "'patterns'"),
        ("matrix.json", '{"patterns": []}', "'cells'"),
        ("events.json", '{"sequences": 3}', "'sequences'"),
    ],
)
def test_cli_model_from_wrong_shape_upstream_exits_2(
    fixture_trace, built, capsys, name, text, named
):
    # without model.json, load_model builds the model from upstream artifacts
    (built / "model.json").unlink()
    (built / name).write_text(text)
    assert run_cli("evaluate", str(fixture_trace), "--outdir", str(built)) == 2
    err = _one_line_error(capsys)
    assert name in err and named in err


@pytest.mark.parametrize("doc", [[], "", 3])
def test_cli_non_object_model_exits_2(fixture_trace, built, capsys, doc):
    (built / "model.json").write_text(json.dumps(doc))
    assert run_cli("evaluate", str(fixture_trace), "--outdir", str(built)) == 2
    assert "model.json" in _one_line_error(capsys)


_TEA = {"name": "tea", "region": "kitchen", "mandatory": ["kettle"]}


@pytest.mark.parametrize(
    "text, named",
    [
        (json.dumps({"activities": [{k: v for k, v in _TEA.items() if k != "region"}]}), "'region'"),
        (json.dumps({"activities": [{k: v for k, v in _TEA.items() if k != "name"}]}), "'name'"),
        (json.dumps({"activities": [{k: v for k, v in _TEA.items() if k != "mandatory"}]}), "'mandatory'"),
        (json.dumps({"activities": [dict(_TEA, mandatory="kettle")]}), "'mandatory'"),
        (json.dumps({"activities": [dict(_TEA, start_mean="noon")]}), "'tea'"),
        (json.dumps({"activities": [dict(_TEA, duration=[10, 12, 14])]}), "duration"),
        (json.dumps({"activities": [dict(_TEA, duration=["a", "b"])]}), "duration"),
        (json.dumps({"activities": [dict(_TEA, successors=[["tea", "sideways", 1]])]}), "'tea'"),
        (json.dumps({"activities": {"tea": _TEA}}), "'activities'"),
        (json.dumps({"activities": ["tea"]}), "activity 0"),
        (json.dumps([_TEA]), "not a JSON object"),
        ('{"activities": [', "not valid JSON"),
    ],
)
def test_cli_bad_activity_spec_exits_1(tmp_path, capsys, text, named):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run_cli("simulate", "--spec", str(spec), "--outdir", str(tmp_path / "sim")) == 1
    assert named in _one_line_error(capsys)


@pytest.mark.parametrize(
    "command",
    [None, "ingest", "mine", "cluster", "periodic", "relations", "run", "predict",
     "evaluate", "simulate"],
)
def test_cli_help(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"] if command else ["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: habitminer")
    if command is not None:
        assert "--minsup" in out


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"kettle": ', "waits.json"),
        ('["kettle", 3]', "waits.json"),
        ('{"kettle": "abc"}', "'kettle'"),
        ('{"kettle": true}', "'kettle'"),
        ('{"kettle": NaN}', "'kettle'"),
        ('{"kettle": Infinity}', "'kettle'"),
        ('{"kettle": -1}', "'kettle'"),
    ],
)
def test_cli_bad_wait_table_exits_1(fixture_trace, built, tmp_path, capsys, text, named):
    waits = tmp_path / "waits.json"
    waits.write_text(text)
    argv = ["evaluate", str(fixture_trace), "--outdir", str(built), "--waits", str(waits)]
    assert run_cli(*argv) == 1
    assert named in _one_line_error(capsys)


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_cli_nonfinite_coordinates_exit_2(tmp_path, capsys, x):
    log = tmp_path / "log.csv"
    log.write_text(f"a,08:00,08:10,kitchen,1,2\nb,09:00,09:10,kitchen,{x},2\n")
    assert run_cli("ingest", str(log), "--outdir", str(tmp_path / "artifacts")) == 2
    assert "line 2" in _one_line_error(capsys)


def test_cli_config_echo_embedded(fixture_trace, tmp_path):
    outdir = tmp_path / "artifacts"
    run_pipeline(fixture_config(), fixture_trace, outdir)
    for name in ("events", "patterns", "clusters", "periodic", "matrix", "model"):
        doc = json.loads((outdir / f"{name}.json").read_text())
        assert doc["config"]["minpro"] == 0.3
        assert doc["config"]["w2"] == 1.0
