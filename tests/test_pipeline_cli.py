"""Pipeline stages, artifacts and the command-line surface."""

import json

import pytest

from conftest import build_running_example, planted_chain, planted_household

from habitminer.cli import main
from habitminer.config import PipelineConfig, build_config, read_config_file
from habitminer.errors import ConfigError
from habitminer.events import partition_by_region
from habitminer.mining import mine
from habitminer.pipeline import (
    _load_database,
    load_model,
    run_pipeline,
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
    with pytest.raises(ConfigError):
        build_config(None, {"w1": 0.5, "w2": 0.9})
    with pytest.raises(ConfigError):
        build_config(None, {"minsup": "150%"})
    with pytest.raises(ConfigError):
        build_config(None, {"minsup": 0})
    with pytest.raises(ConfigError):
        build_config(None, {"segment": "hourly"})


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


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli("mine", "--outdir", str(tmp_path), "--minsup", "0") == 1
    assert run_cli("predict", str(tmp_path / "missing.csv"), "--outdir", str(tmp_path)) in (1, 2)
    with pytest.raises(SystemExit) as err:
        run_cli("not-a-command")
    assert err.value.code == 1
    capsys.readouterr()


def test_cli_config_echo_embedded(fixture_trace, tmp_path):
    outdir = tmp_path / "artifacts"
    run_pipeline(fixture_config(), fixture_trace, outdir)
    for name in ("events", "patterns", "clusters", "periodic", "matrix", "model"):
        doc = json.loads((outdir / f"{name}.json").read_text())
        assert doc["config"]["minpro"] == 0.3
        assert doc["config"]["w2"] == 1.0
