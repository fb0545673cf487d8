#!/usr/bin/env python3
"""Pipeline benchmark: log -> model builds and prediction replays.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/habitminer. One process, one
thread. Set-up generates the workload's training and held-out traces from
the seed and writes them under pipebench/_work/; the package only ever sees
those files. Each round is one build (`pipeline.run_pipeline`, log -> six
artifacts) and three replay passes (`pipeline.load_model` +
`evaluate_trace` over the held-out trace), each preceded by `gc.collect()`.
A first, untimed round is the warm-up; `setup_s` runs from the first line
of this file to its end. Rounds then repeat until S seconds have passed (at
least three). Every operation's output is checked (checks.py); one that
raises or fails its check counts as failed and gives no sample. Builds are
checked by artifact digest against the first build, whose artifacts get
the full checks once the timed rounds are over.

--trace 0 prints the end-to-end metrics. `build_s` is the fastest timed
build and `replay_windows_per_s` the fastest replay pass: on a shared VM
whose speed drops by up to 1.7x for tens of seconds at a time, the best of
N follows the program, while the median follows the share of slow samples.
The medians and every sample go to the line before the result.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics (medians over the traced rounds) plus the tracing overhead (fastest
traced minus fastest untraced); its spans go to
pipebench/_out/spans-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
# Several short replay passes per round give the replay median more samples
# than one long pass at the same cost.
REPLAY_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One workload's inputs, artifact directory and reference outputs."""

    def __init__(self, workload, seed: int, work: Path):
        from habitminer.config import PipelineConfig
        from habitminer.synth import format_trace, generate
        from workloads import HELDOUT_SEED_OFFSET

        self.workload = workload
        work.mkdir(parents=True)
        self.train = work / "train.csv"
        self.heldout = work / "heldout.csv"
        self.outdir = work / "artifacts"
        self.first = work / "first"  # a copy of the reference build's artifacts
        for path, days, s in ((self.train, workload.train_days, seed),
                              (self.heldout, workload.heldout_days, seed + HELDOUT_SEED_OFFSET)):
            db, _ = generate(workload.specs, days, seed=s)
            path.write_text(format_trace(db))
        waits = work / "waits.json"
        waits.write_text(json.dumps(workload.waits))
        self.config = PipelineConfig(waits=str(waits)).validate()
        self.hashes = None  # artifact digests of the reference build
        self.artifact_bytes = {}
        self.report = None  # report of the first replay pass that passed
        self.expected = None  # (windows, saved-minutes bound) of the held-out trace

    def build(self):
        """One log -> model build: (seconds, artifact name -> path)."""
        from habitminer import pipeline

        t = time.perf_counter()
        pipeline.run_pipeline(self.config, self.train, self.outdir)
        return time.perf_counter() - t, self.artifact_paths()

    def artifact_paths(self) -> dict:
        from habitminer import pipeline

        return {Path(f).stem: self.outdir / f for f in pipeline.ARTIFACTS.values()}

    def check_build(self, paths):
        """Compare a build's artifact digests with the reference build's.

        The first build that gets here becomes the reference: its artifacts
        are copied aside for `check_reference`, so that no decoded artifact
        is held in memory while builds are timed."""
        import checks

        hashes = {}
        for name, path in paths.items():
            with open(path, "rb") as fh:
                hashes[name] = hashlib.file_digest(fh, "sha256").hexdigest()
        self.artifact_bytes = {name: path.stat().st_size for name, path in paths.items()}
        if self.hashes is not None:
            checks.check_same_hashes(self.hashes, hashes)
            return
        shutil.copytree(self.outdir, self.first)
        self.hashes = hashes

    def check_reference(self):
        """All build checks over the reference build's decoded artifacts."""
        import checks

        docs = {name: json.loads((self.first / path.name).read_bytes())
                for name, path in self.artifact_paths().items()}
        checks.check_build(docs, self.config)

    def replay(self):
        """One replay pass: (seconds, report)."""
        from habitminer import pipeline

        t = time.perf_counter()
        model = pipeline.load_model(self.outdir, self.config.y_weights)
        report = pipeline.evaluate_trace(self.config, model, self.heldout)
        return time.perf_counter() - t, report

    def check_replay(self, report):
        import checks

        if self.report is not None:
            checks.check_same_report(self.report, report)
            return
        if self.expected is None:
            self.expected = checks.expected_windows(
                checks.read_trace(self.heldout), self.config.window, self.workload.waits
            )
        checks.check_replay(report, *self.expected, self.workload.expect_savings)
        self.report = report


class Runner:
    """Runs operations, checks them and counts those attempted and failed.

    Only operations that neither raised nor failed their check give
    samples. A build passes its round's check when its artifacts hash like
    the reference build's; the reference build's full check runs once, after
    the timed rounds (`check_builds`), and if it fails, every build that
    matched the reference fails with it."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.attempted = 0
        self.failed = 0
        self.matched_builds = 0  # builds whose artifacts hashed like the reference

    def _op(self, run, check, tracer=None, root=""):
        """Run one operation after gc.collect(), then check its output.

        Returns the operation's (seconds, result), or None if it failed.
        With a tracer, the operation runs inside a root span named `root`
        with every layer boundary wrapped; the check runs outside it.
        """
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.install()
            span = tracer.begin(root)
        try:
            elapsed, result = run()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.end(span)
                tracer.uninstall()
        try:
            check(result)
        except Exception as exc:  # a CheckFailed, or an artifact the check cannot read
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return None
        return elapsed, result

    def round(self, tracer=None, index=0):
        """One build, then REPLAY_PASSES replay passes over its model.

        Returns (build seconds or None, [(replay seconds, scored windows)]),
        leaving out every operation that failed."""
        b = self.bench
        if tracer is not None:
            tracer.op = (index, "build")
        build = self._op(b.build, b.check_build, tracer, "pipeline.build")
        if build is not None:
            self.matched_builds += 1
        passes = []
        for p in range(REPLAY_PASSES):
            if tracer is not None:
                tracer.op = (index, "replay", p)
            replay = self._op(b.replay, b.check_replay, tracer, "replay")
            if replay is not None:
                replay_s, report = replay
                passes.append((replay_s, report["overall"]["windows"]))
        return (build[0] if build else None), passes

    def check_builds(self) -> bool:
        """Run the full build checks on the reference build."""
        try:
            if self.bench.hashes is None:
                return False  # no build got as far as its check
            self.bench.check_reference()
        except Exception as exc:
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += self.matched_builds
            return False
        return True


def layer_metrics(tracer, index, bench) -> dict:
    """Per-layer figures of one traced round: name -> (value, unit).

    Replay figures are those of the round's first replay pass."""
    from spans import STAGES

    build, replay = (index, "build"), (index, "replay", 0)
    sb, sr = tracer.summary(build), tracer.summary(replay)

    def ms(summary, name, part=1):
        return summary.get(name, (0, 0.0, 0.0))[part] * 1e3

    def calls(summary, name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    out = {
        "events.parse_ms": (ms(sb, "events.parse"), "ms"),
        "events.segment_ms": (ms(sb, "events.segment"), "ms"),
        "events.events": (tracer.counted(build, "events.events"), "count"),
    }
    for stage in STAGES:
        out[f"pipeline.{stage}_ms"] = (ms(sb, f"pipeline.{stage}"), "ms")
    # build time outside every layer span: artifact I/O, ISO round trips,
    # document assembly
    pipeline_self = ms(sb, "pipeline.build", 2) + sum(
        ms(sb, f"pipeline.{stage}", 2) for stage in STAGES
    )
    scored = calls(sb, "quality.score")
    kept = tracer.counted(build, "quality.kept")
    boundaries = tracer.counted(replay, "convenience.boundaries")
    windows = tracer.counted(replay, "convenience.windows")
    out.update({
        "pipeline.self_ms": (pipeline_self, "ms"),
        "pipeline.json_decode_ms": (ms(sb, "pipeline.json_decode"), "ms"),
        "pipeline.json_encode_ms": (ms(sb, "pipeline.json_encode"), "ms"),
        "pipeline.json_decodes": (calls(sb, "pipeline.json_decode"), "count"),
        "pipeline.patterns_decodes": (tracer.counted(build, "pipeline.patterns_decodes"), "count"),
        "pipeline.events_bytes": (bench.artifact_bytes.get("events", 0), "bytes"),
        "pipeline.patterns_bytes": (bench.artifact_bytes.get("patterns", 0), "bytes"),
        "mining.encode_ms": (ms(sb, "mining.encode"), "ms"),
        "mining.kernel_ms": (ms(sb, "mining.kernel"), "ms"),
        "mining.mine_ms": (ms(sb, "mining.mine"), "ms"),
        "mining.extract_ms": (ms(sb, "mining.mine", 2), "ms"),
        "mining.patterns": (tracer.counted(build, "mining.patterns"), "count"),
        "mining.instances": (tracer.counted(build, "mining.instances"), "count"),
        "quality.score_ms": (ms(sb, "quality.score"), "ms"),
        "quality.scored": (scored, "count"),
        "quality.kept": (kept, "count"),
        "quality.kept_ratio": (kept / scored if scored else 0.0, "ratio"),
        "clustering.cluster_ms": (ms(sb, "clustering.cluster"), "ms"),
        "periodic.intervals_ms": (ms(sb, "periodic.intervals"), "ms"),
        "relations.matrix_ms": (ms(sb, "relations.matrix"), "ms"),
        "relations.cells": (tracer.counted(build, "relations.cells"), "count"),
        "predict.load_model_ms": (ms(sr, "predict.load_model"), "ms"),
        "predict.recognize_ms": (ms(sr, "predict.recognize"), "ms"),
        "predict.recognize_calls": (calls(sr, "predict.recognize"), "count"),
        "predict.predict_next_ms": (ms(sr, "predict.predict_next"), "ms"),
        "convenience.evaluate_ms": (ms(sr, "convenience.evaluate"), "ms"),
        "convenience.windows": (windows, "count"),
        "convenience.boundaries": (boundaries, "count"),
        "convenience.scored_ratio": (windows / boundaries if boundaries else 0.0, "ratio"),
    })
    return out


def run(args, workload, work: Path) -> dict:
    from habitminer.mining import KERNEL_NAME
    from spans import Tracer

    bench = Bench(workload, args.seed, work)
    runner = Runner(bench)
    runner.round()  # warm-up: not timed into the metrics
    setup_s = time.perf_counter() - _T0

    tracer = Tracer() if args.trace else None
    builds, replays, rates = [], [], []
    traced_builds, traced_replays, layers = [], [], []
    start = time.perf_counter()
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        index += 1
        build_s, passes = runner.round()
        builds += [build_s] if build_s is not None else []
        replays += [t for t, _ in passes]
        rates += [w / t for t, w in passes]
        if tracer is not None:
            build_s, passes = runner.round(tracer, index)
            traced_builds += [build_s] if build_s is not None else []
            traced_replays += [t for t, _ in passes]
            layers.append(layer_metrics(tracer, index, bench))
    # read before the full build check, which decodes every artifact
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not runner.check_builds():
        builds, traced_builds = [], []
    if not (builds and replays) or (tracer is not None and not (traced_builds and traced_replays)):
        raise SystemExit(f"pipebench: {runner.failed} of {runner.attempted} operations failed; "
                         "no metric can be measured")

    print(f"pipebench: workload {workload.name}, seed {args.seed}, kernel {KERNEL_NAME}, "
          f"{index} timed rounds; build median {statistics.median(builds):.3f} s, "
          f"replay median {statistics.median(rates):.1f} windows/s; "
          f"build {[round(b, 3) for b in builds]} s, replay {[round(r, 3) for r in replays]} s")
    if tracer is None:
        metrics = {
            "build_s": (min(builds), "s"),
            "replay_windows_per_s": (max(rates), "windows/s"),
            "artifact_bytes": (sum(bench.artifact_bytes.values()), "bytes"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        metrics = {
            name: (statistics.median([layer[name][0] for layer in layers]), unit)
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.build_overhead_ms"] = ((min(traced_builds) - min(builds)) * 1e3, "ms")
        metrics["trace.replay_overhead_ms"] = ((min(traced_replays) - min(replays)) * 1e3, "ms")
        tracer.write(HERE / "_out" / f"spans-{workload.name}-{args.seed}.json")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def add_package_paths() -> bool:
    """Put the checkout's package and benchmarks/ first on sys.path."""
    src = ROOT / "src" / "habitminer"
    helper = ROOT / "benchmarks" / "compare_kernels.py"
    if not src.is_dir() or not helper.is_file():
        print(f"pipebench: {src} or {helper} missing; run from a checkout of the repository",
              file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_package_paths():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"pipebench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
