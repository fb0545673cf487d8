"""Command-line interface.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .config import build_config, parse_y_weights
from .errors import ConfigError, DataError, HabitMinerError, InternalError
from .synth import format_trace, generate, load_activity_specs, truth_as_dicts


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_CONFIG_FLAGS = [
    ("minsup", str, "support threshold: absolute count or percent like 5%%"),
    ("minsig", float, "significance threshold"),
    ("minpro", float, "combined proximity threshold"),
    ("w1", float, "spatial proximity weight"),
    ("w2", float, "temporal proximity weight"),
    ("k", int, "number of pattern clusters"),
    ("zeta", float, "interval tolerance in minutes"),
    ("min_p", float, "minimum interval occurrence probability"),
    ("segment", str, "by_day or by_gap:<minutes>"),
    ("seed", int, "RNG seed"),
    ("y_weights", str, "recognition weights, e.g. 1,1,1"),
    ("window", float, "evaluation window in minutes"),
    ("waits", str, "path to a JSON wait table"),
    ("max_len", int, "maximum pattern length in endpoints"),
    ("epsilon", float, "minimum Manhattan distance"),
    ("involvement", float, "involvement cutoff for predicted event sets"),
]


def _add_common(parser):
    parser.add_argument("--outdir", default="artifacts", help="artifact directory")
    parser.add_argument("--config", default=None, help="key=value config file")
    for name, typ, help_text in _CONFIG_FLAGS:
        flag = "--" + name.replace("_", "-")
        if name == "y_weights":
            parser.add_argument(flag, dest=name, type=str, help=help_text)
        else:
            parser.add_argument(flag, dest=name, type=typ, help=help_text)


def _resolved_config(args):
    overrides = {name: getattr(args, name) for name, _, _ in _CONFIG_FLAGS}
    if overrides.get("y_weights") is not None:
        overrides["y_weights"] = parse_y_weights(overrides["y_weights"])
    return build_config(args.config, overrides)


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="habitminer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        return p

    p = command("ingest", "parse a log and segment it into sequences")
    p.add_argument("input", help="log file")
    p.add_argument("--format", choices=("interval", "casas"), default="interval")

    command("mine", "mine and quality-filter composition patterns")
    command("cluster", "group patterns and derive involvement probabilities")
    command("periodic", "attach representative time intervals")
    command("relations", "build the temporal transition matrix")

    p = command("run", "run the whole pipeline and write the model")
    p.add_argument("input", help="log file")
    p.add_argument("--format", choices=("interval", "casas"), default="interval")

    p = command("predict", "recognize an observation and predict the next activity")
    p.add_argument("observation", help="observation file (interval format)")

    p = command("evaluate", "score convenience of the model against a trace")
    p.add_argument("trace", help="held-out trace file")
    p.add_argument("--format", choices=("interval", "casas"), default="interval")

    p = command("simulate", "generate a synthetic trace with ground truth")
    p.add_argument("--spec", required=True, help="activity spec JSON")
    p.add_argument("--days", type=int, default=14)
    return parser


def _dispatch(args) -> int:
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads `--flag=--` as []; no flag takes a list
            raise ConfigError(f"--{name.replace('_', '-')} needs a value")
    config = _resolved_config(args)
    outdir = args.outdir
    if args.command == "ingest":
        _emit(pipeline.stage_ingest(config, args.input, outdir, args.format))
    elif args.command == "mine":
        _emit(pipeline.stage_mine(config, outdir))
    elif args.command == "cluster":
        _emit(pipeline.stage_cluster(config, outdir))
    elif args.command == "periodic":
        _emit(pipeline.stage_periodic(config, outdir))
    elif args.command == "relations":
        _emit(pipeline.stage_relations(config, outdir))
    elif args.command == "run":
        _emit(pipeline.run_pipeline(config, args.input, outdir, args.format))
    elif args.command == "predict":
        model = pipeline.load_model(outdir, config.y_weights)
        _emit(pipeline.predict_from_file(model, args.observation))
    elif args.command == "evaluate":
        model = pipeline.load_model(outdir, config.y_weights)
        _emit(pipeline.evaluate_trace(config, model, args.trace, args.format))
    elif args.command == "simulate":
        specs = load_activity_specs(args.spec)
        db, truth = generate(specs, args.days, seed=config.seed)
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "trace.csv"
        trace_path.write_text(format_trace(db))
        truth_path = out / "ground_truth.json"
        truth_path.write_text(
            json.dumps(truth_as_dicts(truth), indent=2, sort_keys=True) + "\n"
        )
        _emit(
            {
                "stage": "simulate",
                "days": args.days,
                "sequences": len(db),
                "events": db.event_count,
                "instances": len(truth),
                "trace": str(trace_path),
                "ground_truth": str(truth_path),
            }
        )
    else:  # pragma: no cover - argparse guards this
        raise ConfigError(f"unknown command {args.command!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, HabitMinerError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
