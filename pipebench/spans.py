"""In-memory spans and counts around calls into the package's public names.

Each traced name is replaced where its callers look it up (a module
attribute), so the package itself is unchanged; `uninstall` puts every
original back, so untraced rounds run the package as shipped. Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

STAGES = ("ingest", "mine", "cluster", "periodic", "relations", "model")


class Tracer:
    def __init__(self):
        # [operation id, name, start, end, parent span index or -1]
        self.spans: list = []
        self.counts: dict = defaultdict(int)  # (operation id, name) -> count
        self.op = None
        self._stack: list = []
        self._saved: list = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1):
        self.counts[(self.op, name)] += n

    def _replace(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, on_result=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(self, result, args)
            return result

        self._replace(owner, attr, traced)

    def install(self):
        """Wrap the layer boundaries a build and a replay pass go through."""
        import habitminer.mining as mining
        from habitminer import convenience, pipeline

        for stage in STAGES:
            self.wrap(pipeline, f"stage_{stage}", f"pipeline.{stage}",
                      _count_kept if stage == "mine" else None)
        self.wrap(pipeline, "parse_interval", "events.parse",
                  lambda t, r, a: t.count("events.events", len(r)))
        self.wrap(pipeline, "segment", "events.segment")
        self.wrap(pipeline, "mine", "mining.mine", _count_mined)
        self.wrap(mining, "encode_database", "mining.encode")
        self.wrap(mining, "mine_sequences", "mining.kernel")
        self.wrap(pipeline, "score_pattern", "quality.score")
        self.wrap(pipeline, "cluster", "clustering.cluster")
        self.wrap(pipeline, "to_probabilistic", "clustering.cluster")
        self.wrap(pipeline, "representative_intervals", "periodic.intervals")
        self.wrap(pipeline, "build_matrix", "relations.matrix",
                  lambda t, r, a: t.count("relations.cells", len(r.cells)))
        self.wrap(pipeline, "load_model", "predict.load_model")
        self.wrap(pipeline, "evaluate", "convenience.evaluate", _count_windows)
        self.wrap(convenience, "recognize", "predict.recognize")
        self.wrap(convenience, "predict_next", "predict.predict_next")

        traced_json = types.ModuleType("json")
        traced_json.__dict__.update(json.__dict__)
        self.wrap(traced_json, "load", "pipeline.json_decode",
                  lambda t, r, a: t.count("pipeline.patterns_decodes",
                                          str(getattr(a[0], "name", "")).endswith("patterns.json")))
        self.wrap(traced_json, "dump", "pipeline.json_encode")
        self._replace(pipeline, "json", traced_json)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, op) -> dict:
        """name -> (calls, total seconds, self seconds) over one operation."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for i, (span_op, name, start, end, parent) in enumerate(self.spans):
            if span_op != op:
                continue
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][1]] += end - start
        return {n: (calls[n], total[n], total[n] - child[n]) for n in calls}

    def counted(self, op, name: str) -> int:
        return self.counts.get((op, name), 0)

    def write(self, path):
        """Spans as [operation, name, start ms, duration ms, parent]."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [str(op), name, (start - t0) * 1e3, (end - start) * 1e3, parent]
            for op, name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")


def _count_kept(tracer, report, args):
    tracer.count("quality.kept", report["counts"]["kept"])


def _count_mined(tracer, patterns, args):
    tracer.count("mining.patterns", len(patterns))
    tracer.count("mining.instances", sum(len(p.instances) for p in patterns))


def _count_windows(tracer, report, args):
    trace = args[0]
    tracer.count("convenience.boundaries",
                 sum(len({ev.end_time for ev in seq.events}) for seq in trace.sequences))
    tracer.count("convenience.windows",
                 sum(1 for w in report.windows if w.efforts is not None))
