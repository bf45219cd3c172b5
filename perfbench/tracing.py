"""Span recorder for the traced benchmark run.

Wrappers replace public functions under the module attribute their caller
looks up (``subteam.trainer.skill_loss``, ``subteam.kernels.random_walk_kernel``
and so on), so the program itself is untouched. Spans stay in memory until the
run ends; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

import subteam.cli
import subteam.encoder
import subteam.evaluate
import subteam.kernels
import subteam.recommender
import subteam.trainer


def _recommend_attrs(args, kwargs):
    departing, model = args[1], args[2]
    pools = [len(model.containers[int(model.hard[t])]) for t in departing]
    return {"r": len(departing), "tuples": math.prod(pools)}


def _candidates(result):
    return {"candidates": result.candidates_examined}


# (span name, [(module, attribute the caller looks up)], attrs from args, attrs from result)
TRACED = [
    ("trainer.train", [(subteam.trainer, "train"), (subteam.cli, "train")], None, None),
    ("objectives.skill_loss", [(subteam.trainer, "skill_loss")], None, None),
    ("objectives.structural_loss", [(subteam.trainer, "structural_loss")], None, None),
    ("objectives.clustering_loss", [(subteam.trainer, "clustering_loss")], None, None),
    ("objectives.contrastive_loss", [(subteam.trainer, "contrastive_loss")], None, None),
    (
        "recommender.recommend",
        [(subteam.recommender, "recommend"), (subteam.evaluate, "recommend")],
        _recommend_attrs,
        _candidates,
    ),
    ("kernels.random_walk_kernel", [(subteam.kernels, "random_walk_kernel")], None, None),
    (
        "graph.induced_subgraph",
        [(subteam.kernels, "induced_subgraph"), (subteam.evaluate, "induced_subgraph")],
        None,
        None,
    ),
    (
        "kernels.kernel_baseline_replace",
        [(subteam.evaluate, "kernel_baseline_replace")],
        None,
        _candidates,
    ),
    (
        "evaluate.run_comparison",
        [(subteam.evaluate, "run_comparison"), (subteam.cli, "run_comparison")],
        None,
        None,
    ),
    ("kernels.graph_edit_distance", [(subteam.evaluate, "graph_edit_distance")], None, None),
    ("kernels.shortest_path_kernel", [(subteam.evaluate, "shortest_path_kernel")], None, None),
    ("kernels.marginalized_kernel", [(subteam.evaluate, "marginalized_kernel")], None, None),
    ("evaluate.evaluate_case_metrics", [(subteam.evaluate, "evaluate_case_metrics")], None, None),
    ("encoder.encode", [(subteam.encoder, "encode")], None, None),
    ("graph.load_network", [(subteam.cli, "load_network")], None, None),
    ("encoder.load_checkpoint", [(subteam.cli, "load_checkpoint")], None, None),
]

# Counters that must repeat exactly in two traced runs at the same seed.
DETERMINISTIC_SUFFIXES = (".calls", ".tuples", ".candidates")


class Tracer:
    """Records (name, start, end, parent, attrs) spans while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            attrs = pre(args, kwargs) if pre else {}
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, attrs])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if post:
                attrs.update(post(result))
            return result

        return traced

    def __enter__(self):
        for name, sites, pre, post in TRACED:
            original = getattr(*sites[0])
            wrapper = self._wrap(name, original, pre, post)
            for module, attr in sites:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in microseconds, parent index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                row = [name, round((start - origin) * 1e6), round((end - origin) * 1e6), parent]
                fh.write(json.dumps(row + ([attrs] if attrs else [])) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer totals named ``<module>.<function>.<stat>``."""
        ms = defaultdict(float)
        child_ms = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        self_ms = defaultdict(float)
        # Children start after their parent, so in reverse order a span's children are all seen.
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, attrs = self.spans[index]
            dur = (end - start) * 1e3
            child_ms[parent] += dur
            names = [name, f"{name}.r{attrs['r']}"] if "r" in attrs else [name]
            for key in names:
                ms[key] += dur
                calls[key] += 1
            self_ms[name] += dur - child_ms[index]
            for key in ("tuples", "candidates"):
                if key in attrs:
                    counts[f"{name}.{key}"] += attrs[key]

        rec = "recommender.recommend"
        out = {}
        for name, _, _, _ in TRACED:
            out[f"{name}.ms"] = ms[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
        for r in (1, 2, 3):
            out[f"{rec}.r{r}.ms"] = ms[f"{rec}.r{r}"]
            out[f"{rec}.r{r}.calls"] = calls[f"{rec}.r{r}"]
        for key, value in counts.items():
            out[key] = value
        for key in (f"{rec}.tuples", f"{rec}.candidates", "kernels.kernel_baseline_replace.candidates"):
            out.setdefault(key, 0)
        tuples = out[f"{rec}.tuples"]
        out[f"{rec}.candidate_ratio"] = out[f"{rec}.candidates"] / tuples if tuples else 0.0
        out[f"{rec}.us_per_tuple"] = ms[rec] * 1e3 / tuples if tuples else 0.0
        rwk = "kernels.random_walk_kernel"
        out[f"{rwk}.us_per_call"] = ms[rwk] * 1e3 / calls[rwk] if calls[rwk] else 0.0
        return out
