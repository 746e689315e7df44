"""Layer spans for the traced benchmark run.

Each span wraps one function of the bimodalnet package. Modules import
functions by name (``from .mlp import forward``), so patching the defining
module alone would miss most call sites: the tracer rebinds the wrapper in
every loaded ``bimodalnet`` module that holds the original, and puts every
original back when it is uninstalled. Methods are patched on their class.

A span's self time is its duration minus the durations of the spans nested
directly inside it. Spans are kept in memory, one table per CLI command.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import wraps


def _path_bytes(position: int, keyword: str):
    def hook(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[keyword]
        return {"bytes": os.path.getsize(path)}
    return hook


def _sgd_param_bytes(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    # each step reads every parameter and its gradient and writes the parameter
    return {"param_bytes": 3 * sum(a.nbytes for a in params.values())}


def _evaluated_samples(args, kwargs, result):
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    return {"samples": dataset.n}


# (span name, defining module, attribute, hook adding per-call counts)
SPANS = (
    ("cli", "bimodalnet.cli", "main", None),
    ("data.load_dataset", "bimodalnet.data", "load_dataset", _path_bytes(0, "path")),
    ("data.load_model", "bimodalnet.data", "load_model", _path_bytes(0, "path")),
    ("data.save_model", "bimodalnet.data", "save_model", _path_bytes(1, "path")),
    ("training.build_model", "bimodalnet.training", "build_model", None),
    ("training.train_model", "bimodalnet.training", "train_model", None),
    ("training.sgd_step", "bimodalnet.training", "sgd_step", _sgd_param_bytes),
    ("training.evaluate", "bimodalnet.training", "evaluate", _evaluated_samples),
    ("bilinear.loglik_and_grads", "bimodalnet.bilinear",
     "BilinearClassifier.loglik_and_grads", None),
    ("bilinear.posterior_batch", "bimodalnet.bilinear", "posterior_batch", None),
    ("bilinear.grads_batch", "bimodalnet.bilinear", "_grads_batch", None),
    ("mlp.forward", "bimodalnet.mlp", "forward", None),
    ("mlp.backward", "bimodalnet.mlp", "backward", None),
    ("mlp.sigmoid", "bimodalnet.mlp", "sigmoid", None),
    ("mlp.softmax", "bimodalnet.mlp", "softmax", None),
    ("fusion.fuse_features", "bimodalnet.fusion", "fuse_features", None),
    ("fusion.ensemble.posterior_batch", "bimodalnet.fusion", "Ensemble.posterior_batch", None),
    ("linalg.frobenius_norm", "bimodalnet.linalg", "frobenius_norm", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def resolve(module_name: str, attr: str):
    """(owner, attribute name, original) for a dotted attribute of a module."""
    owner = importlib.import_module(module_name)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def bindings(original):
    """Every (module, name) among loaded bimodalnet modules bound to ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bimodalnet" or mod_name.startswith("bimodalnet.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, key))
    return found


class Tracer:
    """Context manager that installs the spans and records one table per command.

    ``table`` is the span table calls currently record into; assign a fresh
    dict before each command to keep commands apart.
    """

    def __init__(self):
        self.table: dict[str, SpanStats] = {}
        self._open: list[float] = []  # nested-span time of each open span
        self._patched: list = []

    def __enter__(self):
        for name, module_name, attr, hook in SPANS:
            owner, key, original = resolve(module_name, attr)
            wrapper = self._wrap(name, original, hook)
            targets = [(owner, key)] if isinstance(owner, type) else bindings(original)
            for target, target_key in targets:
                self._patched.append((target, target_key, original))
                setattr(target, target_key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)
        return False

    def _wrap(self, name, fn, hook):
        open_spans = self._open

        @wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                nested = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats = self.table.setdefault(name, SpanStats())
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - nested
                stats.durations.append(duration)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + value
            return result

        return span


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of a sorted list (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _merge(commands) -> dict[str, SpanStats]:
    merged: dict[str, SpanStats] = {}
    for _, _, table in commands:
        for name, stats in table.items():
            into = merged.setdefault(name, SpanStats())
            into.calls += stats.calls
            into.total_s += stats.total_s
            into.self_s += stats.self_s
            into.durations.extend(stats.durations)
            for key, value in stats.counts.items():
                into.counts[key] = into.counts.get(key, 0) + value
    return merged


def ms(seconds: float) -> float:
    return 1e3 * seconds


def latency_metrics(commands) -> dict[str, float]:
    """p50 and p99 of the training-step latency over the given commands."""
    step = _merge(commands).get("bilinear.loglik_and_grads", SpanStats())
    latencies = sorted(step.durations)
    return {
        "bilinear.loglik_and_grads.ms_p50": ms(_percentile(latencies, 50)),
        "bilinear.loglik_and_grads.ms_p99": ms(_percentile(latencies, 99)),
    }


def layer_metrics(commands) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's command cycle.

    ``commands`` is a list of (kind, wall seconds, span table), one entry per
    CLI command. Times are in ms, summed over the pass.
    """
    merged = _merge(commands)

    def get(name) -> SpanStats:
        return merged.get(name, SpanStats())

    out: dict[str, float] = {"cli.self_ms": ms(get("cli").self_s)}
    for name in ("data.load_dataset", "data.load_model", "data.save_model"):
        out[f"{name}.ms"] = ms(get(name).self_s)
        out[f"{name}.bytes"] = get(name).counts.get("bytes", 0)
    for name in ("training.build_model", "training.train_model"):
        out[f"{name}.self_ms"] = ms(get(name).self_s)
    sgd = get("training.sgd_step")
    out["training.sgd_step.calls"] = sgd.calls
    out["training.sgd_step.self_ms"] = ms(sgd.self_s)
    out["training.sgd_step.param_bytes"] = sgd.counts.get("param_bytes", 0)
    ev = get("training.evaluate")
    out["training.evaluate.calls"] = ev.calls
    out["training.evaluate.samples"] = ev.counts.get("samples", 0)
    out["training.evaluate.self_ms"] = ms(ev.self_s)
    train_wall = sum(wall for kind, wall, _ in commands if kind == "train")
    train_eval = sum(t["training.evaluate"].total_s for kind, _, t in commands
                     if kind == "train" and "training.evaluate" in t)
    out["training.evaluate.share"] = train_eval / train_wall if train_wall else 0.0
    out["bilinear.loglik_and_grads.self_ms"] = ms(get("bilinear.loglik_and_grads").self_s)
    for name in ("bilinear.posterior_batch", "bilinear.grads_batch", "mlp.forward",
                 "mlp.backward", "mlp.sigmoid", "linalg.frobenius_norm"):
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.self_ms"] = ms(get(name).self_s)
    for name in ("mlp.softmax", "fusion.fuse_features", "fusion.ensemble.posterior_batch"):
        out[f"{name}.self_ms"] = ms(get(name).self_s)
    # command wall time that no library layer below the CLI accounts for
    wall = sum(w for _, w, _ in commands)
    below_cli = sum(s.self_s for name, s in merged.items() if name != "cli")
    out["unattributed_ms"] = ms(wall - below_cli)
    return out


def unit(metric: str) -> str:
    if metric.endswith(("ms", "_p50", "_p99")):
        return "ms"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(".share"):
        return "ratio"
    if metric.endswith(".delta"):
        return "samples/s"
    return "count"
