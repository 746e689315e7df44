"""Span wiring of the traced benchmark run.

The tracer must wrap every binding the callers resolve (modules import
functions by name), put every original back afterwards, and fire each span
with exact counts on every workload.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from bimodalnet import bilinear, cli, fusion, mlp, training  # noqa: E402

# call sites that resolve a function through another module's namespace
REBOUND = [
    (bilinear, "forward", mlp.forward),
    (bilinear, "backward", mlp.backward),
    (fusion, "forward", mlp.forward),
    (fusion, "backward", mlp.backward),
    (cli, "evaluate", training.evaluate),
    (cli, "train_model", training.train_model),
    (training, "evaluate", training.evaluate),
]


def test_tracer_rebinds_every_binding_and_restores_originals():
    originals = [spans.resolve(module, attr) for _, module, attr, _ in spans.SPANS]
    with spans.Tracer():
        for module, attr, original in REBOUND:
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
        for owner, key, original in originals:
            assert getattr(owner, key).__wrapped__ is original
            assert spans.bindings(original) == []
    for module, attr, original in REBOUND:
        assert getattr(module, attr) is original
    for owner, key, original in originals:
        assert vars(owner)[key] is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_span_fires_with_exact_counts(name, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], reads_per_cycle=1)
    workdir = str(tmp_path)
    seed = 3
    workloads.setup(w, seed, workdir)
    trained = workloads.paths(workdir)["trained"]
    tracer = spans.Tracer()
    results, commands = [], []
    with tracer:
        for kind, argv, samples in workloads.cycle(w, seed, workdir):
            tracer.table = {}
            results.append(workloads.run_command(kind, argv, samples, trained))
            commands.append((kind, results[-1].seconds, tracer.table))
    assert workloads.check(w, workdir, results) == []

    train = commands[0][2]
    assert train["training.sgd_step"].calls == w.sgd_steps
    assert train["training.evaluate"].calls == w.evaluate_calls
    assert train["bilinear.grads_batch"].calls == w.sgd_steps
    for _, _, reads in commands[1:]:
        assert reads["training.evaluate"].calls == 1
        assert "training.sgd_step" not in reads
    fired = set().union(*(table for _, _, table in commands))
    assert fired == {span for span, *_ in spans.SPANS}

    metrics = spans.layer_metrics(commands)
    assert metrics["training.sgd_step.calls"] == w.sgd_steps
    assert metrics["training.evaluate.calls"] == w.evaluate_calls + 2
    assert metrics["training.sgd_step.param_bytes"] == (
        3 * w.sgd_steps * workloads.trainable_bytes(workdir))

    # the benchmark declares exactly the per-layer metrics the traced run prints
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    printed = set(metrics) | set(spans.latency_metrics(commands)) | {
        f"tracing.{kind}_samples_per_s.delta" for kind in workloads.COMMANDS}
    assert {name: spans.unit(name) for name in printed} == declared
