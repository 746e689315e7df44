"""Workloads of the bimodalnet benchmark: seeded inputs, the CLI command
cycle each one times, and the checks on the commands' outputs.

Every workload runs the same cycle through ``bimodalnet.cli.main`` with the
argv a user would type: ``train`` a factored-shared bilinear model, then
``eval`` it and ``ensemble`` it with three members written at set-up (one
factored bilinear, one fused with a sigmoid top, one unimodal audio), so each
classifier class is read. The workloads differ in scale and in how the cycle
splits its time between training and reading:

- train-small: the planted benchmark task (d=20/20, C=8, G=4); the whole
  model fits in L1, so Python dispatch dominates. Has a quality target.
- train-paper: the paper's shapes (towers 360-500-200 and 540-500-200,
  F=200, C=1328 leaves in G=42 groups); BLAS-bound training, throughput only.
- eval-paper: the paper's shapes, a short training run and long reads of a
  large test split: forward passes, loaders and the ensemble dominate.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Optional

import numpy as np

from bimodalnet import cli
from bimodalnet.bilinear import FACTORED, FACTORED_SHARED, LabelTree
from bimodalnet.data import (
    Dataset,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from bimodalnet.fusion import Ensemble
from bimodalnet.training import TrainConfig, build_model, evaluate

BATCH = 32
COMMANDS = ("train", "eval", "ensemble")


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    groups: int
    planted: bool             # planted-interaction task, else Gaussian noise
    n_train: int
    n_test: int
    epochs: int
    learning_rate: float
    lam: float
    init_scale: float
    train_with_test: bool     # pass --test-data to train (two evaluated splits)
    reads_per_cycle: int      # eval and ensemble commands after each train
    max_test_leaf_error: Optional[float]  # quality target on the final test record

    @property
    def dims(self):
        dims_a, dims_v, fused_dim = cli.parse_arch(self.arch)
        return dims_a[:-1], dims_v[:-1], fused_dim, dims_a[-1]

    @property
    def train_samples(self) -> int:
        return self.epochs * self.n_train

    @property
    def sgd_steps(self) -> int:
        return self.epochs * math.ceil(self.n_train / BATCH)

    @property
    def evaluate_calls(self) -> int:
        return (self.epochs + 1) * (2 if self.train_with_test else 1)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train-small", "[20,16,8 | 20,16,8 | F=16]", groups=4, planted=True,
            n_train=10000, n_test=2000,
            epochs=20, learning_rate=0.15, lam=8.0, init_scale=0.5,
            train_with_test=True, reads_per_cycle=8,
            # chance is 0.875; the run reaches 0.13-0.19 on seeds 1-12
            max_test_leaf_error=0.30,
        ),
        Workload(
            "train-paper", "[360,500,200,1328 | 540,500,200,1328 | F=200]",
            groups=42, planted=False, n_train=2048, n_test=512, epochs=1,
            learning_rate=0.1, lam=8.0,
            init_scale=0.05, train_with_test=False, reads_per_cycle=1,
            max_test_leaf_error=None,
        ),
        Workload(
            "eval-paper", "[360,500,200,1328 | 540,500,200,1328 | F=200]",
            groups=42, planted=False, n_train=512, n_test=4096, epochs=1,
            learning_rate=0.1, lam=8.0,
            init_scale=0.05, train_with_test=False, reads_per_cycle=1,
            max_test_leaf_error=None,
        ),
    )
}


def paths(workdir: str) -> dict[str, str]:
    names = ("train", "test", "trained", "factored", "fused", "audio", "check")
    return {n: os.path.join(workdir, f"{n}.bin") for n in names}


def paper_tree(num_leaves: int, num_groups: int) -> LabelTree:
    """Contiguous groups of near-equal size (31-32 leaves for 1328 / 42)."""
    return LabelTree(np.arange(num_leaves) * num_groups // num_leaves, num_groups)


def make_datasets(w: Workload, seed: int):
    dims_a, dims_v, _, classes = w.dims
    if w.planted:
        spec = SynthSpec(d1=dims_a[0], d2=dims_v[0], num_classes=classes, num_groups=w.groups,
                         n_train=w.n_train, n_test=w.n_test, noise_std=0.1,
                         interaction_rank=2, seed=seed)
        return generate_synthetic(spec)
    # generate_synthetic builds balanced trees only, and 42 does not divide 1328
    rng = np.random.default_rng(seed)
    tree = paper_tree(classes, w.groups)

    def split(n, name):
        return Dataset(rng.standard_normal((n, dims_a[0])), rng.standard_normal((n, dims_v[0])),
                       rng.integers(0, classes, size=n), tree, name)

    return split(w.n_train, "train"), split(w.n_test, "test")


def member_configs(w: Workload, seed: int):
    dims_a, dims_v, fused_dim, _ = w.dims
    common = dict(dims_a=dims_a, dims_v=dims_v, init_scale=w.init_scale, arch=w.arch)
    return {
        "factored": TrainConfig(mode="bilinear", variant=FACTORED, fused_dim=fused_dim,
                                seed=seed + 1, **common),
        "fused": TrainConfig(mode="fused", fusion_top=(fused_dim,), seed=seed + 2, **common),
        "audio": TrainConfig(mode="audio", seed=seed + 3, **common),
    }


def setup(w: Workload, seed: int, workdir: str) -> float:
    """Write the datasets and the three fixed ensemble members; returns seconds."""
    start = time.perf_counter()
    p = paths(workdir)
    train, test = make_datasets(w, seed)
    save_dataset(train, p["train"])
    save_dataset(test, p["test"])
    for name, config in member_configs(w, seed).items():
        model = build_model(config, train.d1, train.d2, train.num_classes, train.tree)
        save_model(model, p[name])
    return time.perf_counter() - start


def cycle(w: Workload, seed: int, workdir: str):
    """[(kind, argv, samples)] for one pass: train, then eval and ensemble reads."""
    p = paths(workdir)
    train = ["train", "--data", p["train"]]
    if w.train_with_test:
        train += ["--test-data", p["test"]]
    train += ["--mode", "bilinear", "--variant", FACTORED_SHARED, "--arch", w.arch,
              "--minibatch-size", str(BATCH), "--epochs", str(w.epochs),
              "--lr", repr(w.learning_rate), "--lam", repr(w.lam),
              "--init-scale", repr(w.init_scale), "--seed", str(seed), "--out", p["trained"]]
    reads = [
        ("eval", ["eval", "--model", p["trained"], "--data", p["test"]], w.n_test),
        ("ensemble", ["ensemble", p["trained"], p["factored"], p["fused"], p["audio"],
                      "--data", p["test"]], w.n_test),
    ]
    return [("train", train, w.train_samples)] + reads * w.reads_per_cycle


@dataclass
class CommandResult:
    kind: str
    seconds: float
    samples: int
    exit_code: Optional[int]
    record: Optional[dict]
    model_sha256: Optional[str] = None
    error: str = ""

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.seconds


def run_command(kind: str, argv: list, samples: int, trained_path: str) -> CommandResult:
    """Run one CLI command in-process; the timed part is ``cli.main`` alone."""
    out = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation; keep measuring the rest
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    lines = out.getvalue().strip().splitlines()
    record = None
    if code == 0 and lines:
        record = json.loads(lines[-1])
    result = CommandResult(kind, seconds, samples, code, record, error=error)
    if kind == "train" and code == 0:
        with open(trained_path, "rb") as fh:
            result.model_sha256 = hashlib.sha256(fh.read()).hexdigest()
    return result


def _eval_record(model, dataset, **extra) -> dict:
    record = {"split": dataset.split, "n": dataset.n, **extra}
    record.update(evaluate(model, dataset).record(0, dataset.split))
    del record["epoch"]
    return json.loads(json.dumps(record))


def check(w: Workload, workdir: str, results: list) -> list[str]:
    """Mark failed commands in place (``error``) and return what failed.

    - every command exits 0;
    - every train writes the same model bytes (same seed, same data), its
      final record is of the last epoch with a finite NLL and, where the
      workload has a quality target, a test leaf error below it;
    - the saved model reloads and re-saves to identical bytes;
    - every eval and ensemble record equals an in-process ``evaluate`` of the
      same members on the same data, bit for bit.
    """
    p = paths(workdir)
    problems: list[str] = []

    def fail(result, message):
        result.error = result.error or message
        problems.append(f"{result.kind}: {message}")

    for r in results:
        if r.exit_code != 0:
            fail(r, f"exit code {r.exit_code}")
    trains = [r for r in results if r.kind == "train" and r.exit_code == 0]
    if not trains:
        return problems
    digest = trains[0].model_sha256
    model = load_model(p["trained"])
    save_model(model, p["check"])
    with open(p["trained"], "rb") as a, open(p["check"], "rb") as b:
        reloads = a.read() == b.read()
    test = load_dataset(p["test"])
    for r in trains:
        last = r.record or {}
        if r.model_sha256 != digest:
            fail(r, "model bytes differ from the first train of the run")
        elif not reloads:
            fail(r, "saved model does not reload to identical arrays")
        elif last.get("epoch") != w.epochs:
            fail(r, f"final record is not of epoch {w.epochs}: {last}")
        elif "nll" not in last or not math.isfinite(last["nll"]):
            fail(r, f"final record has no finite NLL: {last}")
        elif w.max_test_leaf_error is not None and not (
                last.get("split") == "test" and last["leaf_error"] < w.max_test_leaf_error):
            fail(r, f"final test leaf error not below {w.max_test_leaf_error}: {last}")
    members = [model] + [load_model(p[n]) for n in ("factored", "fused", "audio")]
    expected = {
        "eval": _eval_record(model, test),
        "ensemble": _eval_record(Ensemble(members), test, members=len(members)),
    }
    for r in results:
        if r.kind in expected and r.exit_code == 0 and r.record != expected[r.kind]:
            fail(r, f"record {r.record} differs from in-process {expected[r.kind]}")
    return problems


def trainable_bytes(workdir: str) -> int:
    model = load_model(paths(workdir)["trained"])
    return sum(a.nbytes for a in model.trainable_params().values())
