"""Objective, SGD with ascent updates and Frobenius projection, joint training,
gradient checking, and evaluation metrics.

The objective throughout is the mean log-likelihood

    E = (1/N) sum_i log p(y_i | x1_i, x2_i),

a negative quantity that training *ascends* (theta <- theta + eta dE/dtheta);
the reported metric is its negation NLL = -E. After every step the factored
heads' U1, U2 are rescaled onto the Frobenius ball of radius lambda.
"""

from __future__ import annotations

import logging
import math
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bilinear import FACTORED_SHARED, FULL, VARIANTS, LabelTree, check_lam
from .data import Dataset, DatasetFile
from .fusion import OUT, Classifier, ModelSpec, part_views
from . import linalg
from .linalg import FlatArrays, first_nonfinite, frobenius_project, lanes_open, row_blocks
from .mlp import init_params, log_likelihoods

logger = logging.getLogger("bimodalnet.training")

EVAL_CHUNK = 1024

# Largest (rows, C) float64 array of one evaluation block: 74 rows at the
# paper's C=1328. The cap trades two costs: every block's GEMMs re-pack the
# weight matrices (about 10 MB per paper-shape bilinear model), so small
# blocks pay more packing, while large blocks hold more leaf-width arrays,
# and a read on two lanes holds two blocks at once (``evaluate``). Reading a
# paper-shape bilinear model and a 4-member ensemble over 4,096 in-memory
# rows (C=1328, 2-core VM, medians of 8 reads, which moved by up to 15%
# between sweeps), caps of 0.75, 1, 2 and 4 MiB took 140, 142, 149 and 182 ms
# (model) and 514, 454, 413 and 471 ms (ensemble) on two lanes, and 234, 231,
# 220 and 258 ms and 793, 767, 781 and 791 ms on one; 0.5 MiB was 2-11%
# slower than 0.75 MiB in every read. Two 4 MiB blocks in flight raised
# eval-paper's peak RSS from 88.3 to 100.0 MiB; two 0.75 MiB blocks lower it
# to 82.0 MiB, below one 4 MiB block's.
EVAL_BLOCK_BYTES = 3 << 18

# entries per piece of the SGD update: its 256 KB of scratch stays in L2
STEP_CHUNK = 1 << 15

MODES = ("audio", "visual", "fused", "bilinear")

# fixed seed-stream slots so every component draws from its own child stream
_SEED_TOWER_A = 0
_SEED_TOWER_V = 1
_SEED_HEAD = 2
_SEED_TOP = 3
_SEED_OUT = 4
_SEED_SHUFFLE = 5


class DivergenceError(ValueError):
    """A training step produced a non-finite gradient."""


def _child_seed(seed: int, slot: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), slot])


@dataclass
class TrainConfig:
    mode: str = "bilinear"
    variant: str = FACTORED_SHARED
    dims_a: tuple[int, ...] = ()       # tower layer dims (input..final hidden)
    dims_v: tuple[int, ...] = ()
    fused_dim: int = 0                 # F, factored variants only
    fusion_top: tuple[int, ...] = ()   # hidden dims of the fused top; () = softmax only
    arch: str = ""                     # original bracketed notation, informational
    learning_rate: float = 0.1
    epochs: int = 10
    minibatch_size: int = 32
    init_scale: float = 0.05
    seed: int = 0
    lam: float = 2.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        # 0 is allowed so a run can be replayed as a no-op (projection still applies)
        for name in ("learning_rate", "init_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        self.lam = check_lam(self.lam)
        if self.minibatch_size < 1:
            raise ValueError(f"minibatch_size must be >= 1, got {self.minibatch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        self.dims_a = tuple(int(d) for d in self.dims_a)
        self.dims_v = tuple(int(d) for d in self.dims_v)
        self.fusion_top = tuple(int(d) for d in self.fusion_top)


@dataclass
class Metrics:
    leaf_error: float
    group_error: float
    nll: float

    def record(self, epoch: int, split: str) -> dict:
        return {
            "epoch": epoch,
            "split": split,
            "leaf_error": self.leaf_error,
            "group_error": self.group_error,
            "nll": self.nll,
        }


def sgd_step(params: FlatArrays, grads, learning_rate: float, lam: float,
             project: tuple[str, ...] = ()) -> FlatArrays:
    """In-place ascent update of every parameter, then Frobenius projection
    of the named matrices onto the ball of radius lam.

    ``params`` are views of one parameter vector, such as
    ``Classifier.trainable_params()``; ``grads`` maps each of their names to
    its gradient. The update is one scaled add per run of parameters that
    lie back to back in the vector, read straight from the gradient vector
    when ``grads`` has the same layout; when lanes are open for half the
    entries of those runs, their two halves are updated on two lanes.

    Raises DivergenceError, naming the parameter, on a non-finite gradient;
    every gradient is checked (``linalg.first_nonfinite``) before any
    parameter moves.
    """
    if not isinstance(params, FlatArrays):
        raise TypeError(f"params must be FlatArrays, got {type(params).__name__}")
    p, g = params.flat, params.aligned(grads)
    for start, stop in params.runs:
        k = first_nonfinite(g[start:stop])
        if k >= 0:
            name = next(n for n in params if params.layout[n][1] > start + k)
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
    if lanes_open(sum(stop - start for start, stop in params.runs) // 2):
        first, second = _halves(params.runs)
        linalg.both(_scaled_add, (p, g, learning_rate, first),
                    _scaled_add, (p, g, learning_rate, second))
    else:
        _scaled_add(p, g, learning_rate, params.runs)
    for name in project:
        if name in params:
            frobenius_project(params[name], lam)
    return params


def _scaled_add(p, g, learning_rate: float, runs) -> None:
    """p += learning_rate * g over the ``[start, stop)`` runs of entries,
    ``STEP_CHUNK`` entries at a time through one scratch array."""
    scratch = np.empty(min(STEP_CHUNK, p.size))
    for start, stop in runs:
        for lo in range(start, stop, STEP_CHUNK):
            hi = min(lo + STEP_CHUNK, stop)
            piece = p[lo:hi]
            piece += np.multiply(g[lo:hi], learning_rate, out=scratch[:hi - lo])


def _halves(runs) -> tuple[list, list]:
    """The ``[start, stop)`` runs split into two lists that cover the same
    entries in order, the first holding half of them, rounded down."""
    left = sum(stop - start for start, stop in runs) // 2
    first, second = [], []
    for start, stop in runs:
        cut = start + min(left, stop - start)
        left -= cut - start
        if cut > start:
            first.append((start, cut))
        if stop > cut:
            second.append((cut, stop))
    return first, second


def eval_rows(num_classes: int) -> int:
    """Most rows of one evaluation block at ``num_classes`` leaves."""
    return max(1, min(EVAL_CHUNK, EVAL_BLOCK_BYTES // (8 * num_classes)))


@linalg.one_blas_thread()
def evaluate(model, dataset: Dataset | DatasetFile) -> Metrics:
    """Leaf/group argmax error rates (ties to the lowest index) and NLL.

    The dataset must have the model's class count and, when the model's
    posteriors use a label tree (``model.tree``), that tree; the group error
    is taken under the dataset's tree. The rows are read through
    ``dataset.rows`` in ``row_blocks`` of at most ``eval_rows(C)``, and the
    per-row log-likelihoods are summed once, so the metrics do not depend on
    the split wherever the posteriors do not.

    When lanes open for a block's rows times its head's ``leaf_row_work``
    (the multiply-adds per row of its leaf-width product; for an ensemble,
    the least of its members' heads), the blocks run in pairs: block 2j on the
    calling thread and block 2j+1 on the lane worker (``linalg.both``),
    each read beforehand on this thread, in block order, block 2j+1 into
    the dataset's second buffer pair; a last block without a partner runs
    alone. Each block runs the same code on either thread and writes its
    own rows of the per-row log-likelihoods, so the metrics are those of
    one lane, bit for bit. A read of an open dataset file holds one block
    of features, or a pair.
    """
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.num_classes != model.num_classes:
        raise ValueError(
            f"dataset has {dataset.num_classes} classes, model {model.num_classes}"
        )
    tree = getattr(model, "tree", None)
    if tree is not None and tree != dataset.tree:
        raise ValueError(
            f"dataset's label tree ({dataset.tree.num_groups} groups) differs from "
            f"the model's ({tree.num_groups} groups)"
        )
    group_targets = dataset.tree.group_of[dataset.y]
    log_liks = np.empty(dataset.n)

    def block(start, stop, x1, x2) -> tuple[int, int]:
        """(leaf errors, group errors) of rows ``[start, stop)``, whose
        features are x1, x2; their log-likelihoods go into ``log_liks``."""
        probs = model.posterior_batch(x1, x2)
        y = dataset.y[start:stop]
        leaf_wrong = int((np.argmax(probs, axis=1) != y).sum())
        group_probs = dataset.tree.group_sums(probs)
        group_wrong = int((np.argmax(group_probs, axis=1) != group_targets[start:stop]).sum())
        log_liks[start:stop] = log_likelihoods(probs, y)
        return leaf_wrong, group_wrong

    blocks = row_blocks(dataset.n, eval_rows(model.num_classes))
    # the smallest block's rows, n // k, times the least head's leaf-width work
    row_work = min(m.head.leaf_row_work for m in getattr(model, "members", [model]))
    pairs = len(blocks) // 2 if lanes_open(dataset.n // len(blocks) * row_work) else 0
    counts = []
    for j in range(pairs):
        (a, b), (c, d) = blocks[2 * j], blocks[2 * j + 1]
        counts += linalg.both(block, (a, b, *dataset.rows(a, b)),
                              block, (c, d, *dataset.rows(c, d, 1)))
    for start, stop in blocks[2 * pairs:]:
        counts.append(block(start, stop, *dataset.rows(start, stop)))
    return Metrics(
        leaf_error=sum(leaf for leaf, _ in counts) / dataset.n,
        group_error=sum(group for _, group in counts) / dataset.n,
        nll=-np.add.reduce(log_liks) / dataset.n,
    )


def build_model(config: TrainConfig, d1: int, d2: int, num_classes: int,
                tree: Optional[LabelTree] = None, warm_towers=None):
    """Construct the model a config describes, seeded deterministically.

    ``warm_towers`` optionally supplies pre-trained (tower_a, tower_v) for
    the fused and bilinear modes; either entry may be None. The config, the
    data's dims and the warm towers give the model's spec, and the model's
    parameter vector is laid out from it (``ModelSpec.param_shapes``): each
    new part's arrays are drawn straight into their views of it by the init
    rule (``mlp.init_params``), each part from its own seed stream, and a
    warm tower's are copied in (the warm tower is only read), so no part
    array exists outside the vector.
    """
    unimodal = config.mode in ("audio", "visual")
    slots = ((0,) if config.mode == "audio" else (1,)) if unimodal else (0, 1)
    warm = (None, None) if unimodal or warm_towers is None else warm_towers
    tower_dims = []
    for slot in slots:
        field = ("dims_a", "dims_v")[slot]
        dims, expected = getattr(config, field), (d1, d2)[slot]
        if warm[slot] is not None:
            if warm[slot].input_dim != expected:
                raise ValueError(
                    f"warm-start tower expects input {warm[slot].input_dim}, "
                    f"dataset provides {expected}"
                )
            dims = warm[slot].layer_dims
        elif not dims:
            raise ValueError(f"mode {config.mode!r} needs the tower dims {field}")
        elif dims[0] != expected:
            raise ValueError(
                f"architecture input dim {dims[0]} does not match dataset dim {expected}"
            )
        tower_dims.append(tuple(dims))
    bilinear = config.mode == "bilinear"
    spec = ModelSpec(
        kind="bilinear" if bilinear else "unimodal" if unimodal else "fused",
        classes=int(num_classes), seed=config.seed, arch=config.arch, inputs=slots,
        dims=tuple(tower_dims), variant=config.variant if bilinear else None,
        fused_dim=config.fused_dim if bilinear and config.variant != FULL else None,
        lam=config.lam if bilinear else None, tree=tree if bilinear else None,
        top_dims=config.fusion_top if config.mode == "fused" else None,
    )
    params = FlatArrays.empty(spec.param_shapes())  # refuses dims that make no part
    *towers, head = part_views(spec, params)

    scale = config.init_scale
    for slot, view in zip(slots, towers):
        if warm[slot] is None:
            init_params(view, _child_seed(config.seed, (_SEED_TOWER_A, _SEED_TOWER_V)[slot]),
                        scale)
            continue
        for name, a in warm[slot].param_arrays().items():
            np.copyto(view[name], a)
    if bilinear:
        init_params(head, _child_seed(config.seed, _SEED_HEAD), scale)
    else:
        out = {name: head.pop(name) for name in (f"{OUT}.W", f"{OUT}.b")}
        init_params(head, _child_seed(config.seed, _SEED_TOP), scale)  # the top stack, if any
        init_params(out, _child_seed(config.seed, _SEED_OUT), scale)
    return Classifier(spec, params)


@linalg.one_blas_thread()
def train_model(model, config: TrainConfig, train_set: Dataset,
                eval_set: Optional[Dataset | DatasetFile] = None) -> list[dict]:
    """Minibatch SGD on a prebuilt model; returns the per-epoch metric records.

    Samples are reshuffled each epoch by the config's seeded PRNG; batch
    gradients are fixed-order means, so identical (config, dataset) runs are
    bit-identical. Divergence (non-finite E) aborts with the parameters
    rolled back to the last finished epoch. That epoch's parameters are
    written, before each epoch's first step, to an unlinked temporary file
    that is read back only on divergence: the process holds one parameter
    vector, and the copy's bytes sit in the page cache (or in tmpfs memory,
    when the temp directory is a tmpfs). A temp directory that cannot be
    written raises OSError before the first step. The model's gradient vector
    exists only while an epoch's steps run: it is released before each
    epoch's evaluation and when training stops. Both splits must match the
    model's classes and label tree (``evaluate`` checks them at epoch 0,
    before any step); ``eval_set`` is only evaluated, so it may be an open
    dataset file.
    """
    rng = np.random.default_rng(_child_seed(config.seed, _SEED_SHUFFLE))
    params = model.trainable_params()
    project = model.project_names()
    records: list[dict] = []

    def epoch_records(epoch: int):
        m = evaluate(model, train_set)
        recs = [m.record(epoch, train_set.split)]
        if eval_set is not None:
            recs.append(evaluate(model, eval_set).record(epoch, eval_set.split))
        return np.isfinite(m.nll), recs

    records.extend(epoch_records(0)[1])
    if not config.epochs:
        return records
    # The parameters of the last finished epoch, restored on divergence. The
    # file is unlinked and never mapped, so its bytes stay out of this
    # process's resident set; opening it here makes a temp directory that
    # cannot be written an OSError before the first step.
    with tempfile.TemporaryFile() as snapshot:
        for epoch in range(1, config.epochs + 1):
            snapshot.seek(0)
            snapshot.write(params.flat)
            order = rng.permutation(train_set.n)
            diverged = False
            for start in range(0, train_set.n, config.minibatch_size):
                idx = order[start:start + config.minibatch_size]
                loglik, grads = model.loglik_and_grads(
                    train_set.x1[idx], train_set.x2[idx], train_set.y[idx]
                )
                if not math.isfinite(loglik):
                    diverged = True
                    break
                try:
                    sgd_step(params, grads, config.learning_rate, config.lam, project)
                except DivergenceError:
                    diverged = True
                    break
            # the gradients are unused until the next epoch's first step, so the
            # evaluation below takes their pages instead of adding its own
            grads = None
            model.release_gradients()
            finite = False
            if not diverged:
                finite, recs = epoch_records(epoch)
            if diverged or not finite:
                snapshot.seek(0)
                read = snapshot.readinto(params.flat)
                if read != params.flat.nbytes:
                    raise OSError(f"rollback snapshot: read {read} of "
                                  f"{params.flat.nbytes} bytes")
                records.append({"epoch": epoch, "event": "diverged"})
                logger.warning("divergence at epoch %d; restored epoch %d parameters",
                               epoch, epoch - 1)
                break
            records.extend(recs)
    return records


def train_joint(config: TrainConfig, train_set: Dataset,
                eval_set: Optional[Dataset] = None, warm_towers=None):
    """Build the configured model and train it; returns (model, records)."""
    model = build_model(config, train_set.d1, train_set.d2,
                        train_set.num_classes, train_set.tree, warm_towers)
    records = train_model(model, config, train_set, eval_set)
    return model, records


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: tuple
    num_checked: int
    h: float

    def passed(self, threshold: float = 1e-5) -> bool:
        return self.max_rel_error < threshold


@linalg.one_blas_thread()
def grad_check(model, sample, h: float = 1e-5) -> GradCheckReport:
    """Central finite differences of E = log p(y | x1, x2) for one sample,
    against the model's analytic gradients, over every trainable parameter.
    A NaN error is the worst error, so the report fails."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h}")
    x1, x2, y = sample
    if not 0 <= int(y) < model.num_classes:
        raise ValueError(f"label {y} out of range [0, {model.num_classes})")
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    targets = np.asarray([int(y)])

    def objective() -> float:
        return float(log_likelihoods(model.posterior_batch(x1, x2), targets)[0])

    _, grads = model.loglik_and_grads(x1, x2, targets)
    worst = (0.0, "", ())
    checked = 0
    for name, arr in model.trainable_params().items():
        analytic = grads[name]
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            e_plus = objective()
            arr[idx] = orig - h
            e_minus = objective()
            arr[idx] = orig
            fd = (e_plus - e_minus) / (2.0 * h)
            rel = abs(analytic[idx] - fd) / max(1.0, abs(fd))
            if math.isnan(rel):
                rel = math.inf  # NaN compares false, so it would never be the worst
            checked += 1
            if rel > worst[0]:
                worst = (rel, name, idx)
    return GradCheckReport(worst[0], worst[1], worst[2], checked, h)
