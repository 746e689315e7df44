"""The classifier composition: sigmoid towers under one head, and ensembles.

The paper's three model families are one shape: sigmoid towers, each
reading one modality, under a softmax-type head. ``Classifier`` is that one
implementation; the kind table ``KINDS`` says, per kind, which towers it
has, which head, which parameters stay frozen and how its model file
header reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import FlatArrays, ShapeError
from .mlp import (
    DEFAULT_INIT_SCALE,
    MlpTower,
    TowerGradients,
    backward,
    forward,
    log_likelihoods,
    softmax,
    target_delta,
)

# parameter-name prefixes of the softmax head's two blocks
TOP = "top"
OUT = "out"


def stack_names(prefix: str, num_layers: int) -> list[str]:
    """Parameter names ``prefix.W0, prefix.b0, prefix.W1, ...`` of a sigmoid stack."""
    return [f"{prefix}.{p}{l}" for l in range(num_layers) for p in "Wb"]


def stack_arrays(stack) -> list[np.ndarray]:
    """W0, b0, W1, ... of a tower or of its gradients, in ``stack_names`` order."""
    return [a for pair in zip(stack.weights, stack.biases) for a in pair]


def stack_gradients(arrays) -> TowerGradients:
    """Gradient buffers of a sigmoid stack, from W0, b0, W1, ... in
    ``stack_names`` order."""
    return TowerGradients(arrays[0::2], arrays[1::2], None)


def fuse_features(features) -> np.ndarray:
    """Concatenated tower features [v_a ; v_v] (rows for batched input)."""
    return np.concatenate(features, axis=-1)


@dataclass
class SoftmaxHead:
    """p = softmax(W^T f + b) on the concatenated tower features f, or on the
    output of a sigmoid ``top`` stack over them."""

    weights: np.ndarray  # (K, C)
    bias: np.ndarray     # (C,)
    top: Optional[MlpTower] = None

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"softmax head shapes disagree: W {self.weights.shape} b {self.bias.shape}"
            )
        self._top_names = []
        if self.top is not None:
            if self.top.feature_dim != self.weights.shape[0]:
                raise ShapeError(
                    f"output layer input {self.weights.shape[0]} does not match top "
                    f"feature dim {self.top.feature_dim}"
                )
            self._top_names = stack_names(TOP, self.top.num_layers)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1]

    def check_features(self, dims) -> None:
        expected = self.weights.shape[0] if self.top is None else self.top.input_dim
        if sum(dims) != expected:
            raise ShapeError(f"head input {expected} does not match fused dim {sum(dims)}")

    def param_arrays(self) -> dict[str, np.ndarray]:
        named = dict(zip(self._top_names, stack_arrays(self.top))) if self.top is not None else {}
        named[f"{OUT}.W"] = self.weights
        named[f"{OUT}.b"] = self.bias
        return named

    def bind(self, arrays) -> None:
        """Point the parameters at ``arrays``, keyed as in ``param_arrays``."""
        if self.top is not None:
            top = [arrays[name] for name in self._top_names]
            self.top.weights, self.top.biases = top[0::2], top[1::2]
        self.weights = arrays[f"{OUT}.W"]
        self.bias = arrays[f"{OUT}.b"]

    def _forward(self, features):
        """(top trace or None, features under W, probabilities)."""
        feats = fuse_features(features)
        trace = forward(self.top, feats) if self.top is not None else None
        if trace is not None:
            feats = trace.features
        logits = feats @ self.weights
        logits += self.bias
        return trace, feats, softmax(logits, out=logits)

    def probabilities(self, features) -> np.ndarray:
        return self._forward(features)[2]

    def gradients(self, features, targets, scale: float, out=None, input_delta: bool = True):
        """(probs, gradients by parameter name, error signal for each tower),
        with gradients summed over the batch rows times ``scale`` and written
        into the arrays of ``out`` when given. Without ``input_delta`` the
        error signals are None and the projections that form them are skipped."""
        trace, feats, probs = self._forward(features)
        grads = out if out is not None else {
            name: np.empty(arr.shape) for name, arr in self.param_arrays().items()}
        delta = target_delta(probs, targets, scale)
        np.matmul(feats.T, delta, out=grads[f"{OUT}.W"])
        np.add.reduce(delta, axis=0, out=grads[f"{OUT}.b"])
        if trace is not None:
            top = stack_gradients([grads[name] for name in self._top_names])
            delta = backward(self.top, trace, delta @ self.weights.T, top,
                             input_delta).delta_input
        elif input_delta:
            delta = delta @ self.weights.T
        if not input_delta:
            return probs, grads, [None] * len(features)
        cuts = np.cumsum([f.shape[-1] for f in features])[:-1]
        return probs, grads, np.split(delta, cuts, axis=-1)


def init_softmax_head(input_dim: int, num_classes: int, seed,
                      scale: float = DEFAULT_INIT_SCALE,
                      top: Optional[MlpTower] = None) -> SoftmaxHead:
    """Seeded uniform [-scale, scale] weights, zero biases; ``input_dim`` is
    the width of the features under W."""
    rng = np.random.default_rng(seed)
    return SoftmaxHead(rng.uniform(-scale, scale, size=(input_dim, num_classes)),
                       np.zeros(num_classes), top)


class Classifier:
    """Sigmoid towers, each reading input slot 0 (x1) or 1 (x2), under one head.

    Every parameter array is a view into one float64 vector, laid out in
    ``params()`` order, which is the payload order of the model file; the
    towers and the head are rebound to these views at construction. That
    vector is ``params`` when the towers and the head already hold its
    views in that order (``load_model`` builds them so), else a copy. The
    gradients live in a second vector with the same layout, allocated by
    the first ``loglik_and_grads`` after construction or after
    ``release_gradients``.

    Parameters named in ``frozen`` take no updates; ``loglik_and_grads``
    back-propagates only into towers that have a trainable parameter.
    ``frozen`` may be reassigned at any time.

    ``tree`` is the label tree the posteriors use (a factored-shared head's),
    else None.
    """

    kind = ""

    def __init__(self, towers, head, inputs=None, frozen=None, seed: int = 0, arch: str = "",
                 params: Optional[FlatArrays] = None):
        spec = KINDS[self.kind]
        self.towers = list(towers)
        self.inputs = spec.inputs if inputs is None else tuple(inputs)
        if not set(self.inputs) <= {0, 1}:
            raise ValueError(f"input slots must be 0 or 1, got {self.inputs}")
        head.check_features([t.feature_dim for t in self.towers])
        self.head = head
        self.tree = getattr(head, "shared_tree", None)
        self.seed = seed
        self.arch = arch
        for name, tower in zip(spec.towers, self.towers):
            setattr(self, name, tower)  # model.tower, model.tower_a, model.tower1, ...
        self._tower_names = [stack_names(name, tower.num_layers)
                             for name, tower in zip(spec.towers, self.towers)]
        self._head_names = {k: spec.head_prefix + k for k in head.param_arrays()}
        self._project = tuple(n for n in spec.project if n in self._head_names.values())
        named: dict[str, np.ndarray] = {}
        for names, tower in zip(self._tower_names, self.towers):
            named.update(zip(names, stack_arrays(tower)))
        for name, arr in head.param_arrays().items():
            named[self._head_names[name]] = arr
        self._params = FlatArrays.of(named, params)
        for names, tower in zip(self._tower_names, self.towers):
            views = [self._params[n] for n in names]
            tower.weights, tower.biases = views[0::2], views[1::2]
        head.bind({k: self._params[name] for k, name in self._head_names.items()})
        self._grads: Optional[FlatArrays] = None  # made by the first loglik_and_grads
        if frozen is None:
            frozen = [n for names in self._tower_names for n in names] if spec.frozen else ()
        self.frozen = frozen

    @property
    def frozen(self) -> frozenset:
        return self._frozen

    @frozen.setter
    def frozen(self, names) -> None:
        self._frozen = frozenset(names)
        self._trainable = self._params.select(n for n in self._params if n not in self._frozen)
        self._grad_views = None

    def _gradient_views(self):
        """(the head's gradient arrays, each tower's gradients or None when
        all its parameters are frozen, the mapping ``loglik_and_grads`` returns)."""
        if self._grads is None:
            self._grads = self._params.zeros_like()
        towers = [None if self._frozen.issuperset(names)
                  else stack_gradients([self._grads[n] for n in names])
                  for names in self._tower_names]
        returned = [n for names, out in zip(self._tower_names, towers) if out is not None
                    for n in names]
        return ({k: self._grads[name] for k, name in self._head_names.items()}, towers,
                self._grads.select(returned + list(self._head_names.values())))

    def release_gradients(self) -> None:
        """Drop the gradient vector and the views of it; the next
        ``loglik_and_grads`` allocates a new one. A mapping an earlier call
        returned keeps the old vector alive while it is referenced."""
        self._grads = self._grad_views = None

    @property
    def num_classes(self) -> int:
        return self.head.num_classes

    def _traces(self, x1, x2):
        xs = (x1, x2)
        return [forward(tower, xs[slot]) for tower, slot in zip(self.towers, self.inputs)]

    def posterior_batch(self, x1, x2) -> np.ndarray:
        """Class posteriors (B, C) of the input rows, in a fresh array that the
        caller owns and may write into."""
        return self.head.probabilities([tr.features for tr in self._traces(x1, x2)])

    def params(self) -> FlatArrays:
        """Every parameter array, as views of the model's parameter vector."""
        return self._params

    def trainable_params(self) -> FlatArrays:
        """The parameters not in ``frozen``, over the same vector."""
        return self._trainable

    def project_names(self) -> tuple[str, ...]:
        return self._project

    def loglik_and_grads(self, x1, x2, targets):
        """Mean log-likelihood over the batch and its gradient for every
        parameter of the head and of each tower that has a trainable one.

        The gradients are views of the model's gradient vector, which every
        call overwrites: copy them to keep them past the next call.
        """
        if self._grad_views is None:
            self._grad_views = self._gradient_views()
        head_grads, tower_grads, grads = self._grad_views
        targets = np.asarray(targets)
        traces = self._traces(x1, x2)
        probs, _, errors = self.head.gradients(
            [tr.features for tr in traces], targets, 1.0 / targets.shape[0], head_grads,
            input_delta=any(out is not None for out in tower_grads),
        )
        for tower, trace, delta, out in zip(self.towers, traces, errors, tower_grads):
            if out is not None:
                backward(tower, trace, delta, out, input_delta=False)
        return float(np.add.reduce(log_likelihoods(probs, targets)) / targets.shape[0]), grads


class UnimodalClassifier(Classifier):
    """One tower under the softmax head, reading a single modality."""

    kind = "unimodal"


class FusedClassifier(Classifier):
    """Two frozen towers under the softmax head on their fused features."""

    kind = "fused"


class BilinearClassifier(Classifier):
    """Two towers trained jointly under a bilinear softmax head."""

    kind = "bilinear"


@dataclass(frozen=True)
class Kind:
    """One row of the kind table."""

    cls: type
    towers: tuple[str, ...]          # parameter prefix of each tower
    inputs: tuple[int, ...]          # default input slot of each tower
    dims: tuple[str, ...]            # header field with each tower's layer dims
    head: str                        # "softmax" (SoftmaxHead) or "bilinear" (BilinearHead)
    fields: tuple[str, ...]          # header fields after kind, classes, seed and arch
    head_prefix: str = ""            # prefix of the head's parameter names
    frozen: bool = False             # towers take no updates by default
    project: tuple[str, ...] = ()    # rescaled onto the lambda-ball after each step


KINDS = {
    "unimodal": Kind(UnimodalClassifier, towers=("tower",), inputs=(0,), dims=("dims",),
                     head="softmax", fields=("modality", "dims")),
    "fused": Kind(FusedClassifier, towers=("tower_a", "tower_v"), inputs=(0, 1),
                  dims=("dims_a", "dims_v"), head="softmax",
                  fields=("dims_a", "dims_v", "top_dims"), frozen=True),
    "bilinear": Kind(BilinearClassifier, towers=("tower1", "tower2"), inputs=(0, 1),
                     dims=("dims_a", "dims_v"), head="bilinear",
                     fields=("variant", "dims_a", "dims_v", "fused_dim", "lambda", "groups",
                             "group_of"),
                     head_prefix="head.", project=("head.U1", "head.U2")),
}


class Ensemble:
    """Fixed-order posterior average over classifiers sharing the same leaves
    and, among those whose posteriors use one, the same label tree: ``tree``,
    which is None when no member uses one.

    A member's ``posterior_batch`` returns a fresh array the caller owns, but
    the ensemble never writes into one: it sums the members' posteriors, in
    member order, into one leaf-width accumulator of its own, so a read
    holds that accumulator and one member's posterior at a time.
    """

    kind = "ensemble"

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        c = members[0].num_classes
        trees = []
        for i, m in enumerate(members):
            if m.num_classes != c:
                raise ShapeError(
                    f"member {i} has {m.num_classes} classes, expected {c}"
                )
            tree = getattr(m, "tree", None)
            if tree is not None:
                trees.append(tree)
        if any(t != trees[0] for t in trees[1:]):
            raise ValueError("ensemble members disagree on the label tree")
        self.members = members
        self.tree = trees[0] if trees else None

    @property
    def num_classes(self) -> int:
        return self.members[0].num_classes

    def posterior_batch(self, x1, x2) -> np.ndarray:
        """Mean member posterior, renormalised per row; bit-identical to
        ``np.stack(posteriors).mean(axis=0)`` followed by the division."""
        members = iter(self.members)
        total = np.array(next(members).posterior_batch(x1, x2), dtype=np.float64)
        for m in members:
            total += m.posterior_batch(x1, x2)
        total /= len(self.members)
        total /= total.sum(axis=-1, keepdims=True)
        return total

    def posterior(self, x1, x2) -> np.ndarray:
        return self.posterior_batch(np.atleast_2d(x1), np.atleast_2d(x2))[0]
