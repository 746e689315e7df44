"""The classifier composition: sigmoid towers under one head, and ensembles.

The paper's three model families are one shape: sigmoid towers, each
reading one modality, under a softmax-type head. ``Classifier`` is that one
type, with no subclasses: its ``kind`` argument names a row of the kind
table ``KINDS``, which says which towers the kind has, which head, whether
its towers start frozen and how its model file header reads. A part is
built on its arrays by its ``from_arrays``, the inverse of ``param_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

import numpy as np

from .linalg import FlatArrays, ShapeError, leaf_pieces
from .mlp import (
    DEFAULT_INIT_SCALE,
    MlpTower,
    backward,
    forward,
    forward_features,
    init_arrays,
    layer_names,
    layer_shapes,
    log_likelihoods,
    softmax,
    target_delta,
)

# parameter-name prefixes of the softmax head's two blocks
TOP = "top"
OUT = "out"


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
        if self.top is not None and self.top.feature_dim != self.weights.shape[0]:
            raise ShapeError(
                f"output layer input {self.weights.shape[0]} does not match top "
                f"feature dim {self.top.feature_dim}"
            )

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1]

    def check_features(self, dims) -> None:
        expected = self.weights.shape[0] if self.top is None else self.top.input_dim
        if sum(dims) != expected:
            raise ShapeError(f"head input {expected} does not match fused dim {sum(dims)}")

    def param_arrays(self) -> dict[str, np.ndarray]:
        named = {} if self.top is None else {
            f"{TOP}.{k}": a for k, a in self.top.param_arrays().items()}
        named[f"{OUT}.W"] = self.weights
        named[f"{OUT}.b"] = self.bias
        return named

    @classmethod
    def from_arrays(cls, arrays, _finite: bool = False) -> "SoftmaxHead":
        """The head holding ``arrays`` themselves, keyed as in ``param_arrays``:
        a ``top`` stack when there are ``top.`` arrays, then W and b."""
        top = {k[len(TOP) + 1:]: a for k, a in arrays.items() if k.startswith(f"{TOP}.")}
        return cls(arrays[f"{OUT}.W"], arrays[f"{OUT}.b"],
                   MlpTower.from_arrays(top, _finite) if top else None)

    def _output(self, feats) -> np.ndarray:
        """softmax(feats W + b), formed in the one logits array."""
        logits = feats @ self.weights
        logits += self.bias
        return softmax(logits, out=logits)

    def _forward(self, features):
        """(top trace or None, features under W, probabilities)."""
        feats = fuse_features(features)
        trace = forward(self.top, feats) if self.top is not None else None
        if trace is not None:
            feats = trace.features
        return trace, feats, self._output(feats)

    def probabilities(self, features) -> np.ndarray:
        return self._forward(features)[2]

    def add_probabilities(self, features, total) -> None:
        """Add ``probabilities(features)`` into ``total`` (B, C), bit for bit,
        one ``leaf_pieces`` piece of rows at a time, so no (B, C) array is
        formed beside ``total``. Each piece's features are fused, and run
        through the top stack, on their own."""
        for start, stop in leaf_pieces(len(total), self.num_classes):
            feats = fuse_features([f[start:stop] for f in features])
            if self.top is not None:
                feats = forward_features(self.top, feats)
            piece = total[start:stop]
            piece += self._output(feats)

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
            top = [grads[f"{TOP}.{k}"] for k in layer_names(self.top.num_layers)]
            delta = backward(self.top, trace, delta @ self.weights.T, top,
                             input_delta).delta_input
        elif input_delta:
            delta = delta @ self.weights.T
        if not input_delta:
            return probs, grads, [None] * len(features)
        cuts = np.cumsum([f.shape[-1] for f in features])[:-1]
        return probs, grads, np.split(delta, cuts, axis=-1)


def softmax_head_shapes(input_dim: int, num_classes: int,
                        top_dims=None) -> dict[str, tuple[int, ...]]:
    """The shape of each array of a softmax head, by its ``param_arrays``
    name, in payload order: a ``top`` stack with layer dims ``top_dims``,
    when given, then W and b. ``input_dim`` is the width of the features
    under W."""
    shapes = {} if top_dims is None else {
        f"{TOP}.{k}": shape for k, shape in layer_shapes(top_dims).items()}
    shapes[f"{OUT}.W"] = (input_dim, num_classes)
    shapes[f"{OUT}.b"] = (num_classes,)
    return shapes


def init_softmax_head(input_dim: int, num_classes: int, seed,
                      scale: float = DEFAULT_INIT_SCALE, out=None) -> SoftmaxHead:
    """A head whose W and b follow the init rule (``mlp.init_params``): seeded
    uniform [-scale, scale] weights, zero biases; ``input_dim`` is the width
    of the features under W. They are drawn into the ``out.W`` and ``out.b``
    arrays of ``out``, keyed as in ``softmax_head_shapes`` and of those
    shapes, when given (its ``top.`` arrays, their own part of the init, are
    the head's top stack), else into new ones (``mlp.init_arrays``)."""
    drawn = init_arrays(softmax_head_shapes(input_dim, num_classes), seed, scale, out)
    return SoftmaxHead.from_arrays(drawn if out is None else out, _finite=True)


class Classifier:
    """Sigmoid towers, each reading input slot 0 (x1) or 1 (x2), under one head,
    as the row ``kind`` of ``KINDS`` lays them out.

    ``inputs`` gives each tower's slot; by default tower i reads slot i.

    Every parameter array is a view into one float64 vector, ``params``,
    laid out in ``params()`` order, the payload order of the model file. The
    parts (the towers in kind order, then the head) are built on those views
    and never copied or rebound: their ``param_arrays``, each under the
    part's name prefix, must be the views of ``params`` in vector order, or
    the construction is a ValueError naming the first array that is not.
    The gradients live in a second vector with the same layout, allocated
    by the first ``loglik_and_grads`` after construction or after
    ``release_gradients``.

    Parameters named in ``frozen`` take no updates; ``loglik_and_grads``
    back-propagates only into towers that have a trainable parameter. The
    kind's row says whether the towers start frozen, and ``frozen`` may be
    reassigned at any time; a name that is not a parameter is a ValueError.

    ``tree`` is the label tree the posteriors use (a factored-shared head's),
    else None.
    """

    def __init__(self, kind: str, towers, head, params: FlatArrays, inputs=None,
                 seed: int = 0, arch: str = ""):
        spec = KINDS[kind]
        self.kind = kind
        self.towers = list(towers)
        self.inputs = tuple(range(len(self.towers)) if inputs is None else inputs)
        if not set(self.inputs) <= {0, 1}:
            raise ValueError(f"input slots must be 0 or 1, got {self.inputs}")
        if not len(self.inputs) == len(self.towers) == len(spec.towers):
            raise ValueError(f"a {kind} classifier takes {len(spec.towers)} tower(s), one per "
                             f"input slot; got {len(self.towers)} and slots {self.inputs}")
        head.check_features([t.feature_dim for t in self.towers])
        self.head = head
        self.tree = getattr(head, "shared_tree", None)
        self.seed = seed
        self.arch = arch
        for name, tower in zip(spec.towers, self.towers):
            setattr(self, name, tower)  # model.tower, model.tower_a, model.tower1, ...
        # the parts, the towers in kind order then the head, each with its
        # name map: param_arrays name -> the model's parameter name
        parts = list(zip(spec.prefixes, self.towers + [head]))
        self._names = [{k: prefix + k for k in part.param_arrays()} for prefix, part in parts]
        held = [(prefix + k, a) for prefix, part in parts for k, a in part.param_arrays().items()]
        views = zip_longest(held, params.items(), fillvalue=(None, None))
        for i, ((name, a), (at, view)) in enumerate(views):
            if name != at or a is not view:
                raise ValueError(f"array {name or at!r} is not view {i} of params")
        self._params = params
        self._project = tuple(n for n in spec.project if n in self._names[-1].values())
        self._grads: Optional[FlatArrays] = None  # made by the first loglik_and_grads
        self.frozen = ([n for names in self._names[:-1] for n in names.values()]
                       if spec.frozen else ())

    @property
    def frozen(self) -> frozenset:
        return self._frozen

    @frozen.setter
    def frozen(self, names) -> None:
        names = frozenset(names)
        if not names <= self._params.keys():
            raise ValueError(f"no parameter {min(names - self._params.keys())!r} to freeze")
        self._frozen = names
        self._trainable = self._params.select(n for n in self._params if n not in self._frozen)
        self._grad_views = None

    def _gradient_views(self):
        """(the head's gradient arrays, each tower's, or None when all its
        parameters are frozen, the mapping ``loglik_and_grads`` returns)."""
        if self._grads is None:
            self._grads = self._params.zeros_like()
        *towers, head = self._names
        outs = [None if self._frozen.issuperset(names.values())
                else [self._grads[n] for n in names.values()] for names in towers]
        returned = [n for names, out in zip(towers, outs) if out is not None
                    for n in names.values()]
        return ({k: self._grads[n] for k, n in head.items()}, outs,
                self._grads.select(returned + list(head.values())))

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

    def add_posterior(self, x1, x2, total: np.ndarray) -> None:
        """Add the posteriors of the input rows, bit for bit those of
        ``posterior_batch``, into ``total`` (B, C), one ``leaf_pieces`` piece
        at a time. The towers keep only their features (``forward_features``)
        and the head forms one piece of posteriors at a time, so no (B, C)
        array exists beside ``total``."""
        xs = (x1, x2)
        self.head.add_probabilities([forward_features(tower, xs[slot]) for tower, slot
                                     in zip(self.towers, self.inputs)], total)

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


@dataclass(frozen=True)
class Kind:
    """One row of the kind table."""

    towers: tuple[str, ...]          # parameter prefix of each tower
    dims: tuple[str, ...]            # header field with each tower's layer dims
    head: str                        # "softmax" (SoftmaxHead) or "bilinear" (BilinearHead)
    fields: tuple[str, ...]          # header fields after kind, classes, seed and arch
    head_prefix: str = ""            # prefix of the head's parameter names
    frozen: bool = False             # towers take no updates by default
    project: tuple[str, ...] = ()    # rescaled onto the lambda-ball after each step

    @property
    def prefixes(self) -> tuple[str, ...]:
        """The parameter-name prefix of each part: the towers', then the head's."""
        return tuple(t + "." for t in self.towers) + (self.head_prefix,)


KINDS = {
    "unimodal": Kind(towers=("tower",), dims=("dims",), head="softmax",
                     fields=("modality", "dims")),
    "fused": Kind(towers=("tower_a", "tower_v"), dims=("dims_a", "dims_v"), head="softmax",
                  fields=("dims_a", "dims_v", "top_dims"), frozen=True),
    "bilinear": Kind(towers=("tower1", "tower2"), dims=("dims_a", "dims_v"), head="bilinear",
                     fields=("variant", "dims_a", "dims_v", "fused_dim", "lambda", "groups",
                             "group_of"),
                     head_prefix="head.", project=("head.U1", "head.U2")),
}


def part_views(kind: str, shapes) -> tuple[FlatArrays, list[dict[str, np.ndarray]]]:
    """A new, uninitialised parameter vector for a ``kind`` model whose parts,
    the towers in kind order then the head, have arrays of ``shapes`` (one
    mapping per part, keyed as in its ``param_arrays``), and each part's
    views of it, keyed the same way: the ``params`` of a ``Classifier`` of
    parts built on those views."""
    prefixes = KINDS[kind].prefixes
    params = FlatArrays.empty({prefix + name: shape for prefix, part in zip(prefixes, shapes)
                               for name, shape in part.items()})
    return params, [{name: params[prefix + name] for name in part}
                    for prefix, part in zip(prefixes, shapes)]


class Ensemble:
    """Fixed-order posterior average over classifiers sharing the same leaves
    and, among those whose posteriors use one, the same label tree: ``tree``,
    which is None when no member uses one.

    A read holds one leaf-width block, the ensemble's accumulator: each
    member, in member order, adds its posteriors into it a leaf piece at a
    time (``add_posterior``), so beside it a read holds one member's tower
    features and leaf-width pieces of at most ``LEAF_PIECE_BYTES``.
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
        ``np.stack(posteriors).mean(axis=0)`` followed by the division, as
        the accumulator starts at zero and 0 + p is p for every probability."""
        total = np.zeros((len(x1), self.num_classes))
        for m in self.members:
            m.add_posterior(x1, x2, total)
        total /= len(self.members)
        total /= total.sum(axis=-1, keepdims=True)
        return total

    def posterior(self, x1, x2) -> np.ndarray:
        return self.posterior_batch(np.atleast_2d(x1), np.atleast_2d(x2))[0]
