"""The classifier composition: sigmoid towers under one head, and ensembles.

The paper's three model families are one shape: sigmoid towers, each
reading one modality, under a softmax-type head. ``Classifier`` is that one
type, with no subclasses. A model short of its parameter values is one
record, its ``ModelSpec``: a row of the kind table ``KINDS`` plus the
towers' and head's dims and fields. It gives each part's array shapes,
writes the model file header's fields and is read back from them, so a
model is built, saved and loaded from its spec alone. A classifier builds
its parts on views of its parameter vector with their ``from_arrays``, the
inverse of ``param_arrays``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bilinear import (
    FACTORED_SHARED,
    FULL,
    VARIANTS,
    BilinearHead,
    LabelTree,
    check_lam,
    head_shapes,
)
from . import linalg
from .linalg import FlatArrays, ShapeError, _check_shapes, lanes_open, leaf_pieces
from .mlp import (
    MlpTower,
    activation_arrays,
    backward,
    forward,
    forward_features,
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
        top_dims = () if self.top is None else self.top.layer_dims[1:]
        fused = len(self.weights) if self.top is None else self.top.input_dim
        _check_shapes(self.param_arrays(),
                      softmax_head_shapes(fused, self.weights.shape[-1], top_dims))

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1]

    @property
    def leaf_row_work(self) -> int:
        """Multiply-adds per feature row of the leaf-width product by W, which
        a read's block pairs (``training.evaluate``) weigh their work by."""
        return self.weights.size

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

    def _forward(self, features):
        """(top trace or None, features under W, probabilities): the features
        fused, run through the top stack when there is one, and the output
        layer's softmax(feats W + b), formed in the one logits array."""
        feats = fuse_features(features)
        trace = forward(self.top, feats) if self.top is not None else None
        if trace is not None:
            feats = trace.features
        logits = feats @ self.weights
        logits += self.bias
        return trace, feats, softmax(logits, out=logits)

    def probabilities(self, features) -> np.ndarray:
        return self._forward(features)[2]

    def add_probabilities(self, features, total) -> None:
        """Add ``probabilities(features)`` into ``total`` (B, C), bit for bit,
        one ``leaf_pieces`` piece of rows at a time, so no (B, C) array is
        formed beside ``total``: each piece's rows of the features go through
        ``_forward`` on their own."""
        for start, stop in leaf_pieces(len(total), self.num_classes):
            piece = total[start:stop]
            piece += self._forward([f[start:stop] for f in features])[2]

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


def softmax_head_shapes(fused_dim: int, num_classes: int,
                        top_dims=()) -> dict[str, tuple[int, ...]]:
    """The shape of each array of a softmax head on features ``fused_dim``
    wide, by its ``param_arrays`` name, in payload order: a ``top`` stack of
    hidden dims ``top_dims`` over those features, when it has one, then W
    and b."""
    dims = (fused_dim, *top_dims)
    shapes = {f"{TOP}.{k}": shape for k, shape in layer_shapes(dims).items()} if top_dims else {}
    shapes[f"{OUT}.W"] = (dims[-1], num_classes)
    shapes[f"{OUT}.b"] = (num_classes,)
    return shapes


class Classifier:
    """The model ``spec`` describes: sigmoid towers, each reading input slot
    0 (x1) or 1 (x2), under one head, as the row ``spec.kind`` of ``KINDS``
    lays them out.

    Every parameter array is a view into one float64 vector, ``params``,
    laid out as ``spec.param_shapes()``, the payload order of the model file.
    The classifier builds its parts, the towers in kind order then the head,
    on those views with their ``from_arrays``, and never copies or rebinds
    them; it takes the values as they are (``build_model`` draws them and
    ``load_model`` has checked them). ``kind`` and ``inputs`` are the
    spec's. The gradients live in a second vector with the same layout,
    allocated by the first ``loglik_and_grads`` after construction or after
    ``release_gradients``.

    Parameters named in ``frozen`` take no updates; ``loglik_and_grads``
    back-propagates only into towers that have a trainable parameter. The
    kind's row says whether the towers start frozen, and ``frozen`` may be
    reassigned at any time; a name that is not a parameter is a ValueError.

    ``tree`` is the label tree the posteriors use (a factored-shared head's),
    else None.

    The two towers of a bimodal model meet only in the head, so their
    forward and backward passes run on two lanes (``linalg.both``) when
    ``linalg.lanes_open`` says a batch is worth it: the first tower's on the
    calling thread, the second's on the lane worker, into arrays allocated
    here. Each pass is the one it would be on one lane, bit for bit.
    """

    def __init__(self, spec: ModelSpec, params: FlatArrays):
        kind = KINDS[spec.kind]
        if not set(spec.inputs) <= {0, 1}:
            raise ValueError(f"input slots must be 0 or 1, got {spec.inputs}")
        if not len(spec.inputs) == len(spec.dims) == len(kind.towers):
            raise ValueError(f"a {spec.kind} classifier takes {len(kind.towers)} tower(s), one "
                             f"per input slot; got {len(spec.dims)} and slots {spec.inputs}")
        views = part_views(spec, params)
        self.spec = spec
        self.kind = spec.kind
        self.inputs = spec.inputs
        self.towers = [MlpTower.from_arrays(view, _finite=True) for view in views[:-1]]
        self.head = (BilinearHead.from_arrays(spec.variant, views[-1], spec.lam, spec.tree)
                     if kind.head == "bilinear" else
                     SoftmaxHead.from_arrays(views[-1], _finite=True))
        self.tree = getattr(self.head, "shared_tree", None)
        for name, tower in zip(kind.towers, self.towers):
            setattr(self, name, tower)  # model.tower, model.tower_a, model.tower1, ...
        # each part's name map: param_arrays name -> the model's parameter name
        self._names = [{k: prefix + k for k in view} for prefix, view in zip(kind.prefixes, views)]
        self._params = params
        self._project = tuple(n for n in kind.project if n in self._names[-1].values())
        # multiply-adds per input row of the smaller tower's forward pass, which
        # a lane's work is measured in; 0 without a second tower
        self._lane_row_work = (min(sum(k * n for k, n in zip(t.layer_dims, t.layer_dims[1:]))
                                   for t in self.towers) if len(self.towers) == 2 else 0)
        self._grads: Optional[FlatArrays] = None  # made by the first loglik_and_grads
        self.frozen = ([n for names in self._names[:-1] for n in names.values()]
                       if kind.frozen else ())

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

    def _tower_passes(self, run, x1, x2) -> list:
        """``run(tower, x)`` (``forward`` or ``forward_features``) of each tower
        on its input rows, in tower order.

        On two lanes, when they are open, the lane worker runs the second
        tower, forming its layers in ``activation_arrays`` allocated here, so
        that it allocates none of them. For ``forward_features`` it runs all
        but the last layer, which this thread runs after the first tower is
        done and has dropped its own hidden layers: a read then never holds
        both towers' hidden layers beside both their features.
        """
        xs = (x1, x2)
        if not lanes_open(len(x1) * self._lane_row_work):
            return [run(tower, xs[slot]) for tower, slot in zip(self.towers, self.inputs)]
        (tower_a, tower_b), (x_a, x_b) = self.towers, (xs[slot] for slot in self.inputs)
        split = tower_b.num_layers - 1 if run is forward_features else 0
        lane = tower_b.layers(0, split) if split else tower_b
        first, second = linalg.both(run, (tower_a, x_a),
                                    run, (lane, x_b, activation_arrays(lane, len(x_b))))
        if split:
            second = run(tower_b.layers(split, split + 1), second)
        return [first, second]

    def posterior_batch(self, x1, x2) -> np.ndarray:
        """Class posteriors (B, C) of the input rows, in a fresh array that the
        caller owns and may write into."""
        traces = self._tower_passes(forward, x1, x2)
        return self.head.probabilities([trace.features for trace in traces])

    def add_posterior(self, x1, x2, total: np.ndarray) -> None:
        """Add the posteriors of the input rows, bit for bit those of
        ``posterior_batch``, into ``total`` (B, C), one ``leaf_pieces`` piece
        at a time. The towers keep only their features (``forward_features``)
        and the head forms one piece of posteriors at a time, so no (B, C)
        array exists beside ``total``."""
        self.head.add_probabilities(self._tower_passes(forward_features, x1, x2), total)

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
        traces = self._tower_passes(forward, x1, x2)
        probs, _, errors = self.head.gradients(
            [tr.features for tr in traces], targets, 1.0 / targets.shape[0], head_grads,
            input_delta=any(out is not None for out in tower_grads),
        )
        if None not in tower_grads and lanes_open(targets.shape[0] * self._lane_row_work):
            jobs = [(tower, trace, delta, out, False) for tower, trace, delta, out
                    in zip(self.towers, traces, errors, tower_grads)]
            linalg.both(backward, jobs[0], backward, jobs[1])
        else:
            for tower, trace, delta, out in zip(self.towers, traces, errors, tower_grads):
                if out is not None:
                    backward(tower, trace, delta, out, input_delta=False)
        return float(np.add.reduce(log_likelihoods(probs, targets)) / targets.shape[0]), grads


@dataclass(frozen=True)
class Kind:
    """One row of the kind table."""

    towers: tuple[str, ...]          # parameter prefix of each tower
    head: str                        # "softmax" (SoftmaxHead) or "bilinear" (BilinearHead)
    head_prefix: str = ""            # prefix of the head's parameter names
    frozen: bool = False             # towers take no updates by default
    project: tuple[str, ...] = ()    # rescaled onto the lambda-ball after each step

    @property
    def prefixes(self) -> tuple[str, ...]:
        """The parameter-name prefix of each part: the towers', then the head's."""
        return tuple(t + "." for t in self.towers) + (self.head_prefix,)


KINDS = {
    "unimodal": Kind(towers=("tower",), head="softmax"),
    "fused": Kind(towers=("tower_a", "tower_v"), head="softmax", frozen=True),
    "bilinear": Kind(towers=("tower1", "tower2"), head="bilinear", head_prefix="head.",
                     project=("head.U1", "head.U2")),
}


class FormatError(ValueError):
    """File contents are not a valid serialized artifact."""


def _csv(values) -> str:
    return ",".join(map(str, values))


def _canonical(read, write):
    """The reader of a header value by ``read``, which refuses (ValueError)
    a text other than the one ``write`` writes for the value read."""
    def canonical(text: str):
        value = read(text)
        if write(value) != text:
            raise ValueError(f"{text!r} is not written {write(value)!r}")
        return value
    return canonical


# The canonical text of an integer, the one ``str`` writes for it: no sign
# but a minus, no leading zero, no "-0", no space or "_".
_INT = "(?:0|-?[1-9][0-9]*)"
_INT_TEXT = re.compile(_INT)
_INTS_TEXT = re.compile(f"{_INT}(?:,{_INT})*")


def _int(text: str) -> int:
    if _INT_TEXT.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not a canonical integer")
    return int(text)


def _ints(text: str) -> np.ndarray:
    """The int64 array of a comma-separated list of canonical integers, the
    text ``_csv`` writes for it; a value past int64 is an OverflowError."""
    if _INTS_TEXT.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not a list of canonical integers")
    return np.array(text.split(","), dtype=np.int64)


def _count(text: str) -> int:
    count = _int(text)
    if count < 1:
        raise ValueError(f"{count} is not a count")
    return count


def _dims(text: str) -> tuple[int, ...]:
    dims = tuple(_ints(text).tolist())
    layer_shapes(dims)  # refuses dims that make no stack
    return dims


def _field(meta, key: str, read):
    """Header field ``key`` of ``meta`` as ``read`` reads it; a missing field,
    or one ``read`` refuses, is a FormatError naming the field."""
    if key not in meta:
        raise FormatError(f"missing header field {key!r}")
    try:
        return read(meta[key])
    except (KeyError, ValueError, OverflowError) as exc:
        raise FormatError(f"invalid {key!r} header field {meta[key]!r}") from exc


@dataclass(frozen=True)
class ModelSpec:
    """A model short of its parameter values: its kind (a row of ``KINDS``),
    class count, seed, arch notation, each tower's input slot and layer
    dims, and its head's fields, None where the head has no such field: a
    bilinear head's variant, fused dim (None for the full variant), lambda
    and label tree (None without one), and the hidden dims of a fused
    model's top stack over the towers' features (() without one).
    """

    kind: str
    classes: int
    seed: int
    arch: str
    inputs: tuple[int, ...]            # each tower's input slot
    dims: tuple[tuple[int, ...], ...]  # each tower's layer dims
    variant: Optional[str]
    fused_dim: Optional[int]
    lam: Optional[float]
    tree: Optional[LabelTree]
    top_dims: Optional[tuple[int, ...]]

    def part_shapes(self) -> list[dict[str, tuple[int, ...]]]:
        """The shape of each array of each part, the towers in kind order then
        the head, keyed as in the part's ``param_arrays``, in payload order."""
        features = [dims[-1] for dims in self.dims]
        if KINDS[self.kind].head == "bilinear":
            head = head_shapes(self.variant, *features, self.classes, self.fused_dim, self.tree)
        else:
            head = softmax_head_shapes(sum(features), self.classes, self.top_dims or ())
        return [layer_shapes(dims) for dims in self.dims] + [head]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape of every parameter array by its name in the model, each
        part's ``part_shapes`` under the part's prefix, in payload order."""
        return {prefix + name: shape for prefix, part
                in zip(KINDS[self.kind].prefixes, self.part_shapes())
                for name, shape in part.items()}

    def keys(self) -> tuple[str, ...]:
        """The model's v1 header fields, in header order."""
        keys = ("kind", "classes", "seed", "arch")
        if self.kind == "unimodal":
            return keys + ("modality", "dims")
        if self.kind == "fused":
            return keys + ("dims_a", "dims_v", "top_dims")
        return (keys + ("variant", "dims_a", "dims_v")
                + ("fused_dim",) * (self.fused_dim is not None) + ("lambda",)
                + ("groups", "group_of") * (self.tree is not None))

    def part_fields(self) -> list[tuple[str, ...]]:
        """The header fields that give each part's shapes, in part order."""
        keys = self.keys()
        dims = tuple(k for k in keys if k.startswith("dims"))
        head = {"classes", "variant", "top_dims", "fused_dim", *dims}
        if self.variant == FACTORED_SHARED:
            head.add("groups")  # the shared variant's w has a column per group
        return [(k,) for k in dims] + [tuple(k for k in keys if k in head)]

    def fields(self) -> dict[str, str]:
        """The model's v1 header field lines, key -> value, in ``keys`` order;
        ``top_dims`` lists the top stack's layer dims from the fused width on."""
        top = (sum(dims[-1] for dims in self.dims), *self.top_dims) if self.top_dims else ()
        texts = {"kind": self.kind, "classes": str(self.classes), "seed": str(self.seed),
                 "arch": self.arch, "modality": str(self.inputs[0] + 1), "variant": self.variant,
                 "dims": _csv(self.dims[0]), "top_dims": _csv(top),
                 "fused_dim": str(self.fused_dim), "lambda": repr(self.lam)}
        texts.update(zip(("dims_a", "dims_v"), map(_csv, self.dims)))
        if self.tree is not None:
            texts.update(groups=str(self.tree.num_groups),
                         group_of=_csv(self.tree.group_of.tolist()))
        return {key: texts[key] for key in self.keys()}

    @classmethod
    def parse(cls, meta) -> ModelSpec:
        """The spec whose ``fields`` are ``meta``'s fields of its kind, each
        of which must be there and be the text ``fields`` writes for the
        value read from it; a missing or refused field is a FormatError
        naming it. Keys of no field of the model are left to the caller."""
        _field(meta, "kind", KINDS.__getitem__)
        kind = meta["kind"]
        classes = _field(meta, "classes", _count)
        seed, arch = _field(meta, "seed", _int), _field(meta, "arch", str)
        variant = fused_dim = lam = tree = top_dims = None
        if kind == "unimodal":
            inputs = (_field(meta, "modality", {"1": 0, "2": 1}.__getitem__),)
            dims = (_field(meta, "dims", _dims),)
        else:
            inputs = (0, 1)
            dims = (_field(meta, "dims_a", _dims), _field(meta, "dims_v", _dims))
        if kind == "fused":
            width = f"{dims[0][-1] + dims[1][-1]},"  # the top stack's input, when it has one
            top_dims = _field(meta, "top_dims", _canonical(
                lambda text: _dims(text)[1:] if text else (),
                lambda top: width + _csv(top) if top else ""))
        if kind == "bilinear":
            variant = VARIANTS[_field(meta, "variant", VARIANTS.index)]
            if variant != FULL:
                fused_dim = _field(meta, "fused_dim", _count)
            lam = _field(meta, "lambda", _canonical(check_lam, repr))
            if variant == FACTORED_SHARED or {"groups", "group_of"} & meta.keys():
                group_of, groups = _field(meta, "group_of", _ints), _field(meta, "groups", _int)
                try:
                    tree = LabelTree(group_of, groups)
                except (ValueError, OverflowError) as exc:
                    raise FormatError(f"header fields 'groups' and 'group_of' disagree: "
                                      f"{exc}") from exc
                if tree.num_leaves != classes:
                    raise FormatError(f"header field 'group_of' has {tree.num_leaves} leaves; "
                                      f"the model has {classes} classes")
        return cls(kind, classes, seed, arch, inputs, dims, variant, fused_dim, lam, tree,
                   top_dims)


def part_views(spec: ModelSpec, params: FlatArrays) -> list[dict[str, np.ndarray]]:
    """Each part's views of ``params``, keyed as in the part's
    ``param_arrays``: the towers' in kind order, then the head's. ``params``
    must be the arrays of ``spec.param_shapes()``, in that order, or the
    views are a ShapeError."""
    if [(name, a.shape) for name, a in params.items()] != list(spec.param_shapes().items()):
        raise ShapeError(f"params are not the arrays of a {spec.kind} model of this spec")
    return [{name: params[prefix + name] for name in part}
            for prefix, part in zip(KINDS[spec.kind].prefixes, spec.part_shapes())]


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
