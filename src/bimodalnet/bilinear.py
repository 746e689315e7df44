"""Joint bilinear softmax classification layer.

The head scores class y from the two towers' features v1, v2 as

    logit_y = v1^T W^y v2 + V1_y^T v1 + V2_y^T v2 + b_y,
    p = softmax(logits),

where W^y is either stored per class ("full"), factored as
W^y = U1 diag(w_y) U2^T ("factored"), or factored with the diagonal weights
tied across all leaves under one label-tree group, W^y = U1 diag(w_{g(y)}) U2^T
("factored-shared").

Gradients follow the ascent convention on the mean log-likelihood. The
error signals are kept at two granularities,

    delta_L[k] = t_k - p_k            (leaves)
    delta_G[g] = Root_g - sum_{k in group g} p_k   (groups),

and the shared variant's bilinear gradients consume delta_G while the
per-leaf parameters V1, V2, b always consume delta_L. The unshared variants
use delta_L throughout (singleton groups make the two coincide).

Cross-tower messages

    M^{2->1} = [W^g v2]_g,    M^{1->2} = [W^g^T v1]_g

carry the bilinear part of the error into the opposite tower:
delta_v1 = M^{2->1} delta_G + V1 delta_L, and symmetrically for v2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .linalg import (
    LEAF_PIECE_BYTES,
    ShapeError,
    _check_shapes,
    as_ints,
    lanes_open,
    leaf_pieces,
    row_blocks,
)
from .mlp import backward, forward  # noqa: F401  bound here only for perfbench's span-wiring test
from .mlp import init_arrays, softmax, target_delta

FULL = "full"
FACTORED = "factored"
FACTORED_SHARED = "factored-shared"
VARIANTS = (FULL, FACTORED, FACTORED_SHARED)

# Most bytes of the temporary in which a factored-shared head on two lanes
# gathers its bilinear term for some rows of a piece of logits: an eighth of
# a piece.
GATHER_BYTES = LEAF_PIECE_BYTES // 8

# held while a tree builds its group indicator, so that threads which ask a
# tree for it at once share one
_INDICATOR_BUILD = threading.Lock()


class VariantError(ValueError):
    """Operation not defined for this head variant."""


def check_lam(lam) -> float:
    """lam as a float; the radius of the lambda-ball must be finite and positive."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    return lam


@dataclass
class LabelTree:
    """Two-level label tree: C leaves partitioned into G non-empty groups."""

    group_of: np.ndarray  # (C,) ints in [0, G)
    num_groups: int

    def __post_init__(self):
        self.group_of = as_ints(self.group_of, "group_of")
        if self.group_of.ndim != 1 or self.group_of.size == 0:
            raise ValueError("group_of must be a non-empty 1-D integer array")
        try:
            g = int(self.num_groups)
        except (OverflowError, ValueError):  # +-inf, NaN
            g = None
        if g != self.num_groups:
            raise ValueError(f"num_groups must be an integer, got {self.num_groups!r}")
        if not 1 <= g <= self.group_of.size:
            raise ValueError(f"need 1 <= num_groups <= num_leaves, got G={g}, C={self.group_of.size}")
        present = np.unique(self.group_of)
        if present[0] < 0 or present[-1] >= g or present.size != g:
            raise ValueError("groups must partition the leaves: every id in [0, G) non-empty")
        self.num_groups = g
        self._indicator: Optional[np.ndarray] = None

    @property
    def num_leaves(self) -> int:
        return int(self.group_of.size)

    def members(self, group: int) -> np.ndarray:
        return np.nonzero(self.group_of == group)[0]

    @property
    def indicator(self) -> np.ndarray:
        """The (C, G) 0/1 matrix whose column g marks the leaves of group g,
        built once, on first use, whichever thread asks first."""
        if self._indicator is None:
            with _INDICATOR_BUILD:
                if self._indicator is None:
                    ind = np.zeros((self.num_leaves, self.num_groups))
                    ind[np.arange(self.num_leaves), self.group_of] = 1.0
                    self._indicator = ind
        return self._indicator

    def group_sums(self, x: np.ndarray) -> np.ndarray:
        """Sums of the leaf columns of ``x`` (B, C) within each group, (B, G)."""
        return x @ self.indicator

    def __eq__(self, other):
        return (
            isinstance(other, LabelTree)
            and self.num_groups == other.num_groups
            and np.array_equal(self.group_of, other.group_of)
        )

    @classmethod
    def balanced(cls, num_leaves: int, num_groups: int) -> "LabelTree":
        if num_leaves < 1 or num_groups < 1:
            raise ValueError(f"need at least one leaf and one group, got "
                             f"{num_leaves} leaves and {num_groups} groups")
        if num_leaves % num_groups:
            raise ValueError(f"{num_leaves} leaves do not divide into {num_groups} groups")
        per = num_leaves // num_groups
        return cls(np.repeat(np.arange(num_groups), per), num_groups)

    @classmethod
    def singleton(cls, num_leaves: int) -> "LabelTree":
        return cls(np.arange(num_leaves), num_leaves)


@dataclass
class BilinearHead:
    variant: str
    dim1: int
    dim2: int
    num_classes: int
    # full: w_stack (C, K1, K2); factored(-shared): u1 (K1,F), u2 (K2,F), w (F, C or G)
    w_stack: Optional[np.ndarray] = None
    u1: Optional[np.ndarray] = None
    u2: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    v1: Optional[np.ndarray] = None  # (K1, C)
    v2: Optional[np.ndarray] = None  # (K2, C)
    b: Optional[np.ndarray] = None   # (C,)
    lam: float = 2.0
    tree: Optional[LabelTree] = None

    def __post_init__(self):
        k1, k2, c = self.dim1, self.dim2, self.num_classes
        # the fused dim is U1's width; a U1 of another shape is named below
        fused = self.u1.shape[-1] if np.ndim(self.u1) == 2 else 1
        shapes = head_shapes(self.variant, k1, k2, c, fused, self.tree)
        self.lam = check_lam(self.lam)
        if self.variant == FACTORED_SHARED and self.tree is None:
            raise ValueError("factored-shared head requires a label tree")
        if self.tree is not None and self.tree.num_leaves != c:
            raise ShapeError(f"tree has {self.tree.num_leaves} leaves but head has {c} classes")
        for name in ("V1", "V2", "b"):  # the linear terms default to zeros
            if getattr(self, _ATTRS[name]) is None:
                setattr(self, _ATTRS[name], np.zeros(shapes[name]))
        _check_shapes(self.param_arrays(), shapes)
        # multiply-adds per feature row of the smaller of the two leaf-width
        # products f1 @ V1 and f2 @ V2, which the head's lanes and a read's
        # block pairs (``training.evaluate``) weigh their work by; the full
        # variant's products run on one lane whatever it says
        self.leaf_row_work = min(k1, k2) * c

    @property
    def shared_tree(self) -> Optional[LabelTree]:
        """The label tree the posteriors depend on: a factored-shared head's,
        else None (the unshared variants keep ``tree`` only for the model file)."""
        return self.tree if self.variant == FACTORED_SHARED else None

    @property
    def num_groups(self) -> int:
        return self.tree.num_groups if self.tree is not None else self.num_classes

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, attr) for name, attr in array_attrs(self.variant).items()}

    @classmethod
    def from_arrays(cls, variant: str, arrays, lam: float = 2.0, tree=None) -> "BilinearHead":
        """The ``variant`` head holding ``arrays`` themselves, keyed as in
        ``param_arrays``; its dims and class count are the lengths of V1, V2 and b."""
        return cls(variant, len(arrays["V1"]), len(arrays["V2"]), len(arrays["b"]), lam=lam,
                   tree=tree, **{_ATTRS[name]: a for name, a in arrays.items()})

    def probabilities(self, features) -> np.ndarray:
        return posterior_batch(self, *features)

    def add_probabilities(self, features, total) -> None:
        add_posterior(self, *features, total)

    def gradients(self, features, targets, scale: float, out=None, input_delta: bool = True):
        """(probs, gradients by array name, error signal for each tower); the
        gradients are written into the arrays of ``out`` when given. Without
        ``input_delta`` the error signals are None and are not formed."""
        probs, grads, delta1, delta2 = _grads_batch(self, *features, targets, scale, out,
                                                    input_delta)
        return probs, grads, [delta1, delta2]


# attribute holding each parameter array, by its param_arrays name
_ATTRS = {"W": "w_stack", "U1": "u1", "U2": "u2", "w": "w", "V1": "v1", "V2": "v2", "b": "b"}


def array_attrs(variant: str) -> dict[str, str]:
    """The attribute behind each ``param_arrays`` name of a ``variant`` head,
    in payload order: the bilinear arrays, then V1, V2 and b."""
    names = ("W",) if variant == FULL else ("U1", "U2", "w")
    return {name: _ATTRS[name] for name in names + ("V1", "V2", "b")}


def head_shapes(variant: str, dim1: int, dim2: int, num_classes: int,
                fused_dim: Optional[int] = None,
                tree: Optional[LabelTree] = None) -> dict[str, tuple[int, ...]]:
    """The shape of each array of a ``variant`` head, by its ``param_arrays``
    name, in payload order; the shared variant's w has one column per group
    of ``tree``."""
    if variant not in VARIANTS:
        raise VariantError(f"unknown variant {variant!r}")
    if variant != FULL and (fused_dim is None or fused_dim < 1):
        raise ValueError("factored variants need fused_dim >= 1")
    k1, k2, c, f = dim1, dim2, num_classes, fused_dim
    cols = tree.num_groups if variant == FACTORED_SHARED and tree is not None else c
    shapes = {"W": (c, k1, k2), "U1": (k1, f), "U2": (k2, f), "w": (f, cols),
              "V1": (k1, c), "V2": (k2, c), "b": (c,)}
    return {name: shapes[name] for name in array_attrs(variant)}


def init_head(variant: str, dim1: int, dim2: int, num_classes: int,
              fused_dim: Optional[int] = None, tree: Optional[LabelTree] = None,
              seed=0, scale: float = 0.05, lam: float = 2.0) -> BilinearHead:
    """A head whose arrays follow the init rule (``mlp.init_params``): seeded
    uniform [-scale, scale] weights, drawn in payload order (the bilinear
    arrays, then V1 and V2), and zero biases."""
    shapes = head_shapes(variant, dim1, dim2, num_classes, fused_dim, tree)
    return BilinearHead.from_arrays(variant, init_arrays(shapes, seed, scale), lam, tree)


def __getattr__(name: str):
    # BilinearClassifier, the name by which perfbench's spans time
    # Classifier.loglik_and_grads; fusion imports this module, so it is looked up late
    if name != "BilinearClassifier":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fusion import Classifier
    return Classifier


def materialize_w(head: BilinearHead, leaf: int) -> np.ndarray:
    """U1 diag(w_y) U2^T for a factored head (w_{g(y)} when shared)."""
    if head.variant == FULL:
        raise VariantError("materialize_w is undefined for the full variant: W^y is stored")
    if not 0 <= leaf < head.num_classes:
        raise ValueError(f"leaf {leaf} out of range [0, {head.num_classes})")
    col = head.tree.group_of[leaf] if head.variant == FACTORED_SHARED else leaf
    return (head.u1 * head.w[:, col]) @ head.u2.T


def _group_scores(head: BilinearHead, f1: np.ndarray, f2: np.ndarray, products: bool = True):
    """(a1, a2, scores) of feature rows f1 (B, K1), f2 (B, K2): the factored
    variants' products a1 = f1 @ U1 and a2 = f2 @ U2, and the scores that
    ``_piece_logits`` takes the leaf columns from: a1 * a2 (factored), the
    (B, G) group scores (a1 * a2) @ w (factored-shared) or None (full),
    formed for the whole batch, as a group-width product of fewer rows may
    round differently. a1 and a2 are None for the full variant and without
    ``products``, for reads: a1 * a2 is then formed in a1's array."""
    if head.variant == FULL:
        return None, None, None
    a1 = f1 @ head.u1
    a2 = f2 @ head.u2
    scores = a1 * a2 if products else np.multiply(a1, a2, out=a1)
    if head.variant == FACTORED_SHARED:
        scores = scores @ head.w
    return (a1, a2, scores) if products else (None, None, scores)


def _piece_logits(head: BilinearHead, scores, f1: np.ndarray, f2: np.ndarray, out=None):
    """The logits (rows, C) of feature rows f1, f2, a piece of a batch or all
    of it, whose ``_group_scores`` rows are ``scores``; formed in ``out``
    when given, else in a new array, with one leaf-width array beside them.

    Each variant's terms are written once, and open lanes decide only where
    one product runs: the lane worker forms the product that goes into the
    one more array while this thread forms f1 @ V1 in the logits array.
    IEEE addition is commutative, so each sum has the same bits in either
    order. An unshared head adds its bilinear term (the full W^y products or
    scores @ w), then f2 @ V2, each formed in the one more array. A
    factored-shared head copies each group's score to its leaves: on one
    lane into the logits array, before f1 @ V1 and f2 @ V2 are added; on two
    lanes, where the worker forms f2 @ V2, onto f1 @ V1 a few rows at a time
    (``GATHER_BYTES``), as on one lane such a block would raise a read's
    peak. b is added last.
    """
    lanes = lanes_open(len(f1) * head.leaf_row_work)
    logits = np.empty((len(f1), head.num_classes)) if out is None else out
    if head.variant == FACTORED_SHARED and not lanes:
        # the tree's ids are in range; "clip" writes into logits with no buffer
        np.take(scores, head.tree.group_of, axis=1, out=logits, mode="clip")
        logits += f1 @ head.v1
        logits += f2 @ head.v2
    elif head.variant == FACTORED_SHARED:
        other = np.empty(logits.shape)
        linalg.both(np.matmul, (f1, head.v1, logits), np.matmul, (f2, head.v2, other))
        gather_rows = max(1, GATHER_BYTES // (8 * head.num_classes))
        for start, stop in row_blocks(len(logits), gather_rows):
            rows = logits[start:stop]
            rows += np.take(scores[start:stop], head.tree.group_of, axis=1, mode="clip")
        logits += other
    else:
        other = np.empty(logits.shape)
        if head.variant == FULL:
            np.matmul(f1, head.v1, out=logits)
            np.einsum("bi,cij,bj->bc", f1, head.w_stack, f2, optimize=True, out=other)
        elif lanes:
            linalg.both(np.matmul, (f1, head.v1, logits), np.matmul, (scores, head.w, other))
        else:
            np.matmul(f1, head.v1, out=logits)
            np.matmul(scores, head.w, out=other)
        logits += other
        logits += np.matmul(f2, head.v2, out=other)
    logits += head.b
    return logits


def _leaf_logits(head: BilinearHead, f1: np.ndarray, f2: np.ndarray, products: bool = True):
    """Batched logits (B, C) from feature rows f1 (B, K1), f2 (B, K2), and
    the products a1, a2 of ``_group_scores``, which a step's gradients use
    (None without ``products``).

    A batch that fits one ``leaf_pieces`` piece is one ``_piece_logits``
    call, with no slicing; a larger one is built piece by piece in the one
    (B, C) array returned, so no (B, C) temporary exists beside it.
    """
    a1, a2, scores = _group_scores(head, f1, f2, products)
    rows, classes = len(f1), head.num_classes
    if 8 * rows * classes <= LEAF_PIECE_BYTES:
        return _piece_logits(head, scores, f1, f2), a1, a2
    logits = np.empty((rows, classes))
    for start, stop in leaf_pieces(rows, classes):
        _piece_logits(head, None if scores is None else scores[start:stop], f1[start:stop],
                      f2[start:stop], out=logits[start:stop])
    return logits, a1, a2


def posterior_batch(head: BilinearHead, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Class posteriors (B, C) of float64 feature rows f1 (B, K1), f2 (B, K2),
    as the towers return them; their widths are the head's, as a model's
    spec makes them."""
    logits = _leaf_logits(head, f1, f2, products=False)[0]
    return softmax(logits, out=logits)


def add_posterior(head: BilinearHead, f1: np.ndarray, f2: np.ndarray,
                  total: np.ndarray) -> None:
    """Add ``posterior_batch(head, f1, f2)`` into ``total`` (B, C), bit for
    bit, one ``leaf_pieces`` piece of rows at a time, so no (B, C) array is
    formed beside ``total``: the whole batch's ``_group_scores``, as
    ``posterior_batch`` forms them, then each piece's ``_piece_logits``."""
    scores = _group_scores(head, f1, f2, products=False)[2]
    for start, stop in leaf_pieces(len(f1), head.num_classes):
        logits = _piece_logits(head, None if scores is None else scores[start:stop],
                               f1[start:stop], f2[start:stop])
        piece = total[start:stop]
        piece += softmax(logits, out=logits)
        del logits  # freed before the next piece forms its own


def _grads_batch(head: BilinearHead, f1, f2, targets: np.ndarray, scale: float, out=None,
                 input_delta: bool = True):
    """Batched head gradients of feature rows as ``posterior_batch`` takes
    them; returns (probs, grads, delta1, delta2).

    Gradients are sums over the batch of per-sample gradients scaled by
    ``scale`` (pass 1/B for the batch mean), written into the arrays of
    ``out`` (keyed as in ``param_arrays``) when given, else into new ones.
    The towers' error signals delta1, delta2 are None without ``input_delta``.
    A factored head forms each tower's U and V gradients and error signal
    only in ``_side_grads``, tower 1 then tower 2; open lanes decide only
    that the lane worker runs tower 2's side while the calling thread runs
    tower 1's.
    """
    logits, a1, a2 = _leaf_logits(head, f1, f2)
    probs = softmax(logits, out=logits)
    delta_l = target_delta(probs, targets, scale)  # (B, C)
    grads = out if out is not None else {
        name: np.empty(arr.shape) for name, arr in head.param_arrays().items()}
    np.add.reduce(delta_l, axis=0, out=grads["b"])
    if head.variant == FULL:
        np.matmul(f1.T, delta_l, out=grads["V1"])
        np.matmul(f2.T, delta_l, out=grads["V2"])
        np.einsum("bc,bi,bj->cij", delta_l, f1, f2, optimize=True, out=grads["W"])
        if not input_delta:
            return probs, grads, None, None
        delta1 = np.einsum("bc,cij,bj->bi", delta_l, head.w_stack, f2, optimize=True)
        delta2 = np.einsum("bc,cij,bi->bj", delta_l, head.w_stack, f1, optimize=True)
        delta1 += delta_l @ head.v1.T
        delta2 += delta_l @ head.v2.T
        return probs, grads, delta1, delta2
    if head.variant == FACTORED_SHARED:
        delta_eff = head.tree.group_sums(delta_l)  # (B, G)
    else:
        delta_eff = delta_l  # unshared: delta_G is replaced by delta_L
    wd = delta_eff @ head.w.T  # rows W delta_G, (B, F)
    np.matmul((a1 * a2).T, delta_eff, out=grads["w"])
    side1 = (f1, delta_l, wd * a2, head.u1, head.v1, grads["U1"], grads["V1"], input_delta)
    side2 = (f2, delta_l, wd * a1, head.u2, head.v2, grads["U2"], grads["V2"], input_delta)
    if not lanes_open(len(f1) * head.leaf_row_work):
        return probs, grads, _side_grads(*side1), _side_grads(*side2)
    # tower 2's signal is formed in arrays of this thread's heap, not of the
    # worker's glibc arena
    out2 = (np.empty((len(f2), head.dim2)), np.empty((len(f2), head.dim2)))
    delta1, delta2 = linalg.both(_side_grads, side1, _side_grads, (*side2, out2))
    return probs, grads, delta1, delta2


def _side_grads(f, delta_l, wd_a, u, v, grad_u, grad_v, input_delta: bool, out=None):
    """One tower's side of a factored head's step, the one statement of its
    formulas, from its feature rows f: the gradients f^T delta_L of V and
    f^T (W delta_G * a) of U, written into ``grad_v`` and ``grad_u``, and,
    with ``input_delta``, the tower's error signal
    (W delta_G * a) U^T + delta_L V^T, else None. ``wd_a`` is W delta_G * a
    of the other tower's a. The signal is formed in ``out[0]`` and its
    second product in ``out[1]`` when ``out`` is given (the lane worker's
    side), else in new arrays; the bits are the same."""
    np.matmul(f.T, delta_l, out=grad_v)
    np.matmul(f.T, wd_a, out=grad_u)
    if not input_delta:
        return None
    delta = wd_a @ u.T if out is None else np.matmul(wd_a, u.T, out=out[0])
    delta += delta_l @ v.T if out is None else np.matmul(delta_l, v.T, out=out[1])
    return delta


def param_count(head: BilinearHead) -> dict[str, int]:
    """Sizes of the arrays the head holds, split into bilinear / linear / bias
    blocks."""
    sizes = {name: arr.size for name, arr in head.param_arrays().items()}
    linear = sizes.pop("V1") + sizes.pop("V2")
    bias = sizes.pop("b")
    bilinear = sum(sizes.values())
    return {
        "bilinear": bilinear,
        "linear": linear,
        "bias": bias,
        "total": bilinear + linear + bias,
    }
