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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fusion import BilinearClassifier  # noqa: F401  the bilinear kind of fusion.Classifier
from .linalg import ShapeError, as_vector
from .mlp import backward, forward  # noqa: F401  bound here only for perfbench's span-wiring test
from .mlp import softmax, target_delta

FULL = "full"
FACTORED = "factored"
FACTORED_SHARED = "factored-shared"
VARIANTS = (FULL, FACTORED, FACTORED_SHARED)


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
        self.group_of = np.asarray(self.group_of, dtype=np.int64)
        if self.group_of.ndim != 1 or self.group_of.size == 0:
            raise ValueError("group_of must be a non-empty 1-D integer array")
        g = int(self.num_groups)
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

    def indicator(self) -> np.ndarray:
        """(C, G) 0/1 matrix; probs @ indicator() sums leaf mass per group."""
        if self._indicator is None:
            ind = np.zeros((self.num_leaves, self.num_groups))
            ind[np.arange(self.num_leaves), self.group_of] = 1.0
            self._indicator = ind
        return self._indicator

    def __eq__(self, other):
        return (
            isinstance(other, LabelTree)
            and self.num_groups == other.num_groups
            and np.array_equal(self.group_of, other.group_of)
        )

    @classmethod
    def balanced(cls, num_leaves: int, num_groups: int) -> "LabelTree":
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
        if self.variant not in VARIANTS:
            raise VariantError(f"unknown variant {self.variant!r}")
        self.lam = check_lam(self.lam)
        k1, k2, c = self.dim1, self.dim2, self.num_classes
        if self.v1 is None:
            self.v1 = np.zeros((k1, c))
        if self.v2 is None:
            self.v2 = np.zeros((k2, c))
        if self.b is None:
            self.b = np.zeros(c)
        if self.v1.shape != (k1, c) or self.v2.shape != (k2, c) or self.b.shape != (c,):
            raise ShapeError("linear-term shapes do not match head dims")
        if self.variant == FULL:
            if self.w_stack is None or self.w_stack.shape != (c, k1, k2):
                raise ShapeError(f"full variant needs w_stack of shape {(c, k1, k2)}")
        else:
            if self.u1 is None or self.u2 is None or self.w is None:
                raise ShapeError("factored variants need u1, u2 and w")
            f = self.u1.shape[1]
            if self.u1.shape != (k1, f) or self.u2.shape != (k2, f):
                raise ShapeError(
                    f"u1 {self.u1.shape} / u2 {self.u2.shape} inconsistent with dims "
                    f"({k1}, {k2}) and fused dim {f}"
                )
            cols = self.num_groups if self.variant == FACTORED_SHARED else c
            if self.w.shape != (f, cols):
                raise ShapeError(f"w must have shape {(f, cols)}, got {self.w.shape}")
        if self.variant == FACTORED_SHARED:
            if self.tree is None:
                raise ValueError("factored-shared head requires a label tree")
            if self.tree.num_leaves != c:
                raise ShapeError(
                    f"tree has {self.tree.num_leaves} leaves but head has {c} classes"
                )

    @property
    def fused_dim(self) -> int:
        if self.variant == FULL:
            raise VariantError("full variant has no fused dimension")
        return self.u1.shape[1]

    @property
    def num_groups(self) -> int:
        return self.tree.num_groups if self.tree is not None else self.num_classes

    def check_features(self, dims) -> None:
        if tuple(dims) != (self.dim1, self.dim2):
            raise ShapeError(
                f"tower feature dims {tuple(dims)} do not match head dims "
                f"({self.dim1}, {self.dim2})"
            )

    def param_arrays(self) -> dict[str, np.ndarray]:
        if self.variant == FULL:
            named = {"W": self.w_stack}
        else:
            named = {"U1": self.u1, "U2": self.u2, "w": self.w}
        named.update({"V1": self.v1, "V2": self.v2, "b": self.b})
        return named

    def probabilities(self, features) -> np.ndarray:
        return posterior_batch(self, *features)

    def gradients(self, features, targets, scale: float):
        """(probs, gradients by array name, error signal for each tower)."""
        probs, grads, delta1, delta2 = _grads_batch(self, *features, targets, scale)
        return probs, grads, [delta1, delta2]


def init_head(variant: str, dim1: int, dim2: int, num_classes: int,
              fused_dim: Optional[int] = None, tree: Optional[LabelTree] = None,
              seed=0, scale: float = 0.05, lam: float = 2.0) -> BilinearHead:
    """Seeded uniform [-scale, scale] bilinear and linear weights, zero biases."""
    rng = np.random.default_rng(seed)
    k1, k2, c = dim1, dim2, num_classes
    if variant == FULL:
        head = BilinearHead(
            FULL, k1, k2, c,
            w_stack=rng.uniform(-scale, scale, size=(c, k1, k2)),
            v1=rng.uniform(-scale, scale, size=(k1, c)),
            v2=rng.uniform(-scale, scale, size=(k2, c)),
            lam=lam, tree=tree,
        )
    else:
        if fused_dim is None or fused_dim < 1:
            raise ValueError("factored variants need fused_dim >= 1")
        cols = c
        if variant == FACTORED_SHARED:
            if tree is None:
                raise ValueError("factored-shared head requires a label tree")
            cols = tree.num_groups
        head = BilinearHead(
            variant, k1, k2, c,
            u1=rng.uniform(-scale, scale, size=(k1, fused_dim)),
            u2=rng.uniform(-scale, scale, size=(k2, fused_dim)),
            w=rng.uniform(-scale, scale, size=(fused_dim, cols)),
            v1=rng.uniform(-scale, scale, size=(k1, c)),
            v2=rng.uniform(-scale, scale, size=(k2, c)),
            lam=lam, tree=tree,
        )
    return head


def materialize_w(head: BilinearHead, leaf: int) -> np.ndarray:
    """U1 diag(w_y) U2^T for a factored head (w_{g(y)} when shared)."""
    if head.variant == FULL:
        raise VariantError("materialize_w is undefined for the full variant: W^y is stored")
    if not 0 <= leaf < head.num_classes:
        raise ValueError(f"leaf {leaf} out of range [0, {head.num_classes})")
    col = head.tree.group_of[leaf] if head.variant == FACTORED_SHARED else leaf
    return (head.u1 * head.w[:, col]) @ head.u2.T


def _leaf_logits(head: BilinearHead, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Batched logits (B, C) from feature rows f1 (B, K1), f2 (B, K2)."""
    if head.variant == FULL:
        bil = np.einsum("bi,cij,bj->bc", f1, head.w_stack, f2, optimize=True)
    else:
        phi = (f1 @ head.u1) * (f2 @ head.u2)  # (B, F)
        w_leaf = head.w[:, head.tree.group_of] if head.variant == FACTORED_SHARED else head.w
        bil = phi @ w_leaf
    return bil + f1 @ head.v1 + f2 @ head.v2 + head.b


def posterior_batch(head: BilinearHead, f1, f2) -> np.ndarray:
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.shape[-1] != head.dim1 or f2.shape[-1] != head.dim2:
        raise ShapeError(
            f"feature dims ({f1.shape[-1]}, {f2.shape[-1]}) do not match head "
            f"dims ({head.dim1}, {head.dim2})"
        )
    return softmax(_leaf_logits(head, np.atleast_2d(f1), np.atleast_2d(f2)))


def posterior(head: BilinearHead, v1, v2) -> np.ndarray:
    """Class posterior for a single pair of feature vectors."""
    return posterior_batch(head, as_vector(v1, "v1"), as_vector(v2, "v2"))[0]


def deltas(probs, target_leaf: int, tree: LabelTree):
    """Leaf and group error signals (delta_L, delta_G) for one sample."""
    p = as_vector(probs, "probs")
    c = tree.num_leaves
    if p.shape[0] != c:
        raise ShapeError(f"probs length {p.shape[0]} does not match {c} leaves")
    if not 0 <= int(target_leaf) < c:
        raise ValueError(f"target leaf {target_leaf} out of range [0, {c})")
    delta_l = -p.copy()
    delta_l[int(target_leaf)] += 1.0
    delta_g = -np.bincount(tree.group_of, weights=p, minlength=tree.num_groups)
    delta_g[tree.group_of[int(target_leaf)]] += 1.0
    return delta_l, delta_g


@dataclass
class HeadGradients:
    """Per-parameter gradients plus the deltas handed to each tower."""

    w_stack: Optional[np.ndarray] = None
    u1: Optional[np.ndarray] = None
    u2: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    v1: Optional[np.ndarray] = None
    v2: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    delta1: Optional[np.ndarray] = None
    delta2: Optional[np.ndarray] = None


def _grads_batch(head: BilinearHead, f1: np.ndarray, f2: np.ndarray,
                 targets: np.ndarray, scale: float):
    """Batched head gradients; returns (probs, grads dict, delta1, delta2).

    Gradients are sums over the batch of per-sample gradients scaled by
    ``scale`` (pass 1/B for the batch mean).
    """
    probs = posterior_batch(head, f1, f2)
    delta_l = target_delta(probs, targets, scale)  # (B, C)
    grads: dict[str, np.ndarray] = {
        "V1": f1.T @ delta_l,
        "V2": f2.T @ delta_l,
        "b": delta_l.sum(axis=0),
    }
    if head.variant == FULL:
        grads["W"] = np.einsum("bc,bi,bj->cij", delta_l, f1, f2, optimize=True)
        delta1 = np.einsum("bc,cij,bj->bi", delta_l, head.w_stack, f2, optimize=True)
        delta2 = np.einsum("bc,cij,bi->bj", delta_l, head.w_stack, f1, optimize=True)
    else:
        if head.variant == FACTORED_SHARED:
            delta_eff = delta_l @ head.tree.indicator()  # (B, G)
        else:
            delta_eff = delta_l  # unshared: delta_G is replaced by delta_L
        a1 = f1 @ head.u1
        a2 = f2 @ head.u2
        wd = delta_eff @ head.w.T  # rows W delta_G, (B, F)
        wd_a2 = wd * a2
        wd_a1 = wd * a1
        grads["w"] = ((a1 * a2).T @ delta_eff)
        grads["U1"] = f1.T @ wd_a2
        grads["U2"] = f2.T @ wd_a1
        delta1 = wd_a2 @ head.u1.T
        delta2 = wd_a1 @ head.u2.T
    delta1 += delta_l @ head.v1.T
    delta2 += delta_l @ head.v2.T
    return probs, grads, delta1, delta2


def head_gradients(head: BilinearHead, v1, v2, target_leaf: int) -> HeadGradients:
    """Exact single-sample gradients of E = log p(target | v1, v2)."""
    f1 = np.atleast_2d(as_vector(v1, "v1"))
    f2 = np.atleast_2d(as_vector(v2, "v2"))
    if not 0 <= int(target_leaf) < head.num_classes:
        raise ValueError(f"target leaf {target_leaf} out of range [0, {head.num_classes})")
    _, grads, delta1, delta2 = _grads_batch(
        head, f1, f2, np.asarray([int(target_leaf)]), 1.0
    )
    return HeadGradients(
        w_stack=grads.get("W"),
        u1=grads.get("U1"), u2=grads.get("U2"), w=grads.get("w"),
        v1=grads["V1"], v2=grads["V2"], b=grads["b"],
        delta1=delta1[0], delta2=delta2[0],
    )


def param_count(head: BilinearHead) -> dict[str, int]:
    """Parameter counts split into bilinear / linear / bias blocks."""
    k1, k2, c = head.dim1, head.dim2, head.num_classes
    if head.variant == FULL:
        bilinear = c * k1 * k2
    else:
        f = head.fused_dim
        cols = head.num_groups if head.variant == FACTORED_SHARED else c
        bilinear = f * (k1 + k2) + f * cols
    linear = c * (k1 + k2)
    bias = c
    return {
        "bilinear": bilinear,
        "linear": linear,
        "bias": bias,
        "total": bilinear + linear + bias,
    }
