"""Late feature fusion of frozen towers, and posterior-averaging ensembles."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .linalg import ShapeError, as_vector
from .mlp import (
    PROB_FLOOR,
    MlpTower,
    SoftmaxLayer,
    backward,
    forward,
    target_delta,
)

SIMPLEX_TOL = 1e-9


def fuse_features(tower_a: MlpTower, tower_v: MlpTower, x1, x2) -> np.ndarray:
    """Concatenated final hidden features [v_a ; v_v] (rows for batched input)."""
    fa = forward(tower_a, np.asarray(x1, dtype=np.float64)).features
    fv = forward(tower_v, np.asarray(x2, dtype=np.float64)).features
    return np.concatenate([fa, fv], axis=-1)


class FusedClassifier:
    """Softmax (optionally behind a small sigmoid stack) on frozen fused features.

    The towers never receive gradient updates: only the top stack and the
    output layer are trainable.
    """

    kind = "fused"

    def __init__(self, tower_a: MlpTower, tower_v: MlpTower,
                 out: SoftmaxLayer, top: Optional[MlpTower] = None,
                 seed: int = 0, arch: str = ""):
        fused_dim = tower_a.feature_dim + tower_v.feature_dim
        if top is not None:
            if top.input_dim != fused_dim:
                raise ShapeError(
                    f"top stack input {top.input_dim} does not match fused dim {fused_dim}"
                )
            if out.input_dim != top.feature_dim:
                raise ShapeError(
                    f"output layer input {out.input_dim} does not match top "
                    f"feature dim {top.feature_dim}"
                )
        elif out.input_dim != fused_dim:
            raise ShapeError(
                f"output layer input {out.input_dim} does not match fused dim {fused_dim}"
            )
        self.tower_a = tower_a
        self.tower_v = tower_v
        self.top = top
        self.out = out
        self.seed = seed
        self.arch = arch

    @property
    def num_classes(self) -> int:
        return self.out.num_classes

    def posterior_batch(self, x1, x2) -> np.ndarray:
        fused = fuse_features(self.tower_a, self.tower_v, x1, x2)
        if self.top is not None:
            fused = forward(self.top, fused).features
        return self.out.probabilities(fused)

    def posterior(self, x1, x2) -> np.ndarray:
        return self.posterior_batch(np.atleast_2d(x1), np.atleast_2d(x2))[0]

    def params(self) -> dict[str, np.ndarray]:
        named: dict[str, np.ndarray] = {}
        for prefix, tower in (("tower_a", self.tower_a), ("tower_v", self.tower_v)):
            for l, (w, b) in enumerate(zip(tower.weights, tower.biases)):
                named[f"{prefix}.W{l}"] = w
                named[f"{prefix}.b{l}"] = b
        named.update(self._trainable())
        return named

    def _trainable(self) -> dict[str, np.ndarray]:
        named: dict[str, np.ndarray] = {}
        if self.top is not None:
            for l, (w, b) in enumerate(zip(self.top.weights, self.top.biases)):
                named[f"top.W{l}"] = w
                named[f"top.b{l}"] = b
        named["out.W"] = self.out.weights
        named["out.b"] = self.out.bias
        return named

    def trainable_params(self) -> dict[str, np.ndarray]:
        # towers are frozen by contract; they never appear here
        return self._trainable()

    def project_names(self) -> tuple[str, ...]:
        return ()

    def loglik_and_grads(self, x1, x2, targets):
        targets = np.asarray(targets)
        fused = fuse_features(self.tower_a, self.tower_v, x1, x2)
        top_trace = forward(self.top, fused) if self.top is not None else None
        feats = top_trace.features if top_trace is not None else fused
        probs = self.out.probabilities(feats)
        n = probs.shape[0]
        loglik = float(np.log(np.maximum(probs[np.arange(n), targets], PROB_FLOOR)).mean())
        delta = target_delta(probs, targets, 1.0 / n)
        grad_w, grad_b, delta_feats = self.out.gradients(feats, delta)
        grads = {"out.W": grad_w, "out.b": grad_b}
        if top_trace is not None:
            tg = backward(self.top, top_trace, delta_feats)
            grads.update({f"top.W{l}": g for l, g in enumerate(tg.weights)})
            grads.update({f"top.b{l}": g for l, g in enumerate(tg.biases)})
        return loglik, grads


def average_posteriors(posteriors) -> np.ndarray:
    """Unweighted arithmetic mean of probability vectors, renormalized.

    Inputs must already lie on the simplex (within 1e-9); the mean is
    renormalized so the result sums to 1 within 1e-12.
    """
    if posteriors is None or len(posteriors) == 0:
        raise ValueError("no posteriors to average")
    vecs = [as_vector(p, f"posterior {i}") for i, p in enumerate(posteriors)]
    length = vecs[0].shape[0]
    for i, v in enumerate(vecs):
        if v.shape[0] != length:
            raise ShapeError(f"posterior {i} has length {v.shape[0]}, expected {length}")
        if abs(v.sum() - 1.0) > SIMPLEX_TOL or v.min() < -SIMPLEX_TOL:
            raise ValueError(f"posterior {i} is not on the simplex")
    mean = np.mean(vecs, axis=0)
    return mean / mean.sum()


class Ensemble:
    """Fixed-order posterior average over classifiers sharing the same leaves."""

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

    @property
    def num_classes(self) -> int:
        return self.members[0].num_classes

    def posterior_batch(self, x1, x2) -> np.ndarray:
        stacked = np.stack([m.posterior_batch(x1, x2) for m in self.members])
        mean = stacked.mean(axis=0)
        return mean / mean.sum(axis=-1, keepdims=True)

    def posterior(self, x1, x2) -> np.ndarray:
        return average_posteriors([m.posterior(x1, x2) for m in self.members])
