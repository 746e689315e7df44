"""Uni-modal sigmoid towers and their exact backward pass.

A tower is a stack of sigmoid layers

    h_l = sigmoid(W_l^T v_l + b_l),   v_l = h_{l-1},   h_0 = x,

with ``weights[l]`` of shape ``(K_l, K_{l+1})``. The last post-activation is
the tower's feature vector ``v_L``, consumed by a classifier head (see
``fusion`` for the composition of towers and heads).

The forward pass keeps every post-activation ``h_l``; the backward pass
takes sigma'(u_l) = h_l (1 - h_l) from them, so training evaluates one
sigmoid per layer. A read that needs only the features takes them from
``forward_features``, which keeps one layer's activations at a time.

``forward`` and ``forward_features`` accept a single input (1-D) or a
batch of row vectors (2-D); ``backward`` takes batch rows only. A tower
holds the very arrays it is built from (``MlpTower.from_arrays``), with no
copy. No function writes to its arguments, with four exceptions:
``init_params`` fills the arrays it is given (a model build passes views
of its parameter vector), and the other three write through an ``out``
argument. ``backward`` writes its gradients into ``out`` when it is given
one, the stack's gradient arrays in ``layer_names`` order (a classifier
passes views of its gradient vector); ``softmax`` writes its result into
``out``, which may be the logits array itself (a head normalises the
logits it owns in place); and ``sigmoid`` writes into ``out``, which may
be its input (a forward pass activates the pre-activation it allocated in
place). Every other in-place operation acts on a buffer the function
allocated itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import Optional

import numpy as np

from .linalg import ShapeError, _check_shapes, first_nonfinite

DEFAULT_INIT_SCALE = 0.05

# floor on a target's probability before its log is taken
PROB_FLOOR = 1e-300


@functools.cache
def layer_names(num_layers: int) -> tuple[str, ...]:
    """Array names ``W0, b0, W1, b1, ...`` of a stack of ``num_layers`` layers
    (cached: every model construction and fused-top step names its stacks)."""
    return tuple(f"{p}{l}" for l in range(num_layers) for p in "Wb")


def sigmoid(u, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Componentwise 1 / (1 + exp(-u)), computed as 0.5 * (1 + tanh(u / 2)).

    The tanh form never overflows and saturates to exactly 0 and 1 for
    large |u|; it is within 2.3e-16 of the exact logistic function. The
    result is written into ``out`` when given, which may be ``u`` itself.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.multiply(u, 0.5, out=np.empty_like(u) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax(logits, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction (1-D input gives 1-D output).

    The result is written into ``out`` when given; ``out=logits`` normalises
    a float64 logits array in place, bit-identical to the copying form. The
    row maxima of batch rows come from one ``np.maximum.reduceat`` over the
    flat entries, faster than ``max(axis=-1)`` for short rows and exact in
    any order, so the result is bit-identical to the ``max`` form.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim > 1 and z.size:
        width = z.shape[-1]
        top = np.maximum.reduceat(z.reshape(-1), np.arange(0, z.size, width))
        top = top.reshape(z.shape[:-1] + (1,))
    else:
        top = z.max(axis=-1, keepdims=True)
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


@dataclass
class MlpTower:
    """Sigmoid stack with layer dims ``K_0 .. K_L`` (``K_0`` = input dim).

    The arrays are checked against ``layer_shapes(layer_dims)``, and for
    finite values unless ``_finite`` says an init function drew them or
    ``load_model``'s reader checked them.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    _finite: InitVar[bool] = False

    def __post_init__(self, _finite: bool):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        named = {**{f"W{l}": w for l, w in enumerate(self.weights)},
                 **{f"b{l}": b for l, b in enumerate(self.biases)}}
        _check_shapes(named, layer_shapes(self.layer_dims))
        for l, layer in enumerate(zip(self.weights, self.biases)):
            if not _finite and any(first_nonfinite(a) >= 0 for a in layer):
                raise ValueError(f"layer {l}: non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    def param_arrays(self) -> dict[str, np.ndarray]:
        """The weights and biases by their ``layer_names`` names, in that order."""
        stack = [a for pair in zip(self.weights, self.biases) for a in pair]
        return dict(zip(layer_names(self.num_layers), stack))

    @classmethod
    def from_arrays(cls, arrays, _finite: bool = False) -> "MlpTower":
        """The tower holding ``arrays`` themselves, keyed as in
        ``param_arrays``; its layer dims are the weights' shapes."""
        stack = [arrays[name] for name in layer_names((len(arrays) + 1) // 2)]
        dims = [w.shape[0] for w in stack[:1]] + [w.shape[-1] for w in stack[0::2]]
        return cls(dims, stack[0::2], stack[1::2], _finite)


@dataclass
class ForwardTrace:
    """Input plus per-layer post-activations ``h_l = sigmoid(u_l)``."""

    x: np.ndarray
    post: list[np.ndarray]

    @property
    def features(self) -> np.ndarray:
        return self.post[-1]


@dataclass
class TowerGradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    delta_input: Optional[np.ndarray]  # None when backward skipped it


def layer_shapes(layer_dims) -> dict[str, tuple[int, ...]]:
    """The shape of each array of a stack with layer dims ``layer_dims``, by
    its ``layer_names`` name, in that order."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError("layer_dims must list the input dim and at least one layer")
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer dims must be >= 1, got {dims}")
    shapes = [s for k, n in zip(dims, dims[1:]) for s in ((k, n), (n,))]
    return dict(zip(layer_names(len(dims) - 1), shapes))


def init_params(arrays, seed, scale: float = DEFAULT_INIT_SCALE) -> None:
    """The init rule of every part: fill its weight arrays, in the order of
    ``arrays`` (its payload order), with draws of ``default_rng(seed)``
    uniform in [-scale, scale], and its biases, the 1-D arrays, with zeros.

    Each array is filled in place, with no temporary: ``rng.random(out=a)``,
    then ``a *= 2 scale`` and ``a += -scale``. That is bit for bit
    ``rng.uniform(-scale, scale, a.shape)``, which numpy computes as
    low + (high - low) * u from the same doubles u.
    """
    low, high = -float(scale), float(scale)
    if not math.isfinite(high - low):
        raise OverflowError(f"init range [{low}, {high}] exceeds the float range")
    rng = np.random.default_rng(seed)
    for a in arrays.values():
        if a.ndim == 1:
            a.fill(0.0)
            continue
        rng.random(out=a)
        a *= high - low
        a += low


def init_arrays(shapes, seed, scale: float = DEFAULT_INIT_SCALE) -> dict[str, np.ndarray]:
    """New arrays of ``shapes``, by name and in that order, filled by the init
    rule (``init_params``)."""
    arrays = {name: np.empty(shape) for name, shape in shapes.items()}
    init_params(arrays, seed, scale)
    return arrays


def init_tower(layer_dims, seed, scale: float = DEFAULT_INIT_SCALE) -> MlpTower:
    """A tower whose arrays follow the init rule (``init_params``): seeded
    uniform [-scale, scale] weights, zero biases. Identical (layer_dims,
    seed, scale) give a bit-identical tower.
    """
    return MlpTower.from_arrays(init_arrays(layer_shapes(layer_dims), seed, scale), _finite=True)


def _activations(tower: MlpTower, x):
    """The tower's post-activations of ``x``, one layer at a time."""
    if x.shape[-1] != tower.input_dim:
        raise ShapeError(
            f"input dim {x.shape[-1]} does not match tower input {tower.input_dim}"
        )
    h = x
    for w, b in zip(tower.weights, tower.biases):
        u = h @ w
        u += b
        h = sigmoid(u, out=u)
        yield h


def forward(tower: MlpTower, x) -> ForwardTrace:
    """Run the tower, keeping every post-activation for the backward pass."""
    x = np.asarray(x, dtype=np.float64)
    return ForwardTrace(x, list(_activations(tower, x)))


def forward_features(tower: MlpTower, x) -> np.ndarray:
    """The tower's last post-activation of ``x``, bit for bit
    ``forward(tower, x).features``; each layer's is dropped once the next
    is formed."""
    for h in _activations(tower, np.asarray(x, dtype=np.float64)):
        pass
    return h


def backward(tower: MlpTower, trace: ForwardTrace, delta_top,
             out: Optional[list[np.ndarray]] = None, input_delta: bool = True) -> TowerGradients:
    """Gradients of a scalar objective E from delta_top = dE/d(features).

    Follows the ascent convention: the returned arrays are dE/dW_l, dE/db_l
    and, with ``input_delta``, dE/dx (else ``delta_input`` is None and the
    input layer's projection through W_0 is skipped). The delta recursion
    applies sigma'(u_l) = h_l (1 - h_l), taken from the trace's
    post-activations, before projecting through W_l; this placement is
    pinned by the finite-difference suite.
    The trace and delta_top hold batch rows; gradients are summed over
    rows, so pre-scale delta_top by 1/B to get batch means. They are written
    into ``out`` when given, the gradient arrays in ``layer_names`` order,
    else into new arrays.
    """
    delta = np.asarray(delta_top, dtype=np.float64)
    if delta.ndim != 2 or delta.shape != trace.post[-1].shape:
        raise ShapeError(
            f"delta_top shape {delta.shape} is not the batch rows of features "
            f"{trace.post[-1].shape}"
        )
    if out is None:
        out = [np.empty(a.shape) for a in tower.param_arrays().values()]
    for l in reversed(range(tower.num_layers)):
        h = trace.post[l]
        s = 1.0 - h
        s *= h
        s *= delta  # dE/du_l
        h_prev = trace.x if l == 0 else trace.post[l - 1]
        np.matmul(h_prev.T, s, out=out[2 * l])
        np.add.reduce(s, axis=0, out=out[2 * l + 1])
        delta = s @ tower.weights[l].T if l or input_delta else None
    return TowerGradients(out[0::2], out[1::2], delta)


def target_delta(probs: np.ndarray, targets: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Softmax/cross-entropy error signal (t - p) * scale, batch rows."""
    delta = -probs
    delta[np.arange(probs.shape[0]), targets] += 1.0
    if scale != 1.0:
        delta *= scale
    return delta


def log_likelihoods(probs: np.ndarray, targets) -> np.ndarray:
    """Per-row log p(target), with the probability clamped at PROB_FLOOR."""
    return np.log(np.maximum(probs[np.arange(probs.shape[0]), targets], PROB_FLOOR))
