"""Dense double-precision primitives shared by every module.

Matrices are 2-D float64 numpy arrays, vectors 1-D. Everything stays in
double precision: gradient checks at 1e-6 relative tolerance are not
feasible in single precision.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "frobenius_project",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def frobenius_norm(m) -> float:
    """sqrt(m . m) over the raveled entries.

    The dot product is einsum's own loop, which sums in one fixed order; a
    threaded BLAS dot splits its sum by thread count.
    """
    v = np.asarray(m, dtype=np.float64).ravel()
    return float(np.sqrt(np.einsum("i,i", v, v)))


def frobenius_project(m: np.ndarray, lam: float) -> np.ndarray:
    """Rescale m in place onto the Frobenius ball of radius lam,
    m *= min(1, lam / ||m||_F), and return it.

    Idempotent; a matrix already inside the ball is left untouched.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    m = as_matrix(m)
    norm = frobenius_norm(m)
    if norm > lam:
        m *= lam / norm
    return m
