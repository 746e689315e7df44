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
    "matmul",
    "hadamard",
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


def matmul(a, b, transpose_a: bool = False, transpose_b: bool = False) -> np.ndarray:
    """Matrix product with optional transposition of either operand.

    Identical inputs give bit-identical results at a fixed BLAS thread
    count. Across thread counts the last bits can differ: OpenBLAS moves
    output columns between kernels that sum in different orders.
    """
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    left = a.T if transpose_a else a
    right = b.T if transpose_b else b
    if left.shape[1] != right.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree, left {left.shape} x right {right.shape}"
        )
    return left @ right


def hadamard(u, v) -> np.ndarray:
    """Componentwise vector product."""
    u = as_vector(u, "left operand")
    v = as_vector(v, "right operand")
    if u.shape[0] != v.shape[0]:
        raise ShapeError(f"hadamard: length mismatch, {u.shape[0]} vs {v.shape[0]}")
    return u * v


def frobenius_norm(m) -> float:
    """sqrt(m . m) over the raveled entries.

    The dot product is einsum's own loop, which sums in one fixed order; a
    threaded BLAS dot splits its sum by thread count.
    """
    v = np.asarray(m, dtype=np.float64).ravel()
    return float(np.sqrt(np.einsum("i,i", v, v)))


def frobenius_project(m, lam: float) -> np.ndarray:
    """Rescale onto the Frobenius ball of radius lam: m * min(1, lam / ||m||_F).

    Idempotent; a matrix already inside the ball is returned unchanged
    (as a copy, all operations here are pure).
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    m = as_matrix(m)
    norm = frobenius_norm(m)
    if norm <= lam:
        return m.copy()
    return m * (lam / norm)
