"""Dense double-precision primitives shared by every module.

Matrices are 2-D float64 numpy arrays, vectors 1-D. Everything stays in
double precision: gradient checks at 1e-6 relative tolerance are not
feasible in single precision.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping

import numpy as np

__all__ = [
    "FlatArrays",
    "ShapeError",
    "as_ints",
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "frobenius_project",
    "leaf_pieces",
    "row_blocks",
]

# Most bytes of one (rows, C) float64 piece of a leaf-width product, such as
# f @ V, that a head forms at a time: half of a 2 MiB L2 cache, so each piece
# is used while it is still in cache, and a read holds no second leaf-width
# array.
LEAF_PIECE_BYTES = 1 << 20


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


def as_ints(a, name: str) -> np.ndarray:
    """``a`` as an int64 array; an entry that the conversion would change (a
    fraction, NaN or +-inf) is a ValueError naming its index."""
    a = np.asarray(a)
    if a.dtype.kind != "f":
        return np.asarray(a, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        ints = a.astype(np.int64)
    changed = np.flatnonzero(ints != a)
    if changed.size:
        i = changed[0]
        raise ValueError(f"{name} must be integers, got {a.flat[i]} at index {i}")
    return ints


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


def row_blocks(n: int, most: int) -> list[tuple[int, int]]:
    """``[start, stop)`` ranges tiling ``n`` rows in ``ceil(n / most)`` blocks
    whose sizes differ by at most one row."""
    k = -(-n // most)
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def leaf_pieces(rows: int, num_classes: int) -> list[tuple[int, int]]:
    """The ``row_blocks`` of ``rows`` rows whose (piece, num_classes) float64
    arrays hold at most LEAF_PIECE_BYTES, or one row when a row holds more."""
    return row_blocks(rows, max(1, LEAF_PIECE_BYTES // (8 * num_classes)))


class FlatArrays(Mapping):
    """Named float64 arrays that are consecutive views of one vector ``flat``.

    ``layout`` gives the (start, stop) of every array of the vector in
    ``flat``, in vector order; a mapping made by ``select`` names only some
    of them, but shares the vector, the layout and the view objects. Reading
    ``arrays[name]`` gives the view itself, so an in-place update of it is an
    update of ``flat``; assigning ``arrays[name] = a`` copies ``a`` into the
    view. ``runs`` lists the (start, stop) of each maximal run of named
    arrays that lie back to back in ``flat``.
    """

    def __init__(self, flat: np.ndarray, shapes):
        """Views of consecutive pieces of ``flat`` with the given shapes, in
        order; together the pieces must fill ``flat``."""
        self.flat = flat
        self.layout: dict[str, tuple[int, int]] = {}
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self.layout[name] = (start, stop)
            start = stop
        if start != flat.size:
            raise ShapeError(f"arrays of {start} entries do not fill a vector of {flat.size}")
        self._views = {name: flat[start:stop].reshape(shapes[name])
                       for name, (start, stop) in self.layout.items()}
        self.runs = self._runs()

    @classmethod
    def empty(cls, shapes) -> "FlatArrays":
        """Views of a new, uninitialised vector with the given shapes, in order."""
        return cls(np.empty(sum(math.prod(s) for s in shapes.values())), shapes)

    def zeros_like(self) -> "FlatArrays":
        """The same names over a new zero vector, sharing this ``layout``
        object, so that ``aligned`` accepts the result without comparing
        layouts."""
        twin = copy.copy(self)
        twin.flat = np.zeros_like(self.flat)
        twin._views = {}
        for name, view in self._views.items():
            start, stop = self.layout[name]
            twin._views[name] = twin.flat[start:stop].reshape(view.shape)
        return twin

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        np.copyto(self._views[name], value)

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def select(self, names) -> "FlatArrays":
        """The named arrays, in vector order, over the same vector."""
        wanted = set(names)
        sub = copy.copy(self)
        sub._views = {n: v for n, v in self._views.items() if n in wanted}
        sub.runs = sub._runs()
        return sub

    def aligned(self, arrays) -> np.ndarray:
        """``arrays[name]`` for every name here, laid out as in ``flat``: the
        vector of ``arrays`` itself when it has this layout and every name,
        else a copy (the entries of other names are then zero). Layouts are
        compared by identity before value, so a mapping made by ``zeros_like``
        or ``select`` on the same layout skips the comparison; no reference to
        ``arrays`` is kept."""
        if (isinstance(arrays, FlatArrays)
                and (arrays.layout is self.layout or arrays.layout == self.layout)
                and self._views.keys() <= arrays._views.keys()):
            return arrays.flat
        out = np.zeros_like(self.flat)
        for name, view in self._views.items():
            start, stop = self.layout[name]
            np.copyto(out[start:stop].reshape(view.shape), arrays[name])
        return out

    def _runs(self) -> list[tuple[int, int]]:
        runs: list[tuple[int, int]] = []
        for name in self._views:
            start, stop = self.layout[name]
            if runs and runs[-1][1] == start:
                start = runs.pop()[0]
            runs.append((start, stop))
        return runs
