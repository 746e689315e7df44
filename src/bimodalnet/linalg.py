"""Dense double-precision primitives shared by every module.

Matrices are 2-D float64 numpy arrays, vectors 1-D. Everything stays in
double precision: gradient checks at 1e-6 relative tolerance are not
feasible in single precision.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import ctypes
import functools
import math
import os
import queue
import threading
from collections.abc import Mapping

import numpy as np

__all__ = [
    "FlatArrays",
    "ShapeError",
    "as_ints",
    "as_matrix",
    "both",
    "first_nonfinite",
    "frobenius_norm",
    "frobenius_project",
    "lanes_open",
    "leaf_pieces",
    "one_blas_thread",
    "row_blocks",
]

# Most bytes of one (rows, C) float64 piece of a leaf-width product, such as
# f @ V, that a head forms at a time: half of a 2 MiB L2 cache, so each piece
# is used while it is still in cache, and a read holds no second leaf-width
# array.
LEAF_PIECE_BYTES = 1 << 20

# Least work, in multiply-adds, that each of two independent jobs must hold
# for ``lanes_open`` to run them on two lanes. On a 2-core VM, handing a job
# to the lane worker and taking its result back takes about 16 us (9 us when
# hand-offs follow each other, up to 45 us after the worker has idled for a
# millisecond), and a one-thread dgemm forms about 2e10 multiply-adds a
# second, so 2**19 of them take about 26 us. At the benchmark's small shapes
# every job stays below it: the largest, a 1,024-row evaluation block through
# a 20-16-8 tower (459k), and a pair of such blocks, which
# ``training.evaluate`` weighs as 1,024 rows times a head's 16 x 8 leaf-width
# matrix (131k). The smallest at paper shapes, f @ V of a 32-row step (8.5M),
# is 16 times above it. An entry of an elementwise pass,
# counted as one multiply-add, takes longer than that, so such a pass errs
# toward one lane.
LANE_MIN_WORK = 1 << 19


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


def _check_shapes(arrays, shapes) -> None:
    """A ShapeError naming the first array of ``arrays`` whose shape is not
    the one ``shapes`` gives under its name, in the order of ``shapes``, then
    of the arrays ``shapes`` does not name; a missing array has shape None."""
    for name in [*shapes, *(n for n in arrays if n not in shapes)]:
        got, want = arrays.get(name), shapes.get(name)
        got = None if got is None else np.shape(got)
        if got != want:
            raise ShapeError(f"array {name} has shape {got}, expected {want}")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


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


def first_nonfinite(a: np.ndarray) -> int:
    """Index of the first entry of float64 ``a``, in C order, that is NaN or
    +-inf, else -1.

    A finite sum has only finite terms, so a finite sum of squares (one BLAS
    dot over the entries, in memory order) clears the whole array; a sum that
    is not finite, because an entry is or because squares overflow, is
    checked entry by entry. Only the sum's finiteness is read, which no BLAS
    thread count changes.
    """
    v = a.ravel("K")  # a view when the entries are contiguous
    with np.errstate(over="ignore", invalid="ignore"):  # np.dot warns on overflow
        if math.isfinite(v @ v):
            return -1
    bad = np.flatnonzero(~np.isfinite(a))
    return int(bad[0]) if bad.size else -1


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


@functools.cache
def _openblas(name: str, restype=ctypes.c_int, argtypes=()):
    """The function ``name`` (say ``openblas_get_num_threads``) of the OpenBLAS
    library this process has loaded, under the symbol prefix and suffix of
    its build, declared with ``restype`` and ``argtypes``; None when no such
    library or function is found."""
    try:
        with open("/proc/self/maps") as maps:  # a mapped file's path is its line's sixth field
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_{name}64_", f"{name}64_", name):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.restype, function.argtypes = restype, list(argtypes)
                return function
    return None


_scope_lock = threading.Lock()
_scopes = 0
_restore_threads = None
_lanes = False


@contextlib.contextmanager
def one_blas_thread():
    """A scope (or decorator) in which OpenBLAS runs on one thread, so no
    result depends on the thread count the environment set, and in which
    lanes may open on a process that can run on two CPUs or more.

    Scopes nest and are process-wide, whichever thread opens them: the first
    to open saves the OpenBLAS thread count, sets it to 1 and reads the CPU
    affinity; the last to close, on any exit, restores the count and closes
    the lanes. Without an OpenBLAS handle nothing is set, and lanes stay shut.
    """
    global _scopes, _restore_threads, _lanes
    with _scope_lock:
        if _scopes == 0:
            get = _openblas("openblas_get_num_threads")
            set_ = _openblas("openblas_set_num_threads", None, (ctypes.c_int,))
            if get is not None and set_ is not None:  # found in /proc: sched_getaffinity exists
                _restore_threads = functools.partial(set_, get())
                set_(1)
                _lanes = len(os.sched_getaffinity(0)) >= 2
        _scopes += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scopes -= 1
            if _scopes == 0:
                if _restore_threads is not None:
                    _restore_threads()
                _restore_threads, _lanes = None, False


def lanes_open(work: int) -> bool:
    """Whether two independent jobs of at least ``work`` multiply-adds each
    should run on two lanes (``both``): the work reaches LANE_MIN_WORK and a
    ``one_blas_thread`` scope is open on two CPUs or more, so every product is
    the one-thread product on either lane."""
    return work >= LANE_MIN_WORK and _lanes


class _Lane:
    """The lane worker: one daemon thread that runs each job it is handed in
    the context the job came with, and hands back its result or exception."""

    def __init__(self):
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.results: queue.SimpleQueue = queue.SimpleQueue()
        self.busy = threading.Lock()  # held by the one caller the worker serves
        threading.Thread(target=self._serve, name="bimodalnet-lane", daemon=True).start()

    def _serve(self):
        while True:
            context, job, args = self.jobs.get()
            try:
                self.results.put((True, context.run(job, *args)))
            except BaseException as exc:  # raised again by the caller, in its thread
                self.results.put((False, exc))
            del context, job, args  # no argument outlives its job


_lane: _Lane | None = None
_lane_start = threading.Lock()  # one worker, however many threads call first


def _forget_lane() -> None:
    global _lane, _lane_start
    _lane, _lane_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_lane)


def both(first, first_args, second, second_args):
    """``(first(*first_args), second(*second_args))``, with the second job run
    by the lane worker, started on first use, while the calling thread runs
    the first; the two must not touch each other's outputs.

    The worker runs its job in a copy of the caller's ``contextvars`` context,
    which holds numpy's error state, and hands back its result, or its
    exception, which is raised here once the first job is done. The call
    returns only when both jobs have finished. When the worker is serving
    another caller (or this is the worker itself), the calling thread runs
    both jobs, the first first. Combine the results in a fixed order: which
    thread formed a result never changes its bits.
    """
    global _lane
    lane = _lane
    if lane is None:
        with _lane_start:
            if _lane is None:
                _lane = _Lane()
            lane = _lane
    if not lane.busy.acquire(blocking=False):
        return first(*first_args), second(*second_args)
    try:
        lane.jobs.put((contextvars.copy_context(), second, second_args))
        try:
            a = first(*first_args)
        finally:
            try:
                ok, b = lane.results.get()
            except BaseException:  # interrupted: a late result must reach no later caller
                _lane = None
                raise
    finally:
        lane.busy.release()
    if not ok:
        raise b
    return a, b


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
