"""Datasets, model persistence, and the planted-interaction synthetic task.

Dataset files are a fixed little-endian binary layout, read whole
(``load_dataset``) or a block of rows at a time (``open_dataset``); model
files are a short ASCII header followed by a raw float64 payload. Both
round-trip bit-identically.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import InitVar, dataclass

import numpy as np

from .bilinear import LabelTree
from .fusion import KINDS, Classifier, FormatError, ModelSpec
from .linalg import FlatArrays, as_ints, first_nonfinite

DATASET_MAGIC = b"BMDATSET"
DATASET_VERSION = 1
MODEL_MAGIC = "bimodalnet-model"
MODEL_VERSION = "v1"

# Planted-logit margins: the bilinear (group) signal must dominate the
# per-leaf linear signal or group identity leaks into linear decoders.
GROUP_MARGIN = 3.0
LINEAR_MARGIN = 1.0

SPLITS = ("train", "test")


class VersionError(FormatError):
    """File was written by an unsupported format version."""


def _nonfinite_row(block: np.ndarray) -> int:
    """Index of the first row of the 2-D ``block`` holding a non-finite value,
    else -1 (``linalg.first_nonfinite`` over its entries)."""
    k = first_nonfinite(block)
    return k // block.shape[1] if k >= 0 else -1


@dataclass
class Dataset:
    """Labeled bimodal samples (x1_i, x2_i, y_i) plus the label tree, in memory.

    ``rows(start, stop)`` returns views of the feature rows, as
    ``DatasetFile.rows`` returns its buffers, so ``evaluate`` reads both alike.
    The features are checked for finite values, except by ``load_dataset``,
    whose reader has checked them (``_finite``).
    """

    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    tree: LabelTree
    split: str = "train"
    _finite: InitVar[bool] = False

    def __post_init__(self, _finite: bool):
        self.x1 = np.asarray(self.x1, dtype=np.float64)
        self.x2 = np.asarray(self.x2, dtype=np.float64)
        self.y = as_ints(self.y, "labels")
        if self.x1.ndim != 2 or self.x2.ndim != 2 or self.y.ndim != 1:
            raise ValueError("x1/x2 must be 2-D sample rows and y 1-D labels")
        if not (self.x1.shape[0] == self.x2.shape[0] == self.y.shape[0]):
            raise ValueError(
                f"sample counts disagree: x1 {self.x1.shape[0]}, "
                f"x2 {self.x2.shape[0]}, y {self.y.shape[0]}"
            )
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.tree.num_leaves):
            raise ValueError(
                f"labels must lie in [0, {self.tree.num_leaves}), "
                f"got range [{self.y.min()}, {self.y.max()}]"
            )
        if not _finite and (_nonfinite_row(self.x1) >= 0 or _nonfinite_row(self.x2) >= 0):
            raise ValueError("features must be finite")

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @property
    def d1(self) -> int:
        return int(self.x1.shape[1])

    @property
    def d2(self) -> int:
        return int(self.x2.shape[1])

    @property
    def num_classes(self) -> int:
        return self.tree.num_leaves

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of feature rows ``[start, stop)`` of both modalities."""
        return self.x1[start:stop], self.x2[start:stop]

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and self.split == other.split
            and self.tree == other.tree
            and np.array_equal(self.x1, other.x1)
            and np.array_equal(self.x2, other.x2)
            and np.array_equal(self.y, other.y)
        )


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the planted-interaction generator.

    ``linear_scale`` rescales the per-leaf linear terms; 0 leaves the labels
    a pure function of the bilinear interaction (only sensible when every
    group has a single leaf).
    """

    d1: int
    d2: int
    num_classes: int
    num_groups: int
    n_train: int
    n_test: int
    noise_std: float
    interaction_rank: int
    seed: int
    linear_scale: float = 1.0

    def __post_init__(self):
        if min(self.d1, self.d2, self.num_classes, self.num_groups,
               self.n_train, self.n_test, self.interaction_rank) < 1:
            raise ValueError("all dims, counts and the interaction rank must be >= 1")
        if self.num_classes % self.num_groups:
            raise ValueError(
                f"{self.num_classes} classes do not divide into {self.num_groups} groups"
            )
        if self.interaction_rank > min(self.d1, self.d2):
            raise ValueError(
                f"interaction_rank {self.interaction_rank} exceeds min(d1, d2) = "
                f"{min(self.d1, self.d2)}"
            )
        if not all(math.isfinite(v) and v >= 0 for v in (self.noise_std, self.linear_scale)):
            raise ValueError("noise_std and linear_scale must be finite and >= 0")


@dataclass
class PlantedModel:
    """The generator's own scoring rule, which labels the stored features.

    Each group owns a rank-R interaction tensor built from unit projection
    columns; for an even number of groups, consecutive groups 2k, 2k+1 share
    one tensor with opposite signs (so two groups reduces to the sign of a
    single projection product), and for an odd number every group draws its
    own tensor. Each leaf's bilinear tensor therefore has rank R, and leaves
    under one group differ only by "slot" linear terms reused across groups.
    """

    proj1: np.ndarray        # (d1, n_tensors * R), unit columns
    proj2: np.ndarray        # (d2, n_tensors * R)
    rank: int
    antipodal: bool          # groups 2k, 2k+1 share tensor k with +- signs
    group_margin: float
    lin1: np.ndarray         # (C, d1)
    lin2: np.ndarray         # (C, d2)
    tree: LabelTree

    def group_scores(self, x1, x2) -> np.ndarray:
        prods = (x1 @ self.proj1) * (x2 @ self.proj2)
        per_tensor = prods.reshape(len(prods), -1, self.rank).sum(axis=2)
        if not self.antipodal:
            return per_tensor
        n, half = per_tensor.shape
        return np.stack([per_tensor, -per_tensor], axis=2).reshape(n, 2 * half)

    def logits(self, x1, x2) -> np.ndarray:
        per_group = self.group_margin * self.group_scores(x1, x2)
        return per_group[:, self.tree.group_of] + x1 @ self.lin1.T + x2 @ self.lin2.T

    def predict(self, x1, x2) -> np.ndarray:
        return np.argmax(self.logits(x1, x2), axis=1)


def _unit_columns(rng, d: int, k: int) -> np.ndarray:
    # orthonormal when k <= d; otherwise independent unit directions
    raw = rng.standard_normal((d, k))
    if k <= d:
        q, _ = np.linalg.qr(raw)
        return np.ascontiguousarray(q[:, :k])
    return raw / np.linalg.norm(raw, axis=0, keepdims=True)


def generate_with_planted(spec: SynthSpec):
    """Like generate_synthetic but also returns the planted scoring rule."""
    rng = np.random.default_rng(spec.seed)
    tree = LabelTree.balanced(spec.num_classes, spec.num_groups)
    r = spec.interaction_rank
    g = spec.num_groups
    antipodal = g % 2 == 0
    n_dirs = (g // 2 if antipodal else g) * r
    proj1 = _unit_columns(rng, spec.d1, n_dirs)
    proj2 = _unit_columns(rng, spec.d2, n_dirs)
    # Slot directions are reused across groups and kept orthogonal to the
    # interaction directions, so the leaf argmax factorizes exactly into
    # (group argmax) x (slot argmax). Group tensors are sign-symmetric or
    # exchangeable and slot directions exchangeable, hence every leaf is
    # equally likely, and no linear decoder on [x1; x2] sees the group.
    slots = spec.num_classes // spec.num_groups
    lin_scale1 = spec.linear_scale * LINEAR_MARGIN / np.sqrt(spec.d1)
    lin_scale2 = spec.linear_scale * LINEAR_MARGIN / np.sqrt(spec.d2)
    slot1 = rng.standard_normal((slots, spec.d1))
    slot2 = rng.standard_normal((slots, spec.d2))
    slot1 = lin_scale1 * (slot1 - (slot1 @ proj1) @ np.linalg.pinv(proj1))
    slot2 = lin_scale2 * (slot2 - (slot2 @ proj2) @ np.linalg.pinv(proj2))
    lin1 = np.tile(slot1, (spec.num_groups, 1))
    lin2 = np.tile(slot2, (spec.num_groups, 1))
    planted = PlantedModel(proj1, proj2, r, antipodal, GROUP_MARGIN, lin1, lin2, tree)

    # Features are noisy measurements; the planted rule labels the features
    # as stored, so the planted model reproduces the labels exactly.
    n = spec.n_train + spec.n_test
    x1 = rng.standard_normal((n, spec.d1))
    x2 = rng.standard_normal((n, spec.d2))
    if spec.noise_std > 0:
        x1 = x1 + spec.noise_std * rng.standard_normal(x1.shape)
        x2 = x2 + spec.noise_std * rng.standard_normal(x2.shape)
    y = planted.predict(x1, x2)
    cut = spec.n_train
    train = Dataset(x1[:cut].copy(), x2[:cut].copy(), y[:cut].copy(), tree, "train")
    test = Dataset(x1[cut:].copy(), x2[cut:].copy(), y[cut:].copy(), tree, "test")
    return train, test, planted


def generate_synthetic(spec: SynthSpec):
    """Seeded (train, test) draw: Gaussian features with feature noise added,
    then labeled, as stored, by a planted rank-R bilinear interaction per
    group plus per-leaf linear terms."""
    train, test, _ = generate_with_planted(spec)
    return train, test


# ---------------------------------------------------------------- datasets

_DS_HEAD = struct.Struct("<8sIBQIIII")  # magic, version, split, n, d1, d2, C, G


class _Cursor:
    """Bounds-checked reader over the open file ``fh``, whose size it takes
    from ``fstat``, starting at byte offset ``off`` (the file's position)."""

    def __init__(self, fh, off: int = 0):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.off = off

    def advance(self, nbytes: int, what: str) -> int:
        """Offset of the next ``nbytes`` bytes, which the cursor then moves past."""
        if self.off + nbytes > self.size:
            raise FormatError(
                f"truncated file: needed {nbytes} bytes for {what} "
                f"at byte offset {self.off}, have {self.size - self.off}"
            )
        self.off += nbytes
        return self.off - nbytes

    def array(self, dtype: str, shape, what: str) -> np.ndarray:
        """The next array of ``shape``, read straight into a buffer of its own,
        which is allocated only after the file is known to hold it."""
        self.advance(math.prod(shape) * np.dtype(dtype).itemsize, what)
        out = np.empty(shape, dtype=dtype)
        if self.fh.readinto(out) != out.nbytes:
            raise FormatError(f"truncated file: {what} ended before byte offset {self.off}")
        return out

    def done(self, what: str):
        if self.off != self.size:
            raise FormatError(
                f"{self.size - self.off} trailing bytes after {what} "
                f"at byte offset {self.off}"
            )


def save_dataset(dataset: Dataset, path) -> None:
    """Write the header, then each array straight from its buffer; only the
    int32 tables are converted copies."""
    head = _DS_HEAD.pack(
        DATASET_MAGIC, DATASET_VERSION, SPLITS.index(dataset.split),
        dataset.n, dataset.d1, dataset.d2,
        dataset.num_classes, dataset.tree.num_groups,
    )
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(dataset.tree.group_of.astype("<i4"))
        fh.write(np.ascontiguousarray(dataset.x1, dtype="<f8"))
        fh.write(np.ascontiguousarray(dataset.x2, dtype="<f8"))
        fh.write(dataset.y.astype("<i4"))


class DatasetFile:
    """An open dataset file whose features are read a block of rows at a time.

    Opening reads and checks the header, the leaf-to-group table and the
    labels, and checks that the file holds both feature regions, so a read
    holds the labels (``y``) and one block of features, never the split.
    ``rows(start, stop)`` reads feature rows into two buffers sized to the
    largest block asked for and reused on every call: the next call
    overwrites what the last one returned. Use it as a context manager, or
    call ``close``.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._read_head()
        except BaseException:
            self._fh.close()
            raise
        self._x1, self._x2 = np.empty((0, self.d1)), np.empty((0, self.d2))

    def _read_head(self):
        cur = _Cursor(self._fh)
        magic, version, split_id, n, d1, d2, c, g = _DS_HEAD.unpack(
            cur.array("B", (_DS_HEAD.size,), "header")
        )
        if magic != DATASET_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte offset 0: not a dataset file")
        if version != DATASET_VERSION:
            raise VersionError(
                f"unsupported dataset version {version}, expected {DATASET_VERSION}"
            )
        if c < 1:
            raise FormatError(f"invalid header: class count must be >= 1, got {c}")
        if not 1 <= g <= c:
            raise FormatError(f"invalid header: need 1 <= groups <= classes, got G={g} C={c}")
        if d1 < 1 or d2 < 1:
            raise FormatError(f"invalid header: feature dims must be >= 1, got ({d1}, {d2})")
        if split_id >= len(SPLITS):
            raise FormatError(f"invalid header: unknown split id {split_id}")
        group_of = cur.array("<i4", (c,), "leaf-to-group table")
        self._x1_off = cur.advance(8 * n * d1, "first-modality features")
        self._x2_off = cur.advance(8 * n * d2, "second-modality features")
        labels_off = cur.off
        self._fh.seek(labels_off)
        y = cur.array("<i4", (n,), "labels")
        cur.done("labels")
        try:
            self.tree = LabelTree(group_of.astype(np.int64), g)
        except ValueError as exc:
            raise FormatError(f"invalid dataset contents: {exc}") from exc
        bad = np.flatnonzero((y < 0) | (y >= c))
        if bad.size:
            k = int(bad[0])
            raise FormatError(f"label {y[k]} of row {k} is outside [0, {c}) "
                              f"at byte offset {labels_off + 4 * k}")
        self.y = y.astype(np.int64)
        self.n, self.d1, self.d2 = n, d1, d2
        self.split = SPLITS[split_id]

    @property
    def num_classes(self) -> int:
        return self.tree.num_leaves

    def _read(self, start: int, x1: np.ndarray, x2: np.ndarray) -> None:
        """Feature rows from ``start`` into ``x1`` and ``x2`` (C-contiguous,
        one row per row); a non-finite value is a FormatError naming the
        byte offset of its row."""
        for out, base, what in ((x1, self._x1_off, "first-modality"),
                                (x2, self._x2_off, "second-modality")):
            row_bytes = 8 * out.shape[1]
            offset = base + row_bytes * start
            self._fh.seek(offset)
            if self._fh.readinto(out) != out.nbytes:
                raise FormatError(f"truncated file: {what} features ended before "
                                  f"byte offset {offset + out.nbytes}")
            row = _nonfinite_row(out)
            if row >= 0:
                raise FormatError(f"non-finite {what} feature in row {start + row} "
                                  f"at byte offset {offset + row_bytes * row}")

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Feature rows ``[start, stop)`` of both modalities, in the reused
        buffers: valid until the next call."""
        if not 0 <= start <= stop <= self.n:
            raise IndexError(f"rows [{start}, {stop}) outside [0, {self.n})")
        if stop - start > len(self._x1):
            self._x1 = self._x2 = None  # freed before the larger buffers are allocated
            self._x1 = np.empty((stop - start, self.d1), dtype="<f8")
            self._x2 = np.empty((stop - start, self.d2), dtype="<f8")
        x1, x2 = self._x1[:stop - start], self._x2[:stop - start]
        self._read(start, x1, x2)
        return x1, x2

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def open_dataset(path) -> DatasetFile:
    """Open a dataset file for reading in blocks (see ``DatasetFile``)."""
    return DatasetFile(path)


def load_dataset(path) -> Dataset:
    """Read a whole dataset file; the features are read straight into arrays
    of their own, through the same reader as ``open_dataset``."""
    with open_dataset(path) as reader:
        x1 = np.empty((reader.n, reader.d1), dtype="<f8")
        x2 = np.empty((reader.n, reader.d2), dtype="<f8")
        reader._read(0, x1, x2)
        return Dataset(x1, x2, reader.y, reader.tree, reader.split, _finite=True)


# ------------------------------------------------------------------ models

def unstorable_at(text: str) -> int:
    """Index of the first character of ``text`` that a model header value
    cannot hold (a non-ASCII character or a line break), or -1."""
    if text.isascii() and "\n" not in text:  # the common case, without a regex
        return -1
    return re.search(r"[^\x00-\x09\x0b-\x7f]", text).start()


def _array_line(name: str, shape) -> str:
    return f"array: {name} {','.join(map(str, shape))}"


def save_model(model, path) -> None:
    """Write the only v1 header that describes ``model`` (the field lines of
    its spec, ``ModelSpec.fields``, then an ``array:`` line per ``params()``
    array) and a raw float64 little-endian payload: the buffers of the
    ``params()`` arrays, in order. A header value that is not single-line
    ASCII is a ValueError naming its key, raised before ``path`` is opened."""
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    for key, value in model.spec.fields().items():
        if unstorable_at(value) >= 0:
            raise ValueError(f"header value for {key!r} must be single-line ASCII, "
                             f"got {value!r}")
        lines.append(f"{key}: {value}")
    lines += [_array_line(name, arr.shape) for name, arr in model.params().items()]
    with open(path, "wb") as fh:
        fh.write("\n".join(lines + ["binary\n"]).encode("ascii"))
        for arr in model.params().values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def _parse_model_header(fh):
    """(lines, fields, payload offset) of an open model file, which is left
    at the start of the payload: the (byte offset, text) of each line after
    the magic line, and the ``key: value`` of each that is not an ``array:``
    line. The magic line is checked first, read no further than a v1 one, so
    another file fails there; each later line must be ASCII and ``key:
    value`` or ``binary``, and the first that is not, or that repeats a key
    or an array name, is a FormatError naming its offset, with nothing after
    it read; a line that starts ``binary`` must be exactly ``binary\n``, and
    fails at the byte after ``binary``."""
    magic = f"{MODEL_MAGIC} {MODEL_VERSION}\n".encode("ascii")
    first = fh.readline(len(magic))
    if first != magic:
        shown = first.rstrip(b"\n").decode("ascii", "backslashreplace")
        if first.partition(b" ")[0] != MODEL_MAGIC.encode("ascii"):
            raise FormatError(f"bad magic line {shown!r}: not a bimodalnet model file")
        raise VersionError(
            f"unsupported model version {shown!r}, expected {MODEL_MAGIC} {MODEL_VERSION}"
        )
    lines, meta, arrays = [], {}, set()
    offset = len(first)
    marker = b"binary\n"
    while True:
        # a line's first bytes are read apart, so a marker line whose line
        # break is corrupted fails there, before any payload byte is read
        line = fh.readline(len(marker))
        if line == marker:
            break
        if line.startswith(marker[:-1]):
            raise FormatError(f"binary marker not followed by a line break "
                              f"at byte offset {offset + len(marker) - 1}")
        if not line.endswith(b"\n"):
            line += fh.readline()
        if not line.endswith(b"\n"):
            raise FormatError(f"missing binary marker before byte offset {offset + len(line)}")
        try:
            text = line[:-1].decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII header byte at offset {offset + exc.start}") from exc
        key, sep, value = text.partition(": ")
        if not sep:
            raise FormatError(f"malformed header line {text!r} at byte offset {offset}")
        if key == "array":
            name = value.partition(" ")[0]
            if name in arrays:
                raise FormatError(f"array {name!r} listed again at byte offset {offset}")
            arrays.add(name)
        elif key in meta:
            raise FormatError(f"header key {key!r} repeated at byte offset {offset}")
        else:
            meta[key] = value
        lines.append((offset, text))
        offset += len(line)
    return lines, meta, offset + len(marker)


def _checked_shapes(spec: ModelSpec, lines, end: int) -> dict[str, tuple[int, ...]]:
    """``spec.param_shapes()``, once header ``lines`` (as
    ``_parse_model_header`` gives them, the payload at ``end``) are found to
    be the keys of ``spec.fields()``, an ``array:`` line per array of those
    shapes and the ``binary`` line, in order. Else the first line that
    differs is a FormatError naming its byte offset and, in place of an
    array line, the header fields that give it."""
    shapes, keys = spec.param_shapes(), spec.keys()
    wanted = [*keys, *(_array_line(name, shape) for name, shape in shapes.items()), "binary"]
    lines = lines + [(end - len("binary\n"), "binary")]
    found = [text if text.startswith("array: ") else text.partition(": ")[0] for _, text in lines]
    if found == wanted:
        return shapes
    i = next(i for i, (f, w) in enumerate(zip(found, wanted)) if f != w)
    offset, text = lines[i]
    expected = repr(wanted[i])
    if len(keys) <= i < len(wanted) - 1:  # an array of a tower, by its prefix, or of the head
        prefixes = KINDS[spec.kind].prefixes
        part = next((p for p, prefix in enumerate(prefixes[:-1])
                     if wanted[i].startswith(f"array: {prefix}")), len(prefixes) - 1)
        expected += f", which header fields {', '.join(map(repr, spec.part_fields()[part]))} give"
    key, _, value = text.partition(": ")
    at = f"array {value.partition(' ')[0]!r}" if key == "array" else "header line"
    raise FormatError(f"{at} at byte offset {offset} reads {text!r}; expected {expected}")


def _read_arrays(fh, offset: int, shapes) -> FlatArrays:
    """The payload at ``offset`` of an open model file, read into one vector
    and viewed as arrays of ``shapes``; a non-finite entry is a FormatError
    naming its array and byte offset."""
    cur = _Cursor(fh, offset)
    for name, shape in shapes.items():
        cur.advance(8 * math.prod(shape), f"array {name!r}")
    cur.done("payload")
    arrays = FlatArrays(np.empty((cur.off - offset) // 8, dtype="<f8"), shapes)
    if fh.readinto(arrays.flat) != arrays.flat.nbytes:
        raise FormatError(f"truncated file: payload ended before byte offset {cur.off}")
    k = first_nonfinite(arrays.flat)
    if k >= 0:
        name = next(n for n, (start, stop) in arrays.layout.items() if start <= k < stop)
        raise FormatError(f"non-finite value in array {name!r} "
                          f"at byte offset {offset + 8 * k}")
    return arrays


def load_model(path):
    """Rebuild a saved classifier; posteriors of the result are bit-identical.

    The header's fields are read into the model's spec (``ModelSpec.parse``,
    which refuses a missing field and a value other than the one
    ``save_model`` would write for it), and the header's lines must then be
    the spec's field keys and its arrays' manifest, in order
    (``_checked_shapes``). The payload is read straight into the model's
    parameter vector, on which the model is built.
    """
    with open(path, "rb") as fh:
        lines, meta, end = _parse_model_header(fh)
        spec = ModelSpec.parse(meta)
        params = _read_arrays(fh, end, _checked_shapes(spec, lines, end))
    return Classifier(spec, params)
