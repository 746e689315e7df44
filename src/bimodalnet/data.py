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

from .bilinear import (
    FACTORED_SHARED,
    FULL,
    VARIANTS,
    BilinearHead,
    LabelTree,
    array_attrs,
    check_lam,
)
from .fusion import KINDS, OUT, TOP, Classifier, SoftmaxHead
from .linalg import FlatArrays, as_ints
from .mlp import MlpTower, layer_names

DATASET_MAGIC = b"BMDATSET"
DATASET_VERSION = 1
MODEL_MAGIC = "bimodalnet-model"
MODEL_VERSION = "v1"

# Planted-logit margins: the bilinear (group) signal must dominate the
# per-leaf linear signal or group identity leaks into linear decoders.
GROUP_MARGIN = 3.0
LINEAR_MARGIN = 1.0

SPLITS = ("train", "test")


class FormatError(ValueError):
    """File contents are not a valid serialized artifact."""


class VersionError(FormatError):
    """File was written by an unsupported format version."""


def _nonfinite_row(block: np.ndarray) -> int:
    """Index of the first row of ``block`` holding a non-finite value, else -1."""
    # a finite sum has only finite terms; a sum that overflows is checked entry by entry
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.add.reduce(block, axis=None)):
            return -1
    bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
    return int(bad[0]) if bad.size else -1


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
    """Seeded (train, test) draw: Gaussian features labeled by a planted
    rank-R bilinear interaction per group plus per-leaf linear terms, with
    feature noise added after labeling."""
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

def _csv(values) -> str:
    return ",".join(map(str, values))


def _softmax_fields(head: SoftmaxHead) -> dict[str, str]:
    return {"top_dims": _csv(head.top.layer_dims) if head.top is not None else ""}


def _bilinear_fields(head: BilinearHead) -> dict[str, str]:
    fields = {"variant": head.variant, "lambda": repr(float(head.lam))}
    if head.variant != FULL:
        fields["fused_dim"] = str(head.fused_dim)
    if head.tree is not None:
        fields["groups"] = str(head.tree.num_groups)
        fields["group_of"] = _csv(head.tree.group_of.tolist())
    return fields


def unstorable_at(text: str) -> int:
    """Index of the first character of ``text`` that a model header value
    cannot hold (a non-ASCII character or a line break), or -1."""
    if text.isascii() and "\n" not in text:  # the common case, without a regex
        return -1
    return re.search(r"[^\x00-\x09\x0b-\x7f]", text).start()


def _header_keys(spec) -> tuple[str, ...]:
    return ("kind", "classes", "seed", "arch") + spec.fields


def model_header(model) -> bytes:
    """The ASCII header of ``model``'s file, the only v1 header that describes
    it: the fields it has, in ``KINDS[kind].fields`` order after kind,
    classes, seed and arch, then an ``array:`` line per ``params()`` array.
    A value that is not single-line ASCII is a ValueError naming its key."""
    spec = KINDS[model.kind]
    fields = {
        "kind": model.kind,
        "classes": str(model.num_classes),
        "seed": str(int(model.seed)),
        "arch": str(model.arch),
        "modality": str(model.inputs[0] + 1),
    }
    for field, tower in zip(spec.dims, model.towers):
        fields[field] = _csv(tower.layer_dims)
    fields.update(_HEADS[spec.head][0](model.head))
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    for key in _header_keys(spec):
        if key not in fields:
            continue
        if unstorable_at(fields[key]) >= 0:
            raise ValueError(f"header value for {key!r} must be single-line ASCII, "
                             f"got {fields[key]!r}")
        lines.append(f"{key}: {fields[key]}")
    for name, arr in model.params().items():
        lines.append(f"array: {name} {_csv(arr.shape)}")
    lines.append("binary\n")
    return "\n".join(lines).encode("ascii")


def save_model(model, path) -> None:
    """Write ``model_header(model)`` plus a raw float64 little-endian payload:
    the buffers of the ``params()`` arrays, in order. A refused header leaves
    ``path`` as it was."""
    header = model_header(model)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in model.params().values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def _parse_model_header(fh):
    """(header bytes, fields, array shapes by name) of an open model file,
    which is left at the start of the payload. The magic line is checked
    first, read no further than a v1 one, so another file fails there; each
    later line must be ASCII and ``key: value`` or ``binary``, and the first
    that is not is a FormatError naming its offset, with nothing after it
    read; a line that starts ``binary`` must be exactly ``binary\n``, and
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
    raw, meta, shapes = [first], {}, {}
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
            name, _, shape_csv = value.partition(" ")
            try:
                shape = tuple(int(t) for t in shape_csv.split(","))
            except ValueError as exc:
                raise FormatError(f"malformed array shape in {text!r} "
                                  f"at byte offset {offset}") from exc
            if name in shapes:
                raise FormatError(f"array {name!r} listed again at byte offset {offset}")
            shapes[name] = shape
        else:
            if key in meta:
                raise FormatError(f"header key {key!r} repeated at byte offset {offset}")
            meta[key] = value
        raw.append(line)
        offset += len(line)
    return b"".join(raw) + line, meta, shapes


def _read_arrays(fh, offset: int, shapes) -> FlatArrays:
    """The payload at ``offset`` of an open model file, read into one vector
    and viewed as the manifest's arrays; a non-finite entry is a FormatError
    naming its array and byte offset."""
    cur = _Cursor(fh, offset)
    for name, shape in shapes.items():
        if any(d < 0 for d in shape):
            raise FormatError(
                f"negative dimension in shape {shape} of array {name!r} "
                f"at byte offset {cur.off}"
            )
        cur.advance(8 * math.prod(shape), f"array {name!r}")
    cur.done("payload")
    arrays = FlatArrays(np.empty((cur.off - offset) // 8, dtype="<f8"), shapes)
    if fh.readinto(arrays.flat) != arrays.flat.nbytes:
        raise FormatError(f"truncated file: payload ended before byte offset {cur.off}")
    k = _nonfinite_row(arrays.flat[:, None])  # one entry a row
    if k >= 0:
        name = next(n for n, (start, stop) in arrays.layout.items() if start <= k < stop)
        raise FormatError(f"non-finite value in array {name!r} "
                          f"at byte offset {offset + 8 * k}")
    return arrays


def _field(meta: dict[str, str], key: str, parse=str):
    """Header field ``key`` as ``parse`` reads it; a missing field, or one
    ``parse`` refuses, is a FormatError naming the field."""
    if key not in meta:
        raise FormatError(f"missing header field {key!r}")
    try:
        return parse(meta[key])
    except (KeyError, ValueError, OverflowError) as exc:
        raise FormatError(f"invalid {key!r} header field {meta[key]!r}") from exc


def _take_tower(arrays, prefix: str) -> MlpTower:
    """The payload's sigmoid stack ``prefix.W0, prefix.b0, ...``."""
    layers = next(n for n in range(1, len(arrays) + 2) if f"{prefix}.W{n}" not in arrays)
    stack = {name: arrays.pop(f"{prefix}.{name}") for name in layer_names(layers)}
    try:
        return MlpTower.from_arrays(stack, _finite=True)
    except ValueError as exc:
        raise FormatError(f"inconsistent tower {prefix!r}: {exc}") from exc


def _read_softmax_head(meta, arrays, prefix) -> SoftmaxHead:
    top = _take_tower(arrays, prefix + TOP) if f"{prefix}{TOP}.W0" in arrays else None
    named = {} if top is None else {f"{TOP}.{k}": a for k, a in top.param_arrays().items()}
    named.update((name, arrays.pop(prefix + name)) for name in (f"{OUT}.W", f"{OUT}.b"))
    return SoftmaxHead.from_arrays(named, _finite=True)


def _read_bilinear_head(meta, arrays, prefix) -> BilinearHead:
    variant = VARIANTS[_field(meta, "variant", VARIANTS.index)]
    tree = None
    if {"groups", "group_of"} & meta.keys() or variant == FACTORED_SHARED:
        group_of = _field(meta, "group_of", lambda raw: [int(t) for t in raw.split(",")])
        groups = _field(meta, "groups", int)
        try:
            tree = LabelTree(group_of, groups)
        except ValueError as exc:
            raise FormatError(f"header fields 'groups' and 'group_of' disagree: {exc}") from exc
    named = {name: arrays.pop(prefix + name) for name in array_attrs(variant)}
    classes = len(named["b"])
    if tree is not None and tree.num_leaves != classes:
        raise FormatError(f"header field 'group_of' has {tree.num_leaves} leaves; "
                          f"the head has {classes} classes")
    return BilinearHead.from_arrays(variant, named, _field(meta, "lambda", check_lam), tree)


# header fields and reader of each head type of the kind table
_HEADS = {
    "softmax": (_softmax_fields, _read_softmax_head),
    "bilinear": (_bilinear_fields, _read_bilinear_head),
}


def load_model(path):
    """Rebuild a saved classifier; posteriors of the result are bit-identical.

    The model is built from the payload, read straight into its parameter
    vector, and the header fields that no array shape gives, each required.
    The file's header must then be ``model_header`` of that model: the first
    line that differs is a FormatError naming its byte offset.
    """
    with open(path, "rb") as fh:
        header, meta, shapes = _parse_model_header(fh)
        payload = _read_arrays(fh, len(header), shapes)
    spec = _field(meta, "kind", KINDS.__getitem__)
    arrays = dict(payload)  # the build pops each array it takes
    try:
        towers = [_take_tower(arrays, name) for name in spec.towers]
        head = _HEADS[spec.head][1](meta, arrays, spec.head_prefix)
        # an array taken out of payload order counts as not taken
        held = [prefix + k for prefix, part in zip(spec.prefixes, towers + [head])
                for k in part.param_arrays()]
        arrays.update((name, payload[name]) for name, at in zip(payload, held) if name != at)
        inputs = None
        if "modality" in spec.fields:  # modality 1 or 2 reads input slot 0 or 1
            inputs = (_field(meta, "modality", {"1": 0, "2": 1}.__getitem__),)
        model = Classifier(meta["kind"], towers, head, payload, inputs,
                           seed=_field(meta, "seed", int), arch=_field(meta, "arch"))
    except FormatError:
        raise
    except (KeyError, ValueError) as exc:
        reason = (f"missing array {exc}" if isinstance(exc, KeyError)
                  else f"inconsistent model contents: {exc}")
        # name the first line with a key no header of this kind has, or an array not taken
        start, keys = header.index(b"\n") + 1, _header_keys(spec)
        for found in header[start:].decode().split("\n"):
            key, _, value = found.partition(": ")
            if key not in keys and (key != "array" or value.partition(" ")[0] in arrays):
                break
            start += len(found) + 1
        if found == "binary" and not isinstance(exc, KeyError):
            raise FormatError(reason) from exc  # every array taken: no one line is at fault
        raise FormatError(f"header line at byte offset {start} reads {found!r}: {reason}") from exc
    expected = model_header(model)
    if header != expected:
        start = header.rfind(b"\n", 0, len(os.path.commonprefix([header, expected]))) + 1
        found, wanted = (h[start:].split(b"\n", 1)[0].decode() for h in (header, expected))
        raise FormatError(f"header field {found.partition(':')[0]!r} at byte offset {start} "
                          f"reads {found!r}; save_model writes {wanted!r} for this model")
    return model
