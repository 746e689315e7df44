import dataclasses
import io
import os
import re
import struct

import numpy as np
import pytest

from bimodalnet import data as data_module
from bimodalnet import linalg, mlp
from bimodalnet.bilinear import FACTORED, FACTORED_SHARED, FULL, LabelTree
from bimodalnet.data import (
    Dataset,
    FormatError,
    SynthSpec,
    VersionError,
    generate_synthetic,
    generate_with_planted,
    load_dataset,
    load_model,
    open_dataset,
    save_dataset,
    save_model,
)
from bimodalnet.fusion import KINDS, Classifier, ModelSpec
from bimodalnet.training import TrainConfig, build_model
from tests.conftest import ROOT, no_unclosed_files


class TestSynthSpec:
    def test_rejects_indivisible_groups(self):
        with pytest.raises(ValueError):
            SynthSpec(4, 4, 6, 4, 10, 10, 0.1, 1, 0)

    def test_rejects_rank_above_dims(self):
        with pytest.raises(ValueError):
            SynthSpec(4, 4, 4, 2, 10, 10, 0.1, 5, 0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SynthSpec(4, 4, 4, 2, 10, 10, -0.1, 1, 0)


class TestGenerator:
    def test_seed_determinism(self):
        spec = SynthSpec(5, 6, 4, 2, 50, 20, 0.2, 2, 13)
        a_train, a_test = generate_synthetic(spec)
        b_train, b_test = generate_synthetic(spec)
        assert a_train == b_train
        assert a_test == b_test

    def test_sign_product_labels_for_two_classes(self):
        # two antipodal groups, rank 1, slot terms inert: the label is the
        # sign of a single projection product
        spec = SynthSpec(6, 6, 2, 2, 400, 100, 0.0, 1, 11)
        train, _, planted = generate_with_planted(spec)
        prods = (train.x1 @ planted.proj1[:, 0]) * (train.x2 @ planted.proj2[:, 0])
        assert np.array_equal(train.y, (prods < 0).astype(np.int64))

    def test_flip_symmetry_for_two_classes(self):
        # flipping one modality's sign flips every label: a linear decoder on
        # [x1; x2] cannot beat chance in expectation
        spec = SynthSpec(6, 6, 2, 2, 400, 100, 0.0, 1, 11)
        train, _, planted = generate_with_planted(spec)
        assert np.array_equal(planted.predict(-train.x1, train.x2), 1 - train.y)
        assert np.array_equal(planted.predict(train.x1, -train.x2), 1 - train.y)

    def test_linear_probe_is_chance_on_sign_task(self):
        spec = SynthSpec(6, 6, 2, 2, 4000, 2000, 0.0, 1, 11)
        train, test, _ = generate_with_planted(spec)
        x = np.concatenate([train.x1, train.x2, np.ones((train.n, 1))], axis=1)
        targets = np.eye(2)[train.y]
        coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
        xt = np.concatenate([test.x1, test.x2, np.ones((test.n, 1))], axis=1)
        acc = np.mean(np.argmax(xt @ coef, axis=1) == test.y)
        assert 0.45 <= acc <= 0.55

    def test_balanced_histogram_at_benchmark_scale(self):
        spec = SynthSpec(20, 20, 8, 4, 10000, 2000, 0.1, 2, 7)
        train, _ = generate_synthetic(spec)
        counts = np.bincount(train.y, minlength=8)
        sigma = np.sqrt(10000 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - 10000 / 8) <= 3 * sigma)

    def test_planted_model_is_exact_on_stored_features(self):
        for noise in (0.0, 0.3):
            spec = SynthSpec(8, 9, 6, 3, 300, 100, noise, 2, 5)
            train, test, planted = generate_with_planted(spec)
            assert np.array_equal(planted.predict(test.x1, test.x2), test.y)
            assert np.array_equal(planted.predict(train.x1, train.x2), train.y)

    def test_odd_group_count(self):
        spec = SynthSpec(8, 8, 6, 3, 200, 50, 0.1, 2, 5)
        train, _ = generate_synthetic(spec)
        assert train.tree.num_groups == 3
        assert set(np.unique(train.y)) <= set(range(6))


class TestDatasetRoundTrip:
    def test_bit_identical(self, tmp_path):
        spec = SynthSpec(5, 6, 4, 2, 60, 20, 0.2, 2, 13)
        train, test = generate_synthetic(spec)
        for ds in (train, test):
            path = tmp_path / f"{ds.split}.bin"
            save_dataset(ds, path)
            again = load_dataset(path)
            assert again == ds
            assert again.split == ds.split

    def test_truncated_file_reports_offset(self, tmp_path):
        spec = SynthSpec(5, 6, 4, 2, 60, 20, 0.2, 2, 13)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "ds.bin"
        save_dataset(train, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="offset"):
            load_dataset(path)

    # header 37 bytes, then group_of (4 x i4), x1 (10 x 5 x f8), x2 (10 x 6 x f8), y (10 x i4)
    @pytest.mark.parametrize("what,start,end", [
        ("leaf-to-group table", 37, 53), ("first-modality features", 53, 453),
        ("second-modality features", 453, 933), ("labels", 933, 973)])
    def test_truncated_inside_each_array(self, what, start, end, tmp_path):
        spec = SynthSpec(5, 6, 4, 2, 10, 5, 0.2, 2, 13)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "ds.bin"
        save_dataset(train, path)
        blob = path.read_bytes()
        assert len(blob) == 973
        path.write_bytes(blob[:end - 3])
        for read in (load_dataset, open_dataset):
            with pytest.raises(FormatError, match=f"for {what} at byte offset {start},"):
                read(path)

    def test_zero_class_header_rejected(self, tmp_path):
        spec = SynthSpec(5, 6, 4, 2, 10, 5, 0.2, 2, 13)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "ds.bin"
        save_dataset(train, path)
        blob = bytearray(path.read_bytes())
        blob[29:33] = (0).to_bytes(4, "little")  # classes field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="class count"):
            load_dataset(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "ds.bin"
        path.write_bytes(b"NOTADATA" + bytes(100))
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        spec = SynthSpec(5, 6, 4, 2, 10, 5, 0.2, 2, 13)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "ds.bin"
        save_dataset(train, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        spec = SynthSpec(5, 6, 4, 2, 10, 5, 0.2, 2, 13)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "ds.bin"
        save_dataset(train, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)


def _small_file(tmp_path):
    """A saved 10-row split (d1=5, d2=6, C=4, G=2): the header takes bytes
    0-37, group_of 37-53, x1 53-453, x2 453-933 and the labels 933-973."""
    train, _ = generate_synthetic(SynthSpec(5, 6, 4, 2, 10, 5, 0.2, 2, 13))
    path = tmp_path / "ds.bin"
    save_dataset(train, path)
    return train, path


def _patch(path, offset: int, data: bytes):
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(data)] = data
    path.write_bytes(bytes(blob))


class TestSaveDataset:
    def test_bytes_are_the_header_then_each_array(self, tmp_path):
        train, path = _small_file(tmp_path)
        head = path.read_bytes()[:37]
        assert path.read_bytes() == b"".join([
            head, train.tree.group_of.astype("<i4").tobytes(),
            train.x1.astype("<f8").tobytes(), train.x2.astype("<f8").tobytes(),
            train.y.astype("<i4").tobytes()])

    def test_writes_a_non_contiguous_view(self, tmp_path):
        train, _ = _small_file(tmp_path)
        view = Dataset(train.x1[::2], train.x2[::2], train.y[::2], train.tree, "train")
        save_dataset(view, tmp_path / "view.bin")
        assert load_dataset(tmp_path / "view.bin") == view


class TestOpenDataset:
    def test_header_and_labels_match_the_loaded_split(self, tmp_path):
        train, path = _small_file(tmp_path)
        with open_dataset(path) as reader:
            assert (reader.n, reader.d1, reader.d2, reader.num_classes) == (10, 5, 6, 4)
            assert reader.split == "train" and reader.tree == train.tree
            assert reader.y.dtype == np.int64 and np.array_equal(reader.y, train.y)

    def test_rows_equal_the_loaded_rows(self, tmp_path):
        train, path = _small_file(tmp_path)
        with open_dataset(path) as reader:
            for start, stop in ((0, 10), (0, 3), (3, 7), (9, 10), (4, 4)):
                x1, x2 = reader.rows(start, stop)
                assert x1.shape == (stop - start, 5) and x2.shape == (stop - start, 6)
                assert np.array_equal(x1, train.x1[start:stop])
                assert np.array_equal(x2, train.x2[start:stop])
                views = train.rows(start, stop)
                assert all(v.base is a for v, a in zip(views, (train.x1, train.x2)))

    def test_rows_reuse_their_buffers(self, tmp_path):
        train, path = _small_file(tmp_path)
        with open_dataset(path) as reader:
            first = reader.rows(0, 4)
            second = reader.rows(4, 8)
            assert np.array_equal(first[0], train.x1[4:8])  # overwritten by the second call
            third = reader.rows(8, 10)  # a smaller block reuses the buffers too
        for a, b, c in zip(first, second, third):
            assert np.shares_memory(a, b) and np.shares_memory(a, c)

    def test_rows_outside_the_split_are_refused(self, tmp_path):
        _, path = _small_file(tmp_path)
        with open_dataset(path) as reader:
            for start, stop in ((-1, 2), (3, 2), (0, 11)):
                with pytest.raises(IndexError):
                    reader.rows(start, stop)

    def test_closes_its_file(self, tmp_path):
        _, path = _small_file(tmp_path)
        with no_unclosed_files():
            with open_dataset(path) as reader:
                reader.rows(0, 10)
            assert reader._fh.closed
            _patch(path, 0, b"NOTADATA")
            with pytest.raises(FormatError, match="magic"):
                open_dataset(path)  # refused while it opens


class TestCorruptDatasetFile:
    """Each fault is a FormatError naming its byte offset, from the whole-file
    loader and from the block reader alike."""

    @staticmethod
    def _read_all(path):
        with open_dataset(path) as reader:
            reader.rows(0, reader.n)

    @pytest.mark.parametrize("read", ["load", "open"])
    @pytest.mark.parametrize("region,base,width", [
        ("first-modality", 53, 5), ("second-modality", 453, 6)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_its_row(self, tmp_path, read, region, base, width,
                                              value):
        _, path = _small_file(tmp_path)
        row, col = 3, 2
        _patch(path, base + 8 * (width * row + col), np.array([value], "<f8").tobytes())
        reader = load_dataset if read == "load" else self._read_all
        offset = base + 8 * width * row
        with pytest.raises(FormatError,
                           match=f"non-finite {region} feature in row 3 at byte offset {offset}$"):
            reader(path)

    def test_non_finite_feature_in_a_later_block(self, tmp_path):
        train, path = _small_file(tmp_path)
        _patch(path, 453 + 8 * 6 * 8, np.array([np.nan], "<f8").tobytes())
        with open_dataset(path) as reader:
            x1, _ = reader.rows(0, 5)
            assert np.array_equal(x1, train.x1[:5])
            with pytest.raises(FormatError, match="row 8 at byte offset 837$"):
                reader.rows(5, 10)

    def test_overflowing_sum_is_not_a_fault(self, tmp_path):
        train, _ = _small_file(tmp_path)
        x1 = train.x1.copy()
        x1[:, 0] = 1.5e308  # finite entries whose sum overflows
        big = Dataset(x1, train.x2, train.y, train.tree, "train")
        save_dataset(big, tmp_path / "big.bin")
        assert load_dataset(tmp_path / "big.bin") == big

    @pytest.mark.parametrize("read", ["load", "open"])
    @pytest.mark.parametrize("label,row", [(4, 7), (-1, 0), (2 ** 31 - 1, 9)])
    def test_label_outside_the_classes_names_its_offset(self, tmp_path, read, label, row):
        _, path = _small_file(tmp_path)
        _patch(path, 933 + 4 * row, np.array([label], "<i4").tobytes())
        reader = load_dataset if read == "load" else open_dataset
        with pytest.raises(FormatError, match=rf"label {label} of row {row} is outside "
                                              rf"\[0, 4\) at byte offset {933 + 4 * row}$"):
            reader(path)

    def test_file_truncated_after_open(self, tmp_path):
        _, path = _small_file(tmp_path)
        with open_dataset(path) as reader:
            path.write_bytes(path.read_bytes()[:500])
            with pytest.raises(FormatError, match="truncated file"):
                reader.rows(0, 10)


class TestDatasetHeader:
    """A header value that describes no split is a FormatError naming it."""

    @pytest.mark.parametrize("offset,value,message", [
        (33, 0, "need 1 <= groups <= classes, got G=0 C=4"),
        (33, 5, "need 1 <= groups <= classes, got G=5 C=4"),
        (21, 0, "feature dims must be >= 1, got (0, 6)"),
        (25, 0, "feature dims must be >= 1, got (5, 0)"),
        (12, 2, "unknown split id 2"),
    ])
    @pytest.mark.parametrize("read", ["load", "open"])
    def test_refused_header_value(self, tmp_path, read, offset, value, message):
        _, path = _small_file(tmp_path)
        fmt = "<B" if offset == 12 else "<I"  # the split id is one byte
        _patch(path, offset, struct.pack(fmt, value))
        reader = load_dataset if read == "load" else open_dataset
        with pytest.raises(FormatError, match=rf"^invalid header: {re.escape(message)}$"):
            reader(path)

    @pytest.mark.parametrize("group_of", [[0, 0, 0, 0], [0, 0, 1, 2], [0, -1, 1, 1]])
    def test_leaf_to_group_table_that_is_not_a_partition(self, tmp_path, group_of):
        _, path = _small_file(tmp_path)
        _patch(path, 37, np.array(group_of, "<i4").tobytes())
        with pytest.raises(FormatError, match=r"^invalid dataset contents: groups must "
                                              r"partition the leaves"):
            load_dataset(path)


class CountingReader(io.BytesIO):
    """An in-memory file that counts the bytes its reads return."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.bytes_read = 0

    def _count(self, got):
        self.bytes_read += got if isinstance(got, int) else len(got)
        return got

    def read(self, size=-1):
        return self._count(super().read(size))

    def readline(self, size=-1):
        return self._count(super().readline(size))

    def readinto(self, buffer):
        return self._count(super().readinto(buffer))


def _model_zoo(tree):
    zoo = []
    zoo.append(("unimodal", build_model(
        TrainConfig(mode="audio", dims_a=(5, 4, 3), dims_v=(6, 4, 3), epochs=0, seed=1),
        5, 6, 4, tree)))
    zoo.append(("fused-softmax", build_model(
        TrainConfig(mode="fused", dims_a=(5, 4), dims_v=(6, 4), epochs=0, seed=2),
        5, 6, 4, tree)))
    zoo.append(("fused-deep", build_model(
        TrainConfig(mode="fused", dims_a=(5, 4), dims_v=(6, 4), fusion_top=(7, 5),
                    epochs=0, seed=3), 5, 6, 4, tree)))
    for variant in (FULL, FACTORED, FACTORED_SHARED):
        zoo.append((variant, build_model(
            TrainConfig(mode="bilinear", variant=variant, dims_a=(5, 4), dims_v=(6, 4),
                        fused_dim=2, epochs=0, seed=4), 5, 6, 4, tree)))
    return zoo


class TestModelRoundTrip:
    def test_all_kinds_bitwise(self, tmp_path, rng):
        tree = LabelTree.balanced(4, 2)
        x1 = rng.standard_normal((3, 5))
        x2 = rng.standard_normal((3, 6))
        for tag, model in _model_zoo(tree):
            path = tmp_path / f"{tag}.model"
            save_model(model, path)
            again = load_model(path)
            for name, arr in model.params().items():
                assert np.array_equal(arr, again.params()[name]), (tag, name)
            assert np.array_equal(model.posterior_batch(x1, x2),
                                  again.posterior_batch(x1, x2)), tag

    def test_large_bilinear_round_trip(self, tmp_path):
        tree = LabelTree.balanced(1328, 83)
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(360, 500, 500, 200), dims_v=(540, 500, 500, 200),
                          fused_dim=200, epochs=0, seed=6,
                          arch="[360,500,500,200,1328 | 540,500,500,200,1328 | F=200]")
        model = build_model(cfg, 360, 540, 1328, tree)
        path = tmp_path / "large.model"
        save_model(model, path)
        again = load_model(path)
        assert again.spec.arch == cfg.arch
        assert again.head.tree == tree
        for name, arr in model.params().items():
            assert np.array_equal(arr, again.params()[name])

    @pytest.mark.parametrize("variant", [FULL, FACTORED])
    def test_head_without_a_label_tree(self, tmp_path, variant):
        # an unshared head may have no tree: its header has no groups or group_of
        cfg = TrainConfig(mode="bilinear", variant=variant, dims_a=(5, 4), dims_v=(6, 4),
                          fused_dim=2, epochs=0, seed=2)
        model = build_model(cfg, 5, 6, 4)
        assert model.head.tree is None
        path = tmp_path / "treeless.model"
        save_model(model, path)
        assert b"group" not in path.read_bytes().partition(b"\nbinary\n")[0]
        again = load_model(path)
        assert again.head.tree is None
        save_model(again, tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"something else\nbinary\n")
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"bimodalnet-model v9\nbinary\n")
        with pytest.raises(VersionError):
            load_model(path)

    @pytest.mark.parametrize("other", ["dataset", "zeros"])
    def test_other_file_fails_at_its_first_line(self, tmp_path, other):
        if other == "dataset":
            _, path = _small_file(tmp_path)
        else:
            path = tmp_path / "zeros.bin"
            path.write_bytes(bytes(4 << 20))
        with pytest.raises(FormatError, match="magic"):
            load_model(path)
        reader = CountingReader(path.read_bytes())
        with pytest.raises(FormatError, match="magic"):
            data_module._parse_model_header(reader)
        assert 0 < reader.bytes_read <= len(b"bimodalnet-model v1\n")

    def test_truncated_payload(self, tmp_path):
        tree = LabelTree.balanced(4, 2)
        model = _model_zoo(tree)[0][1]
        path = tmp_path / "trunc.model"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError, match="offset"):
            load_model(path)


# every header line before "binary" of each _model_zoo model, format v1
V1_HEADERS = {
    "unimodal": [
        "kind: unimodal", "classes: 4", "seed: 1", "arch: ", "modality: 1", "dims: 5,4,3",
        "array: tower.W0 5,4", "array: tower.b0 4", "array: tower.W1 4,3", "array: tower.b1 3",
        "array: out.W 3,4", "array: out.b 4",
    ],
    "fused-softmax": [
        "kind: fused", "classes: 4", "seed: 2", "arch: ", "dims_a: 5,4", "dims_v: 6,4",
        "top_dims: ",
        "array: tower_a.W0 5,4", "array: tower_a.b0 4", "array: tower_v.W0 6,4",
        "array: tower_v.b0 4", "array: out.W 8,4", "array: out.b 4",
    ],
    "fused-deep": [
        "kind: fused", "classes: 4", "seed: 3", "arch: ", "dims_a: 5,4", "dims_v: 6,4",
        "top_dims: 8,7,5",
        "array: tower_a.W0 5,4", "array: tower_a.b0 4", "array: tower_v.W0 6,4",
        "array: tower_v.b0 4", "array: top.W0 8,7", "array: top.b0 7", "array: top.W1 7,5",
        "array: top.b1 5", "array: out.W 5,4", "array: out.b 4",
    ],
    FULL: [
        "kind: bilinear", "classes: 4", "seed: 4", "arch: ", "variant: full",
        "dims_a: 5,4", "dims_v: 6,4", "lambda: 2.0", "groups: 2", "group_of: 0,0,1,1",
        "array: tower1.W0 5,4", "array: tower1.b0 4", "array: tower2.W0 6,4",
        "array: tower2.b0 4", "array: head.W 4,4,4", "array: head.V1 4,4",
        "array: head.V2 4,4", "array: head.b 4",
    ],
    FACTORED: [
        "kind: bilinear", "classes: 4", "seed: 4", "arch: ", "variant: factored",
        "dims_a: 5,4", "dims_v: 6,4", "fused_dim: 2", "lambda: 2.0", "groups: 2",
        "group_of: 0,0,1,1",
        "array: tower1.W0 5,4", "array: tower1.b0 4", "array: tower2.W0 6,4",
        "array: tower2.b0 4", "array: head.U1 4,2", "array: head.U2 4,2", "array: head.w 2,4",
        "array: head.V1 4,4", "array: head.V2 4,4", "array: head.b 4",
    ],
    FACTORED_SHARED: [
        "kind: bilinear", "classes: 4", "seed: 4", "arch: ", "variant: factored-shared",
        "dims_a: 5,4", "dims_v: 6,4", "fused_dim: 2", "lambda: 2.0", "groups: 2",
        "group_of: 0,0,1,1",
        "array: tower1.W0 5,4", "array: tower1.b0 4", "array: tower2.W0 6,4",
        "array: tower2.b0 4", "array: head.U1 4,2", "array: head.U2 4,2", "array: head.w 2,2",
        "array: head.V1 4,4", "array: head.V2 4,4", "array: head.b 4",
    ],
}


class TestModelFormat:
    @pytest.mark.parametrize("tag", list(V1_HEADERS))
    def test_v1_header_text(self, tmp_path, tag):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "pinned.model"
        save_model(model, path)
        header = path.read_bytes().partition(b"\nbinary\n")[0].decode("ascii")
        assert header.split("\n") == ["bimodalnet-model v1"] + V1_HEADERS[tag]

    @pytest.mark.parametrize("arch", ["[20,6,8\u00a0| 20,6,8 | F=2]", "two\nlines"])
    def test_refused_header_leaves_the_file(self, tmp_path, arch):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))["unimodal"]
        path = tmp_path / "kept.model"
        save_model(model, path)
        before = path.read_bytes()
        model = Classifier(dataclasses.replace(model.spec, arch=arch), model.params())
        with pytest.raises(ValueError, match="'arch' must be single-line ASCII"):
            save_model(model, path)
        assert path.read_bytes() == before


def _header_fields(path) -> dict[str, str]:
    """The ``key: value`` header lines of a saved model, other than ``array:``."""
    head = path.read_bytes().partition(b"\nbinary\n")[0].decode("ascii")
    return dict(line.split(": ", 1) for line in head.split("\n")[1:]
                if not line.startswith("array: "))


def _spec_models():
    """(tag, model) of every _model_zoo model and of the other shapes a spec
    takes: a modality-2 tower, heads without a label tree, and the paper's
    factored-shared and fused-top shapes."""
    models = _model_zoo(LabelTree.balanced(4, 2))
    models.append(("visual", build_model(
        TrainConfig(mode="visual", dims_v=(6, 3), epochs=0, seed=5), 5, 6, 4)))
    for variant in (FULL, FACTORED):
        models.append((f"{variant}-treeless", build_model(
            TrainConfig(mode="bilinear", variant=variant, dims_a=(5, 4), dims_v=(6, 4),
                        fused_dim=2, epochs=0, seed=6), 5, 6, 4)))
    paper = dict(dims_a=(360, 500, 200), dims_v=(540, 500, 200), epochs=0, seed=7)
    tree = LabelTree(np.arange(1328) * 42 // 1328, 42)
    models.append(("paper-factored-shared", build_model(
        TrainConfig(mode="bilinear", variant=FACTORED_SHARED, fused_dim=200, **paper),
        360, 540, 1328, tree)))
    models.append(("paper-fused-top", build_model(
        TrainConfig(mode="fused", fusion_top=(500,), **paper), 360, 540, 1328, tree)))
    return models


class TestModelSpec:
    """A model's spec is what its header fields say, and it gives the names
    and shapes of its parameter arrays."""

    @pytest.fixture(scope="class")
    def models(self):
        return _spec_models()

    def test_parse_of_the_saved_fields_is_the_spec(self, models, tmp_path):
        for tag, model in models:
            path = tmp_path / f"{tag}.model"
            save_model(model, path)
            assert ModelSpec.parse(_header_fields(path)) == model.spec, tag
            assert _header_fields(path) == model.spec.fields(), tag

    def test_part_shapes_are_the_parameter_arrays(self, models):
        for tag, model in models:
            spec = model.spec
            flat = [(prefix + name, shape) for prefix, part
                    in zip(KINDS[spec.kind].prefixes, spec.part_shapes())
                    for name, shape in part.items()]
            assert flat == [(name, a.shape) for name, a in model.params().items()], tag
            assert list(spec.param_shapes().items()) == flat, tag


    @pytest.mark.parametrize("tag,line,edited,message", [
        (FACTORED, "fused_dim: 2", "fused_dim: 3",
         "array 'head.U1' at byte offset 236 reads 'array: head.U1 4,2'; expected "
         "'array: head.U1 4,3', which header fields 'classes', 'variant', 'dims_a', "
         "'dims_v', 'fused_dim' give"),
        ("fused-deep", "top_dims: 8,7,5", "top_dims: 8,7,6",
         "array 'top.W1' at byte offset 216 reads 'array: top.W1 7,5'; expected "
         "'array: top.W1 7,6', which header fields 'classes', 'dims_a', 'dims_v', "
         "'top_dims' give"),
        ("fused-deep", "top_dims: 8,7,5", "top_dims: 9,7,5",
         "invalid 'top_dims' header field '9,7,5'"),
        ("unimodal", "dims: 5,4,3", "dims: 5,4,3,4",
         "array 'out.W' at byte offset 163 reads 'array: out.W 3,4'; expected "
         "'array: tower.W2 3,4', which header fields 'dims' give"),
        ("unimodal", "arch: ", "arch: \nnote: x",
         "header line at byte offset 61 reads 'note: x'; expected 'modality'"),
        ("unimodal", "array: out.b 4", "binary",
         "header line at byte offset 178 reads 'binary'; expected 'array: out.b 4', "
         "which header fields 'classes', 'dims' give"),
    ])
    def test_a_line_other_than_the_spec_gives_is_named(self, tmp_path, tag, line, edited,
                                                        message):
        # the payload is not read: the header alone is refused
        path = tmp_path / "edited.model"
        save_model(dict(_model_zoo(LabelTree.balanced(4, 2)))[tag], path)
        blob = path.read_bytes()
        head, sep, payload = blob.partition(b"\nbinary\n")
        head = (head + b"\n").replace(f"\n{line}\n".encode(), f"\n{edited}\n".encode())
        path.write_bytes(head[:-1] + sep + payload)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_model(path)


V1_MODELS = os.path.join(ROOT, "tests", "v1_models")


class TestPinnedV1Files:
    """Files of the six _model_zoo models, written by an earlier save_model,
    load and save again to the same bytes."""

    def test_the_zoo_is_pinned(self):
        tags = [tag for tag, _ in _model_zoo(LabelTree.balanced(4, 2))]
        assert sorted(os.listdir(V1_MODELS)) == sorted(f"{tag}.model" for tag in tags)

    @pytest.mark.parametrize("tag", list(V1_HEADERS))
    def test_load_and_save_give_the_same_bytes(self, tmp_path, tag):
        pinned = os.path.join(V1_MODELS, f"{tag}.model")
        save_model(load_model(pinned), tmp_path / "again.model")
        with open(pinned, "rb") as fh:
            assert (tmp_path / "again.model").read_bytes() == fh.read()


def _line_edits(manifest: bool):
    """(tag, index, edit) for each of three edits of every manifest line, or
    of every field line, of every V1_HEADERS model."""
    return [pytest.param(tag, i, edit, id=f"{tag}-{lines[i].replace(' ', '')}-{edit}")
            for tag, lines in V1_HEADERS.items()
            for i in range(len(lines)) if lines[i].startswith("array: ") == manifest
            for edit in ("delete", "rename", "swap")]


def _edit_line(tmp_path, tag: str, index: int, edit: str):
    """The zoo model ``tag`` saved with header line ``index`` deleted, its key
    renamed, or swapped with the next line (the last with the one before);
    an array line's payload bytes are dropped or swapped with it, so the
    payload size still fits. Returns the path, the line's key and the byte
    offset of the first line that differs from the saved header."""
    model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
    path = tmp_path / "edited.model"
    save_model(model, path)
    head, sep, _ = path.read_bytes().partition(b"\nbinary\n")
    lines = head.split(b"\n")
    arrays = model.params()
    names = list(arrays)
    k = index + 1  # after the magic line
    a = k - (len(lines) - len(names))  # index among the arrays, if >= 0
    key = lines[k].partition(b": ")[0].decode()
    first = index
    if edit == "delete":
        del lines[k]
    elif edit == "rename":
        lines[k] = b"x" + lines[k]
    else:
        j = k + 1 if k + 1 < len(lines) else k - 1
        lines[k], lines[j] = lines[j], lines[k]
        first = min(k, j) - 1
        if a >= 0:
            names[a], names[a + j - k] = names[a + j - k], names[a]
    if a >= 0 and edit != "swap":
        del names[a]
    path.write_bytes(b"\n".join(lines) + sep
                     + b"".join(arrays[n].astype("<f8").tobytes() for n in names))
    return path, key, _header_offset(tag, first)


def _header_offset(tag: str, index: int) -> int:
    """Byte offset of line ``index`` of V1_HEADERS[tag] in the saved file."""
    return len("bimodalnet-model v1\n") + sum(len(line) + 1 for line in V1_HEADERS[tag][:index])


class TestModelHeaderFields:
    """Every numeric header field that fails to parse, every lambda that is
    not finite and positive, and every value other than the one
    ``save_model`` writes is a FormatError naming the field; so is a missing
    field. Any other line that is not the one ``save_model`` writes there is
    a FormatError naming the line's byte offset."""

    @pytest.mark.parametrize("tag,field,value", [
        pytest.param("unimodal", "classes", "x", id="unimodal-classes"),
        pytest.param("unimodal", "seed", "x", id="unimodal-seed"),
        pytest.param("unimodal", "modality", "x", id="unimodal-modality"),
        pytest.param(FACTORED_SHARED, "classes", "x", id="factored-shared-classes"),
        pytest.param(FACTORED_SHARED, "seed", "x", id="factored-shared-seed"),
        pytest.param(FACTORED_SHARED, "groups", "x", id="factored-shared-groups"),
        pytest.param(FACTORED_SHARED, "groups", "3", id="factored-shared-groups-3"),
        pytest.param(FACTORED_SHARED, "lambda", "x", id="factored-shared-lambda"),
        pytest.param(FACTORED_SHARED, "lambda", "-inf", id="factored-shared-lambda--inf"),
        pytest.param(FACTORED_SHARED, "lambda", "nan", id="factored-shared-lambda-nan"),
        pytest.param(FACTORED_SHARED, "lambda", "0.0", id="factored-shared-lambda-0.0"),
        pytest.param(FACTORED_SHARED, "lambda", "-3.0", id="factored-shared-lambda--3.0"),
        pytest.param("unimodal", "kind", "bimodal", id="unimodal-kind"),
        pytest.param("unimodal", "modality", "3", id="unimodal-modality-3"),
        pytest.param(FACTORED_SHARED, "group_of", "0,0,1,2", id="factored-shared-group_of"),
        pytest.param(FULL, "group_of", "0,0,1", id="full-group_of-3-leaves"),
        pytest.param(FACTORED, "group_of", "0,0,1", id="factored-group_of-3-leaves"),
        pytest.param(FACTORED_SHARED, "group_of", "0,0,1", id="factored-shared-group_of-3-leaves"),
        pytest.param(FACTORED_SHARED, "lambda", "2", id="factored-shared-lambda-2"),
        pytest.param(FACTORED, "fused_dim", "3", id="factored-fused_dim-3"),
        pytest.param(FACTORED_SHARED, "fused_dim", "3", id="factored-shared-fused_dim-3"),
        pytest.param(FACTORED_SHARED, "classes", "04", id="factored-shared-classes-04"),
        pytest.param(FACTORED_SHARED, "seed", " 4", id="factored-shared-seed-space"),
        pytest.param("fused-deep", "top_dims", "8,7,6", id="fused-deep-top_dims"),
        pytest.param("unimodal", "dims", "5,4,3,4", id="unimodal-dims"),
        # integers other than the canonical text: a leading zero, "+", "-0",
        # a space, "_", an empty item, a value past int64
        *(pytest.param(FACTORED_SHARED, field, value, id=f"{field}-{value}")
          for field, values in (
              ("group_of", ("0,0,1,01", "0,0,+1,1", "-0,0,1,1", "0,0, 1,1", "0,0,1,1_0",
                            "0,,1,1", "0,0,1,", "0,0,1,9223372036854775808",
                            "0,0,1,-9223372036854775809")),
              ("dims_a", ("05,4", "+5,4", "5,-0", "5 ,4", "5_0,4", "5,,4",
                          "5,9223372036854775808")),
              ("seed", ("+4", "-0", "4_0", "04")))
          for value in values),
    ])
    def test_unparsable_field_is_format_error(self, tmp_path, tag, field, value):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "corrupt.model"
        save_model(model, path)
        head, sep, payload = path.read_bytes().partition(b"\nbinary\n")
        lines = head.split(b"\n")
        key = field.encode() + b": "
        hits = [i for i, line in enumerate(lines) if line.startswith(key)]
        assert len(hits) == 1
        lines[hits[0]] = key + value.encode()
        path.write_bytes(b"\n".join(lines) + sep + payload)
        with pytest.raises(FormatError, match=repr(field)):
            load_model(path)

    @pytest.mark.parametrize("tag,index,edit", _line_edits(manifest=False))
    def test_edited_line_is_format_error(self, tmp_path, tag, index, edit):
        path, key, offset = _edit_line(tmp_path, tag, index, edit)
        with pytest.raises(FormatError, match=rf"^missing header field '{key}'$"
                                              rf"|at byte offset {offset} reads '"):
            load_model(path)

    @pytest.mark.parametrize("tag,index,line", [
        pytest.param("unimodal", 4, "note: an unknown key", id="unimodal-unknown-key"),
        pytest.param(FACTORED_SHARED, 5, "note: an unknown key", id="shared-unknown-key"),
        pytest.param(FULL, 7, "fused_dim: 4", id="full-fused_dim"),
        pytest.param("unimodal", 6, "groups: 2", id="unimodal-groups"),
        pytest.param("unimodal", 6, "group_of: 0,0,1,1", id="unimodal-group_of"),
        pytest.param("fused-deep", 7, "groups: 2", id="fused-groups"),
    ])
    def test_inserted_line_names_its_offset(self, tmp_path, tag, index, line):
        # inserted before V1_HEADERS[tag][index]
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "edited.model"
        save_model(model, path)
        head, sep, payload = path.read_bytes().partition(b"\nbinary\n")
        lines = head.split(b"\n")
        lines.insert(index + 1, line.encode())
        path.write_bytes(b"\n".join(lines) + sep + payload)
        with pytest.raises(FormatError, match=rf"at byte offset {_header_offset(tag, index)} "
                                              rf"reads '{re.escape(line)}'"):
            load_model(path)


class TestModelPayload:
    @pytest.mark.parametrize("shape", ["-1,-4", "4,-1", "-4"])
    def test_negative_dimension_is_format_error(self, tmp_path, shape):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[FACTORED_SHARED]
        path = tmp_path / "corrupt.model"
        save_model(model, path)
        blob = path.read_bytes()
        assert blob.count(b"array: head.b 4\n") == 1
        path.write_bytes(blob.replace(b"array: head.b 4\n", f"array: head.b {shape}\n".encode()))
        with pytest.raises(FormatError, match=r"'head\.b' at byte offset \d+"):
            load_model(path)


class TestModelPayloadValues:
    """A non-finite entry in any array of any kind is a FormatError naming
    the array and the entry's byte offset; a finite payload whose sum
    overflows loads."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tag", list(V1_HEADERS))
    def test_non_finite_entry_names_array_and_offset(self, tmp_path, tag, value):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "corrupt.model"
        save_model(model, path)
        payload_off = path.read_bytes().index(b"\nbinary\n") + len(b"\nbinary\n")
        for name, (start, stop) in model.params().layout.items():
            entry = (start + stop) // 2
            offset = payload_off + 8 * entry
            save_model(model, path)
            _patch(path, offset, np.array([value], "<f8").tobytes())
            with pytest.raises(FormatError, match=rf"non-finite value in array "
                                                  rf"'{re.escape(name)}' at byte offset {offset}$"):
                load_model(path)

    @pytest.mark.parametrize("tag", list(V1_HEADERS))
    def test_payload_is_checked_once(self, tmp_path, monkeypatch, tag):
        # one pass: the reader's, over the whole payload vector; the towers
        # load_model builds from it do not check their arrays again
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "model.bin"
        save_model(model, path)
        checked = []

        def counted(a):
            checked.append(a.size)
            return linalg.first_nonfinite(a)

        for module in (data_module, mlp):
            monkeypatch.setattr(module, "first_nonfinite", counted)
        load_model(path)
        assert checked == [model.params().flat.size], checked

    def test_overflowing_sum_is_not_a_fault(self, tmp_path):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[FACTORED_SHARED]
        model.params()["head.V1"][:] = 1.5e308
        path = tmp_path / "large.model"
        save_model(model, path)
        assert np.array_equal(load_model(path).params().flat, model.params().flat)


class TestModelManifest:
    """A manifest names each header key and each array once; a repeated one
    is a FormatError that names it and gives the repeated line's offset. A
    manifest other than ``params()`` names, shapes and order is a FormatError
    naming an offset."""

    @pytest.mark.parametrize("tag,index,edit", _line_edits(manifest=True))
    def test_edited_line_is_format_error(self, tmp_path, tag, index, edit):
        path, _, offset = _edit_line(tmp_path, tag, index, edit)
        with pytest.raises(FormatError, match=rf"at byte offset {offset} reads '"):
            load_model(path)

    @pytest.mark.parametrize("tag,name,renamed", [
        ("unimodal", "tower.W1", "tower.X1"),  # the tower ends a layer early
        ("unimodal", "tower.b1", "tower.c1"),  # the tower lacks its last bias
        ("fused-deep", "top.W1", "top.W7"),
        (FACTORED, "head.U2", "head.U3"),
        (FACTORED, "head.b", "head.c"),  # the last array
    ])
    def test_renamed_array_names_its_offset(self, tmp_path, tag, name, renamed):
        # same length, so the payload still fits and the build meets the name
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "renamed.model"
        save_model(model, path)
        index = next(i for i, line in enumerate(V1_HEADERS[tag])
                     if line.startswith(f"array: {name} "))
        line = V1_HEADERS[tag][index].encode()
        blob = path.read_bytes()
        assert blob.count(line) == 1
        path.write_bytes(blob.replace(line, line.replace(name.encode(), renamed.encode())))
        with pytest.raises(FormatError, match=rf"at byte offset {_header_offset(tag, index)} "
                                              rf"reads 'array: {re.escape(renamed)} "):
            load_model(path)

    @pytest.mark.parametrize("tag,first", [("unimodal", 6), (FACTORED, 15), (FACTORED, 18)])
    def test_arrays_in_another_order_are_refused(self, tmp_path, tag, first):
        # the two arrays swap their lines and their payload bytes, so every
        # name still labels its own values and the payload size fits
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "reordered.model"
        save_model(model, path)
        head, sep, _ = path.read_bytes().partition(b"\nbinary\n")
        lines = head.split(b"\n")
        lines[first + 1], lines[first + 2] = lines[first + 2], lines[first + 1]
        arrays = model.params()
        names = list(arrays)
        k = first - (len(V1_HEADERS[tag]) - len(names))  # index among the arrays
        names[k], names[k + 1] = names[k + 1], names[k]
        path.write_bytes(b"\n".join(lines) + sep
                         + b"".join(arrays[n].astype("<f8").tobytes() for n in names))
        with pytest.raises(FormatError, match=rf"at byte offset {_header_offset(tag, first)} "
                                              rf"reads 'array: "):
            load_model(path)

    @pytest.mark.parametrize("name", ["tower1.W0", "head.U1", "head.b"])
    def test_repeated_array_is_format_error(self, tmp_path, name):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[FACTORED_SHARED]
        path = tmp_path / "repeated.model"
        save_model(model, path)
        head, sep, payload = path.read_bytes().partition(b"\nbinary\n")
        line = f"array: {name} {','.join(map(str, model.params()[name].shape))}".encode()
        assert head.split(b"\n").count(line) == 1
        # listed again last, with its bytes appended: the payload size fits
        extra = model.params()[name].astype("<f8").tobytes()
        path.write_bytes(head + b"\n" + line + sep + payload + extra)
        offset = len(head) + 1
        with pytest.raises(FormatError,
                           match=rf"array '{re.escape(name)}' listed again at byte offset {offset}$"):
            load_model(path)

    @pytest.mark.parametrize("key", ["kind", "seed", "lambda", "group_of"])
    def test_repeated_header_key_is_format_error(self, tmp_path, key):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[FACTORED_SHARED]
        path = tmp_path / "repeated.model"
        save_model(model, path)
        head, sep, payload = path.read_bytes().partition(b"\nbinary\n")
        lines = head.split(b"\n")
        hits = [i for i, line in enumerate(lines) if line.startswith(key.encode() + b": ")]
        assert len(hits) == 1
        lines.insert(hits[0] + 1, lines[hits[0]])  # the same value again
        path.write_bytes(b"\n".join(lines) + sep + payload)
        offset = sum(len(line) + 1 for line in lines[:hits[0] + 1])
        with pytest.raises(FormatError,
                           match=rf"header key '{key}' repeated at byte offset {offset}$"):
            load_model(path)


class TestModelHeaderRead:
    @pytest.mark.parametrize("tag", list(V1_HEADERS))
    def test_corrupted_binary_line_ends_the_read(self, tmp_path, tag):
        # a line that is neither "key: value" nor "binary" ends the header
        # read, so the payload after it is never read as header
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "marker.model"
        save_model(model, path)
        blob = path.read_bytes()
        end = blob.index(b"\nbinary\n") + len(b"\nbinary\n")
        offset = end - len(b"binary\n")
        path.write_bytes(blob[:offset] + b"binarx\n" + blob[end:])
        message = rf"^malformed header line 'binarx' at byte offset {offset}$"
        with pytest.raises(FormatError, match=message):
            load_model(path)
        reader = CountingReader(path.read_bytes())
        with pytest.raises(FormatError, match=message):
            data_module._parse_model_header(reader)
        assert reader.bytes_read == end

    @pytest.mark.parametrize("tag", list(V1_HEADERS))
    @pytest.mark.parametrize("byte", [b"\r", b"\x00", b" ", b""], ids=["cr", "nul", "space", "cut"])
    def test_corrupted_marker_line_break_ends_the_read(self, tmp_path, tag, byte):
        # the line break after "binary" replaced (or cut out): the read stops
        # at that byte instead of running on into the payload
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[tag]
        path = tmp_path / "marker.model"
        save_model(model, path)
        blob = path.read_bytes()
        end = blob.index(b"\nbinary\n") + len(b"\nbinary\n")
        path.write_bytes(blob[:end - 1] + byte + blob[end:])
        message = rf"^binary marker not followed by a line break at byte offset {end - 1}$"
        with pytest.raises(FormatError, match=message):
            load_model(path)
        reader = CountingReader(path.read_bytes())
        with pytest.raises(FormatError, match=message):
            data_module._parse_model_header(reader)
        assert reader.bytes_read == end


def _editable_values(blob: bytes) -> list[range]:
    """The byte range of each ``seed``, ``arch``, ``modality``, ``lambda``,
    ``groups`` and ``group_of`` value in the header of model file ``blob``:
    the values an edit may change with the header still that of a model (a
    unimodal model's tower reads either input slot)."""
    values, start = [], 0
    for line in blob.partition(b"\nbinary\n")[0].split(b"\n"):
        key, sep, _ = line.partition(b": ")
        if sep and key in (b"seed", b"arch", b"modality", b"lambda", b"groups", b"group_of"):
            values.append(range(start + len(key) + 2, start + len(line)))
        start += len(line) + 1
    return values


class TestModelHeaderFuzz:
    @pytest.mark.parametrize("line,edited", [
        (b"seed: 4", b"seed: 7"), (b"lambda: 2.0", b"lambda: 2.5"),
        (b"group_of: 0,0,1,1", b"group_of: 0,1,1,1"), (b"modality: 1", b"modality: 2"),
    ])
    def test_an_edited_value_of_another_model_loads(self, tmp_path, line, edited):
        # one byte of the value differs; the header is that of another model
        pos = next(i for i, (a, b) in enumerate(zip(line, edited)) if a != b)
        path, again = tmp_path / "edited.model", tmp_path / "again.model"
        holding = []
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            save_model(model, path)
            blob = path.read_bytes()
            if b"\n" + line + b"\n" not in blob:
                continue
            holding.append(tag)
            at = blob.index(b"\n" + line + b"\n") + 1 + pos
            assert any(at in value for value in _editable_values(blob)), tag
            path.write_bytes(blob.replace(b"\n" + line + b"\n", b"\n" + edited + b"\n"))
            save_model(load_model(path), again)
            assert again.read_bytes() == path.read_bytes(), tag
        # the unimodal model's header holds the modality line, the bilinear ones' the others
        assert holding == (["unimodal"] if line.startswith(b"modality")
                           else [FULL, FACTORED, FACTORED_SHARED])

    def test_single_byte_substitutions(self, tmp_path):
        """Every header byte of every zoo model, replaced by a seeded other
        byte: the load raises FormatError, or its model saves to the edited
        bytes, and the edited byte is one of a value of ``seed``, ``arch``,
        ``modality``, ``lambda`` or the label tree (a valid header of another
        model)."""
        rng = np.random.default_rng(0)
        path, again = tmp_path / "fuzzed.model", tmp_path / "again.model"
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            save_model(model, path)
            blob = path.read_bytes()
            values = _editable_values(blob)
            for pos in range(blob.index(b"\nbinary\n") + len(b"\nbinary\n")):
                edited = bytearray(blob)
                edited[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
                path.write_bytes(bytes(edited))
                try:
                    loaded = load_model(path)
                except FormatError:
                    continue
                save_model(loaded, again)
                assert again.read_bytes() == edited, (tag, pos)
                assert any(pos in value for value in values), (tag, pos)


class TestDatasetValidation:
    def test_loaded_features_are_checked_once(self, tmp_path, monkeypatch):
        _, path = _small_file(tmp_path)
        checked = []
        exact = data_module._nonfinite_row

        def counted(block):
            checked.append(block.shape)
            return exact(block)

        monkeypatch.setattr(data_module, "_nonfinite_row", counted)
        ds = load_dataset(path)
        assert checked == [ds.x1.shape, ds.x2.shape]  # by the reader, not again by Dataset

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0, 7]),
                    LabelTree.balanced(4, 2))

    def test_nonfinite_features(self):
        x = np.zeros((2, 3))
        x[0, 0] = np.inf
        with pytest.raises(ValueError):
            Dataset(x, np.zeros((2, 3)), np.array([0, 1]), LabelTree.balanced(4, 2))

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [
        pytest.param(lambda ids: Dataset(np.zeros((4, 3)), np.zeros((4, 3)), ids,
                                         LabelTree.balanced(4, 2)).y, id="labels"),
        pytest.param(lambda ids: LabelTree(ids, 2).group_of, id="group_of"),
    ])
    def test_non_integer_ids_rejected(self, build, bad):
        # an id that the int64 conversion would change is refused, by index
        with pytest.raises(ValueError, match="must be integers, got .* at index 2$"):
            build(np.array([0.0, 1.0, bad, 1.0]))
        for ids in (np.array([0, 1, 1, 0]), np.array([0.0, 1.0, 1.0, 0.0])):
            assert np.array_equal(build(ids), [0, 1, 1, 0])

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.zeros((3, 3)), np.array([0, 1]),
                    LabelTree.balanced(4, 2))
