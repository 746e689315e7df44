import re

import numpy as np
import pytest

from bimodalnet import data as data_module
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
from bimodalnet.training import TrainConfig, build_model
from tests.conftest import no_unclosed_files


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
        assert again.arch == cfg.arch
        assert again.head.tree == tree
        for name, arr in model.params().items():
            assert np.array_equal(arr, again.params()[name])

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


class TestModelHeaderFields:
    """Every numeric header field that fails to parse, and every lambda that
    is not finite and positive, is a FormatError naming the field."""

    @pytest.mark.parametrize("tag,field,value", [
        pytest.param("unimodal", "classes", "x", id="unimodal-classes"),
        pytest.param("unimodal", "seed", "x", id="unimodal-seed"),
        pytest.param("unimodal", "modality", "x", id="unimodal-modality"),
        pytest.param(FACTORED_SHARED, "classes", "x", id="factored-shared-classes"),
        pytest.param(FACTORED_SHARED, "seed", "x", id="factored-shared-seed"),
        pytest.param(FACTORED_SHARED, "groups", "x", id="factored-shared-groups"),
        pytest.param(FACTORED_SHARED, "lambda", "x", id="factored-shared-lambda"),
        pytest.param(FACTORED_SHARED, "lambda", "-inf", id="factored-shared-lambda--inf"),
        pytest.param(FACTORED_SHARED, "lambda", "nan", id="factored-shared-lambda-nan"),
        pytest.param(FACTORED_SHARED, "lambda", "0.0", id="factored-shared-lambda-0.0"),
        pytest.param(FACTORED_SHARED, "lambda", "-3.0", id="factored-shared-lambda--3.0"),
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

    def test_overflowing_sum_is_not_a_fault(self, tmp_path):
        model = dict(_model_zoo(LabelTree.balanced(4, 2)))[FACTORED_SHARED]
        model.params()["head.V1"][:] = 1.5e308
        path = tmp_path / "large.model"
        save_model(model, path)
        assert np.array_equal(load_model(path).params().flat, model.params().flat)


class TestModelManifest:
    """A manifest names each header key and each array once; a repeated one
    is a FormatError that names it and gives the repeated line's offset."""

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

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.zeros((3, 3)), np.array([0, 1]),
                    LabelTree.balanced(4, 2))
