import dataclasses
import math
import re
import tempfile
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from bimodalnet import training
from bimodalnet.bilinear import FACTORED, FACTORED_SHARED, FULL, LabelTree
from bimodalnet.data import (
    Dataset,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    open_dataset,
    save_dataset,
)
from bimodalnet.fusion import Ensemble
from bimodalnet.linalg import LEAF_PIECE_BYTES, FlatArrays, frobenius_norm
from bimodalnet.mlp import init_tower
from bimodalnet.training import (
    EVAL_BLOCK_BYTES,
    EVAL_CHUNK,
    DivergenceError,
    Metrics,
    STEP_CHUNK,
    TrainConfig,
    build_model,
    eval_rows,
    evaluate,
    grad_check,
    row_blocks,
    sgd_step,
    train_joint,
    train_model,
)
from tests.conftest import no_unclosed_files


def flat_arrays(arrays) -> FlatArrays:
    """Views of a new vector holding copies of ``arrays``, in their order."""
    packed = FlatArrays.empty({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        packed[name] = a
    return packed


class TestSgdStep:
    def test_single_ascent_step(self):
        params = flat_arrays({"theta": np.array([1.0])})
        sgd_step(params, {"theta": np.array([0.5])}, 0.1, 2.0)
        assert params["theta"][0] == pytest.approx(1.05, abs=1e-15)

    def test_projection_halves_norm(self):
        u = np.full((2, 2), 2.0)  # frobenius norm 4
        params = flat_arrays({"head.U1": u})
        sgd_step(params, {"head.U1": np.zeros((2, 2))}, 0.1, 2.0,
                 project=("head.U1",))
        assert frobenius_norm(params["head.U1"]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_gradient_fixed_point(self):
        params = flat_arrays({"a": np.array([1.0, -2.0]), "head.U1": np.full((1, 2), 0.1)})
        before = {k: v.copy() for k, v in params.items()}
        sgd_step(params, {k: np.zeros_like(v) for k, v in params.items()},
                 0.5, 2.0, project=("head.U1",))
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_nonfinite_gradient_names_parameter(self):
        params = flat_arrays({"tower.W0": np.ones((2, 2))})
        with pytest.raises(ValueError, match="tower.W0"):
            sgd_step(params, {"tower.W0": np.array([[1.0, np.nan], [0, 0]])}, 0.1, 2.0)


    def test_nonfinite_gradient_raises_divergence_error(self):
        params = flat_arrays({"head.U1": np.ones((2, 2))})
        with pytest.raises(DivergenceError, match="head.U1") as info:
            sgd_step(params, {"head.U1": np.array([[np.inf, 0], [0, 0]])}, 0.1, 2.0)
        assert type(info.value) is DivergenceError
        assert isinstance(info.value, ValueError)


    def test_nonfinite_gradient_moves_no_parameter(self):
        # head.w comes after the towers and U1, U2 in parameter order, and
        # lam = 0.1 would rescale U1 and U2: the step must apply nothing
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 4), dims_v=(6, 4), fused_dim=2,
                          epochs=0, init_scale=0.5, seed=3, lam=0.1)
        model = build_model(cfg, 6, 6, 2, train.tree)
        _, grads = model.loglik_and_grads(train.x1[:8], train.x2[:8], train.y[:8])
        grads["head.w"] = np.full_like(grads["head.w"], np.nan)
        params = model.trainable_params()
        before = {k: v.copy() for k, v in params.items()}
        with pytest.raises(DivergenceError, match="head.w"):
            sgd_step(params, grads, 0.5, cfg.lam, model.project_names())
        for name, arr in params.items():
            assert np.array_equal(arr, before[name]), name

    def test_each_run_takes_one_scaled_add(self):
        # two runs around a frozen array, one longer than a step chunk, and
        # gradients given as a plain dict: every entry moves by exactly lr * g
        rng = np.random.default_rng(4)
        n = 2 * STEP_CHUNK + 5
        params = flat_arrays({"a": rng.standard_normal(n), "frozen": np.ones(3),
                              "c": rng.standard_normal((2, 3))})
        grads = {"a": rng.standard_normal(n), "c": rng.standard_normal((2, 3))}
        want = {name: params[name] + 0.3 * grads[name] for name in grads}
        step = params.select(["a", "c"])
        assert step.runs == [(0, n), (n + 3, n + 9)]
        sgd_step(step, grads, 0.3, 2.0)
        for name in grads:
            assert params[name].tobytes() == want[name].tobytes(), name
        assert np.array_equal(params["frozen"], np.ones(3))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gradient_sum_is_not_divergence(self):
        params = flat_arrays({"a": np.zeros(2)})
        sgd_step(params, {"a": np.array([1e308, 1e308])}, 0.5, 2.0)
        assert np.array_equal(params["a"], [5e307, 5e307])

    @pytest.mark.filterwarnings("error")
    def test_gradient_whose_squares_overflow_steps(self):
        # (1e160)^2 overflows, so the finite check falls to its entry pass,
        # which finds every entry finite: the step is taken
        params = flat_arrays({"a": np.zeros(3), "b": np.ones(2)})
        sgd_step(params, {"a": np.full(3, 1e160), "b": np.array([-1e160, 2.0])}, 0.5, 2.0)
        assert params["a"].tolist() == [5e159] * 3
        assert params["b"].tolist() == [1 - 5e159, 2.0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_later_nonfinite_entry_moves_no_parameter(self, value):
        params = flat_arrays({"a": np.ones(4), "b": np.ones(3), "c": np.ones(2)})
        grads = {"a": np.full(4, 1e160), "b": np.array([0.5, 0.5, value]), "c": np.ones(2)}
        with pytest.raises(DivergenceError, match="'b'"):
            sgd_step(params, grads, 0.5, 2.0)
        assert params.flat.tolist() == [1.0] * 9

    def test_params_must_be_flat_arrays(self):
        with pytest.raises(TypeError, match="FlatArrays"):
            sgd_step({"a": np.zeros(2)}, {"a": np.ones(2)}, 0.1, 2.0)

    def test_step_on_fused_model_moves_no_tower_parameter(self):
        train, _ = sanity_task()
        cfg = TrainConfig(mode="fused", dims_a=(6, 5), dims_v=(6, 4), fusion_top=(3,),
                          epochs=0, init_scale=0.5, seed=8)
        model = build_model(cfg, 6, 6, 2, train.tree)
        params = model.trainable_params()
        towers = [n for n in model.params() if n.startswith("tower_")]
        assert params.runs == [(model.params().layout["top.W0"][0], model.params().flat.size)]
        before = model.params().flat.copy()
        _, grads = model.loglik_and_grads(train.x1[:16], train.x2[:16], train.y[:16])
        assert not any(name in grads for name in towers)
        sgd_step(params, grads, 0.5, cfg.lam)
        moved = model.params().flat != before
        for name in towers:
            start, stop = model.params().layout[name]
            assert not moved[start:stop].any(), name
        assert moved[params.runs[0][0]:].any()


class _StubModel:
    """Posteriors ``probs[i]`` for the input row whose x1 is ``[i]``, read on
    one lane."""

    head = SimpleNamespace(leaf_row_work=0)

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.num_classes = self.probs.shape[1]

    def posterior_batch(self, x1, x2):
        return self.probs[np.asarray(x1)[:, 0].astype(np.int64)]


def _dataset_for_probs(n, c=4, g=2):
    tree = LabelTree.balanced(c, g)
    y = np.arange(n) % c  # balanced
    rows = np.arange(n, dtype=np.float64)[:, None]
    return Dataset(rows, np.zeros((n, 1)), y, tree, "test")


class TestEvaluate:
    def test_perfect_model(self):
        ds = _dataset_for_probs(8)
        probs = np.eye(4)[ds.y]
        m = evaluate(_StubModel(probs), ds)
        assert m.leaf_error == 0.0 and m.group_error == 0.0
        assert m.nll == pytest.approx(0.0, abs=1e-12)

    def test_uniform_model_chance(self):
        # ties break toward index 0, so a balanced set gives exactly (C-1)/C
        ds = _dataset_for_probs(32)
        m = evaluate(_StubModel(np.full((32, 4), 0.25)), ds)
        assert m.leaf_error == pytest.approx(3 / 4)
        assert m.group_error == pytest.approx(1 / 2)
        assert m.nll == pytest.approx(math.log(4), abs=1e-12)

    def test_right_group_wrong_leaf(self):
        ds = _dataset_for_probs(8)
        wrong_leaf = ds.y ^ 1  # sibling inside the same pair-group
        m = evaluate(_StubModel(np.eye(4)[wrong_leaf]), ds)
        assert m.leaf_error == 1.0
        assert m.group_error == 0.0

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0, dtype=int),
                     LabelTree.balanced(4, 2), "test")
        with pytest.raises(ValueError):
            evaluate(_StubModel(np.zeros((0, 4))), ds)

    def test_every_block_scores_its_own_rows(self, monkeypatch):
        ds = _dataset_for_probs(50)
        probs = np.random.default_rng(3).dirichlet(np.ones(4), size=50)
        monkeypatch.setattr(training, "EVAL_CHUNK", 7)
        m = evaluate(_StubModel(probs), ds)
        assert m.leaf_error == (probs.argmax(axis=1) != ds.y).sum() / 50
        groups = probs[:, 0::2] + probs[:, 1::2]  # leaves 2g and 2g+1 form group g
        assert m.group_error == (groups.argmax(axis=1) != ds.y // 2).sum() / 50
        assert m.nll == pytest.approx(-np.log(probs[np.arange(50), ds.y]).mean(), rel=1e-12)


def _paper_tree():
    """1328 leaves in 42 contiguous groups, as at the paper's shapes."""
    return LabelTree(np.arange(1328) * 42 // 1328, 42)


def _random_split(n, d1, d2, tree, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d1)), rng.standard_normal((n, d2)),
                   rng.integers(0, tree.num_leaves, n), tree, "test")


def _bilinear(variant, c, tree, seed):
    cfg = TrainConfig(mode="bilinear", variant=variant, dims_a=(4, 3), dims_v=(5, 3),
                      fused_dim=2, epochs=0, init_scale=0.5, seed=seed)
    return build_model(cfg, 4, 5, c, tree)


class TestEvaluationBlocks:
    def test_blocks_tile_the_rows_in_near_equal_sizes(self):
        for n in (1, 2, 7, 393, 394, 395, 512, 1000, 2000, 2048, 4096, 8192):
            for most in (1, 2, 7, 100, 256, 394, 1000, 1024):
                blocks = row_blocks(n, most)
                assert len(blocks) == math.ceil(n / most)
                assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
                assert blocks[-1][1] == n
                sizes = [b - a for a, b in blocks]
                assert max(sizes) <= most and max(sizes) - min(sizes) <= 1, (n, most)

    def test_block_rows_at_benchmark_and_paper_scale(self):
        def sizes(n, c):
            return [b - a for a, b in row_blocks(n, eval_rows(c))]

        assert eval_rows(1328) == EVAL_BLOCK_BYTES // (8 * 1328) == 74
        assert eval_rows(8) == EVAL_CHUNK
        assert len(sizes(512, 1328)) == 7 and set(sizes(512, 1328)) == {73, 74}
        assert len(sizes(2048, 1328)) == 28 and set(sizes(2048, 1328)) == {73, 74}
        assert len(sizes(4096, 1328)) == 56 and set(sizes(4096, 1328)) == {73, 74}
        assert sizes(1024, 8) == [1024]
        assert sizes(2000, 8) == [1000, 1000]

    def test_metrics_at_eight_leaves_do_not_depend_on_the_split(self, monkeypatch):
        tree = LabelTree.balanced(8, 4)
        model = _bilinear(FACTORED_SHARED, 8, tree, seed=5)
        ds = _random_split(2000, 4, 5, tree, seed=6)
        metrics = []
        for most in (2, 7, 100, 1000, 1024):
            monkeypatch.setattr(training, "EVAL_CHUNK", most)
            metrics.append(evaluate(model, ds))
        assert all(m == metrics[-1] for m in metrics), metrics

    def test_paper_scale_split_matches_one_block(self, monkeypatch):
        tree = _paper_tree()
        model = _bilinear(FACTORED_SHARED, 1328, tree, seed=7)
        ds = _random_split(1000, 4, 5, tree, seed=8)
        assert len(row_blocks(ds.n, eval_rows(1328))) == 14
        split = evaluate(model, ds)
        monkeypatch.setattr(training, "EVAL_CHUNK", ds.n)
        monkeypatch.setattr(training, "EVAL_BLOCK_BYTES", 8 * 1328 * ds.n)
        whole = evaluate(model, ds)
        assert (split.leaf_error, split.group_error) == (whole.leaf_error, whole.group_error)
        assert split.nll == pytest.approx(whole.nll, rel=1e-12)


class TestEvaluationMemory:
    """A read on one lane holds a few leaf-width arrays of one block, whatever
    n is. These models' heads are 3 features wide, so their 74-row blocks
    weigh 74 * 3 * 1328 multiply-adds, under LANE_MIN_WORK: they run one at
    a time even where lanes could open (a pair's peak is bounded in
    ``tests/test_lanes.py``)."""

    @pytest.fixture(scope="class")
    def models(self):
        tree = _paper_tree()
        shared = _bilinear(FACTORED_SHARED, 1328, tree, seed=1)
        common = dict(dims_a=(4, 3), dims_v=(5, 3), epochs=0, init_scale=0.5)
        others = [_bilinear(FACTORED, 1328, tree, seed=2),
                  build_model(TrainConfig(mode="fused", fusion_top=(2,), seed=3, **common),
                              4, 5, 1328, tree),
                  build_model(TrainConfig(mode="audio", seed=4, **common), 4, 5, 1328, tree)]
        return tree, shared, Ensemble([shared] + others)

    @staticmethod
    def _read_peak(model, ds) -> int:
        evaluate(model, ds)  # fills caches such as the tree's group indicator
        tracemalloc.start()
        try:
            evaluate(model, ds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_peak_is_bounded_and_flat_in_n(self, models):
        tree, shared, ensemble = models
        small, large = (_random_split(n, 4, 5, tree, seed=9) for n in (2048, 8192))
        # the largest block: 74 rows at both n (28 and 111 blocks)
        rows_small, rows_large = (max(b - a for a, b in row_blocks(ds.n, eval_rows(1328)))
                                  for ds in (small, large))
        # a bilinear read holds one leaf-width array, its logits, and one
        # piece of ``f @ V`` at a time. An ensemble read holds one leaf-width
        # array, its accumulator, and two pieces at a time: a member's logits
        # piece and its ``f @ V`` piece. Neither keeps the previous block's
        # posteriors. An eighth of an array more covers the group-width
        # arrays of the block and the split's per-row values.
        leaf_bytes = rows_large * 1328 * 8
        for model, pieces in ((shared, 1), (ensemble, 2)):
            peak_small, peak_large = self._read_peak(model, small), self._read_peak(model, large)
            assert peak_large < 5 * EVAL_BLOCK_BYTES, (model, peak_large)
            assert peak_large < (1 + 1 / 8) * leaf_bytes + pieces * LEAF_PIECE_BYTES, (
                model, peak_large)
            # per row of the largest block, the peak does not grow with n
            assert peak_large / rows_large <= 1.1 * peak_small / rows_small, (
                model, peak_small, peak_large)


class TestStreamedEvaluate:
    """``evaluate`` reads an open dataset file through the same blocks as the
    loaded split, so every metric is bit for bit the same."""

    @staticmethod
    def _models(c, tree):
        common = dict(dims_a=(4, 3), dims_v=(5, 3), epochs=0, init_scale=0.5)
        models = {
            "unimodal": build_model(TrainConfig(mode="visual", seed=1, **common),
                                    4, 5, c, tree),
            "fused-top": build_model(TrainConfig(mode="fused", fusion_top=(4,), seed=2,
                                                 **common), 4, 5, c, tree),
        }
        for seed, variant in enumerate(("full", FACTORED, FACTORED_SHARED), 3):
            models[variant] = _bilinear(variant, c, tree, seed)
        members = [models[k] for k in ("factored-shared", "factored", "fused-top", "unimodal")]
        models["ensemble"] = Ensemble(members)
        return models

    @pytest.mark.parametrize("c,groups,n,blocks", [(8, 4, 2500, 3), (1328, 42, 1000, 14)])
    def test_open_file_gives_the_loaded_metrics(self, tmp_path, c, groups, n, blocks):
        tree = _paper_tree() if c == 1328 else LabelTree.balanced(c, groups)
        path = tmp_path / "split.bin"
        save_dataset(_random_split(n, 4, 5, tree, seed=c), path)
        assert len(row_blocks(n, eval_rows(c))) == blocks
        loaded = load_dataset(path)
        with open_dataset(path) as streamed:
            for kind, model in self._models(c, tree).items():
                assert evaluate(model, streamed) == evaluate(model, loaded), kind

    def test_train_records_with_an_open_test_file(self, tmp_path):
        train, test = sanity_task()
        save_dataset(test, tmp_path / "test.bin")
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(6, 5),
                          dims_v=(6, 5), fused_dim=2, epochs=3, learning_rate=0.5, seed=17)
        model_a, recs_a = train_joint(cfg, train, test)
        with open_dataset(tmp_path / "test.bin") as streamed:
            model_b, recs_b = train_joint(cfg, train, streamed)
        assert recs_a == recs_b
        assert np.array_equal(model_a.params().flat, model_b.params().flat)


def sanity_task():
    spec = SynthSpec(d1=6, d2=6, num_classes=2, num_groups=2, n_train=200,
                     n_test=100, noise_std=0.0, interaction_rank=1, seed=11)
    return generate_synthetic(spec)


class TestTrainJoint:
    def test_separable_task_reaches_zero_training_error(self):
        train, test = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 8, 4), dims_v=(6, 8, 4), fused_dim=2,
                          epochs=50, learning_rate=0.5, init_scale=1.0,
                          minibatch_size=4, seed=3)
        _, records = train_joint(cfg, train, test)
        final = [r for r in records if r.get("split") == "train"][-1]
        assert final["leaf_error"] == 0.0

    def test_zero_learning_rate_is_noop_up_to_projection(self):
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 4), dims_v=(6, 4), fused_dim=2,
                          epochs=2, learning_rate=0.0, init_scale=0.05,
                          seed=3, lam=2.0)
        model, _ = train_joint(cfg, train)
        reference = build_model(cfg, 6, 6, 2, train.tree)
        for name, arr in model.params().items():
            assert np.array_equal(arr, reference.params()[name]), name

    def test_determinism_bit_identical(self):
        train, test = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 5), dims_v=(6, 5), fused_dim=2,
                          epochs=4, learning_rate=0.5, seed=17)
        model_a, recs_a = train_joint(cfg, train, test)
        model_b, recs_b = train_joint(cfg, train, test)
        assert recs_a == recs_b
        for name, arr in model_a.params().items():
            assert np.array_equal(arr, model_b.params()[name])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_rolls_back_to_last_good_epoch(self):
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 4), dims_v=(6, 4), fused_dim=2,
                          epochs=4, learning_rate=1e120, init_scale=1.0,
                          seed=3, lam=1e300)
        model, records = train_joint(cfg, train)
        assert any(r.get("event") == "diverged" for r in records)
        for arr in model.params().values():
            assert np.all(np.isfinite(arr))

    def test_nonfinite_gradient_records_divergence_and_rolls_back(self):
        # finite E but a NaN gradient on the third step of epoch 2: only
        # sgd_step's DivergenceError can stop this run
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 4), dims_v=(6, 4), fused_dim=2,
                          epochs=3, learning_rate=0.5, seed=3)
        reference, _ = train_joint(dataclasses.replace(cfg, epochs=1), train)
        model = build_model(cfg, 6, 6, 2, train.tree)
        steps_per_epoch = -(-train.n // cfg.minibatch_size)
        exact = model.loglik_and_grads
        calls = []

        def poisoned(x1, x2, targets):
            loglik, grads = exact(x1, x2, targets)
            calls.append(1)
            if len(calls) == steps_per_epoch + 3:
                grads["head.w"] = np.full_like(grads["head.w"], np.nan)
            return loglik, grads

        model.loglik_and_grads = poisoned
        records = train_model(model, cfg, train)
        assert records[-1] == {"epoch": 2, "event": "diverged"}
        assert [r["epoch"] for r in records[:-1]] == [0, 1]
        assert len(calls) == steps_per_epoch + 3
        for name, arr in model.params().items():
            assert np.array_equal(arr, reference.params()[name]), name

    @pytest.mark.parametrize("epoch", [1, 2])
    @pytest.mark.parametrize("path", ["step", "loglik", "evaluation"])
    def test_rollback_restores_epoch_snapshot_bit_for_bit(self, monkeypatch, epoch, path):
        # the diverging epoch's third step fails (sgd_step's DivergenceError,
        # or a non-finite E), or its evaluation gives a non-finite NLL; a
        # divergence in epoch 1 restores the vector as built
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 4), dims_v=(6, 4), fused_dim=2,
                          epochs=3, learning_rate=0.5, seed=3)
        model = build_model(cfg, 6, 6, 2, train.tree)
        built = model.params().flat.copy()
        steps_per_epoch = -(-train.n // cfg.minibatch_size)
        first = (epoch - 1) * steps_per_epoch  # the diverging epoch's first step
        exact = model.loglik_and_grads
        seen = []  # the parameters each step starts from
        evaluated = []  # the parameters each evaluation reads

        def poisoned(x1, x2, targets):
            seen.append(model.params().flat.copy())
            loglik, grads = exact(x1, x2, targets)
            if len(seen) == first + 3:
                if path == "step":
                    grads["tower1.W0"] = np.full_like(grads["tower1.W0"], np.inf)
                elif path == "loglik":
                    loglik = math.nan
            return loglik, grads

        def poisoned_evaluate(m, dataset):
            evaluated.append(model.params().flat.copy())
            metrics = evaluate(m, dataset)
            if path == "evaluation" and len(evaluated) == epoch + 1:
                metrics = dataclasses.replace(metrics, nll=math.nan)
            return metrics

        model.loglik_and_grads = poisoned
        monkeypatch.setattr(training, "evaluate", poisoned_evaluate)
        records = train_model(model, cfg, train)
        assert records[-1] == {"epoch": epoch, "event": "diverged"}
        snapshot = seen[first]
        if path == "evaluation":
            assert len(seen) == epoch * steps_per_epoch
            moved = evaluated[-1]  # every step of the epoch applied
        else:
            assert len(seen) == first + 3
            moved = seen[-1]  # two steps of the epoch applied
        assert not np.array_equal(moved, snapshot)
        if epoch == 1:
            assert snapshot.tobytes() == built.tobytes()
        assert model.params().flat.tobytes() == snapshot.tobytes()

    def test_mode_equivalence_with_zeroed_bilinear_block(self):
        # bilinear-joint with U, w frozen at zero must trade exactly like the
        # plain fused softmax on [v1; v2] when the towers are frozen too
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(6, 5, 3), dims_v=(6, 5, 3), fused_dim=2,
                          epochs=3, learning_rate=0.5, init_scale=0.5,
                          minibatch_size=8, seed=21)
        bil = build_model(cfg, 6, 6, 2, train.tree)
        bil.head.u1[:] = 0.0
        bil.head.u2[:] = 0.0
        bil.head.w[:] = 0.0
        bil.head.v1[:] = 0.0
        bil.head.v2[:] = 0.0
        bil.frozen = frozenset(
            name for name in bil.params()
            if name.startswith(("tower1.", "tower2.")) or
            name in ("head.U1", "head.U2", "head.w")
        )
        fused = build_model(TrainConfig(mode="fused"), 6, 6, 2, train.tree,
                            warm_towers=(bil.tower1, bil.tower2))
        fused.head.weights[:] = 0.0
        fused.head.bias[:] = 0.0
        train_model(bil, cfg, train)
        train_model(fused, cfg, train)
        p_bil = bil.posterior_batch(train.x1[:20], train.x2[:20])
        p_fused = fused.posterior_batch(train.x1[:20], train.x2[:20])
        assert np.allclose(p_bil, p_fused, atol=1e-12)

    def test_ascent_property(self):
        train, _ = sanity_task()
        increased = 0
        for trial in range(10):
            cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                              dims_a=(6, 5), dims_v=(6, 5), fused_dim=2,
                              epochs=0, learning_rate=1e-6, init_scale=0.5,
                              seed=trial)
            model = build_model(cfg, 6, 6, 2, train.tree)
            e0, grads = model.loglik_and_grads(train.x1, train.x2, train.y)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if norm <= 1e-3:
                continue
            sgd_step(model.trainable_params(), grads, 1e-6, cfg.lam,
                     model.project_names())
            e1, _ = model.loglik_and_grads(train.x1, train.x2, train.y)
            assert e1 > e0
            increased += 1
        assert increased >= 8

    def test_warm_start_towers_are_copied_in(self):
        train, _ = sanity_task()
        warm_a = init_tower([6, 5, 3], seed=77, scale=0.7)
        warm_v = init_tower([6, 5, 3], seed=78, scale=0.7)
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(), dims_v=(), fused_dim=2, epochs=0, seed=0)
        model = build_model(cfg, 6, 6, 2, train.tree, warm_towers=(warm_a, warm_v))
        assert np.array_equal(model.tower1.weights[0], warm_a.weights[0])
        model.tower1.weights[0][0, 0] += 1.0
        assert model.tower1.weights[0][0, 0] != warm_a.weights[0][0, 0]


class TestGradCheck:
    def test_bilinear_joint_model(self):
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(3, 4, 2), dims_v=(3, 4, 2), fused_dim=2,
                          epochs=0, init_scale=0.5, seed=4)
        model = build_model(cfg, 3, 3, 4, LabelTree.balanced(4, 2))
        rng = np.random.default_rng(0)
        report = grad_check(model, (rng.standard_normal(3), rng.standard_normal(3), 1))
        assert report.max_rel_error < 1e-6

    def test_fused_softmax_model(self):
        cfg = TrainConfig(mode="fused", dims_a=(3, 4, 2), dims_v=(3, 4, 2),
                          epochs=0, init_scale=0.5, seed=4)
        model = build_model(cfg, 3, 3, 4, LabelTree.balanced(4, 2))
        rng = np.random.default_rng(1)
        report = grad_check(model, (rng.standard_normal(3), rng.standard_normal(3), 2))
        assert report.max_rel_error < 1e-6

    def test_truncation_error_grows_quadratically(self):
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(3, 4, 2), dims_v=(3, 4, 2), fused_dim=2,
                          epochs=0, init_scale=0.8, seed=4)
        model = build_model(cfg, 3, 3, 4, LabelTree.balanced(4, 2))
        rng = np.random.default_rng(2)
        sample = (rng.standard_normal(3), rng.standard_normal(3), 3)
        coarse = grad_check(model, sample, h=1e-2).max_rel_error
        fine = grad_check(model, sample, h=1e-3).max_rel_error
        assert 20 < coarse / fine < 500

    @staticmethod
    def _small_bilinear():
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=(3, 4, 2), dims_v=(3, 4, 2), fused_dim=2,
                          epochs=0, init_scale=0.5, seed=4)
        rng = np.random.default_rng(0)
        return (build_model(cfg, 3, 3, 4, LabelTree.balanced(4, 2)),
                (rng.standard_normal(3), rng.standard_normal(3), 1))

    def test_nan_gradient_fails(self, monkeypatch):
        # NaN compares false with every error, so it must not pass as the smallest
        model, sample = self._small_bilinear()
        exact = model.loglik_and_grads

        def nan_grads(*args):
            loglik, grads = exact(*args)
            grads["tower2.b0"][1] = np.nan
            return loglik, grads

        monkeypatch.setattr(model, "loglik_and_grads", nan_grads)
        report = grad_check(model, sample)
        assert not report.passed()
        assert (report.worst_param, report.worst_index) == ("tower2.b0", (1,))

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.inf, np.nan])
    def test_step_must_be_finite_and_positive(self, h):
        model, sample = self._small_bilinear()
        with pytest.raises(ValueError, match="finite and positive"):
            grad_check(model, sample, h=h)


class TestConfigAndMetrics:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="nope")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(minibatch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lam=0.0)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -math.inf),
        ("init_scale", math.nan), ("init_scale", math.inf), ("init_scale", -0.5),
        ("lam", math.nan), ("lam", math.inf),
    ])
    def test_non_finite_or_negative_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value,pattern", [
        ("variant", "bogus", r"^variant must be one of \(.*\), got 'bogus'$"),
        ("epochs", -1, r"^epochs must be >= 0, got -1$"),
        ("epochs", -7, r"^epochs must be >= 0, got -7$"),
    ])
    def test_refused_value_is_named(self, field, value, pattern):
        with pytest.raises(ValueError, match=pattern):
            TrainConfig(**{field: value})

    def test_zero_learning_rate_and_init_scale_allowed(self):
        cfg = TrainConfig(learning_rate=0.0, init_scale=0.0, lam=3)
        assert (cfg.learning_rate, cfg.init_scale, cfg.lam) == (0.0, 0.0, 3.0)

    def test_metrics_record_fields(self):
        record = Metrics(0.25, 0.1, 1.5).record(3, "test")
        assert record == {"epoch": 3, "split": "test", "leaf_error": 0.25,
                          "group_error": 0.1, "nll": 1.5}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _held_at_evaluations(monkeypatch, run) -> list[int]:
    """The traced bytes that ``run()`` holds when each ``evaluate`` it makes
    starts: what the run keeps through the evaluation, whatever the
    evaluation itself holds at its peak."""
    exact = training.evaluate
    held = []

    def traced(model, dataset):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return exact(model, dataset)

    monkeypatch.setattr(training, "evaluate", traced)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
    finally:
        tracemalloc.stop()
    return held


class TestGradientLifetime:
    """A training run holds the model's gradient vector only while an epoch's
    steps run: not during the epoch's evaluation, not after it returns."""

    def test_evaluation_does_not_stack_on_the_gradients(self, monkeypatch, one_lane):
        # C=1328 over small towers: a 1.4 MB gradient vector, mostly V1 and V2,
        # beside evaluation blocks of 394 rows (4 MiB blocks, as set here) whose
        # leaf-width arrays are 4.2 MB, on one lane
        monkeypatch.setattr(training, "EVAL_BLOCK_BYTES", 4 << 20)
        tree = _paper_tree()
        train = _random_split(788, 4, 5, tree, seed=3)
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(4, 64),
                          dims_v=(5, 64), fused_dim=2, epochs=1, init_scale=0.5, seed=3)
        model = build_model(cfg, 4, 5, 1328, tree)
        vector_bytes = model.params().flat.nbytes  # of the gradients
        assert vector_bytes >= 1 << 20
        evaluate(model, train)  # fills caches such as the tree's group indicator
        eval_peak = _traced_peak(lambda: evaluate(model, train))
        train_peak = _traced_peak(lambda: train_model(model, cfg, train))
        # the peak is the epoch's evaluation (the rollback snapshot is on
        # file); a gradient vector kept through it would add vector_bytes
        assert train_peak - eval_peak < vector_bytes / 2, (
            train_peak, eval_peak, vector_bytes)

    def test_a_paired_evaluation_does_not_stack_on_the_gradients(self, monkeypatch,
                                                                 two_lanes):
        # as above at the shipped block size, whose pairs of 74-row blocks
        # on two lanes and the steps' arrays set the run's peak by turns:
        # each evaluation starts with no gradient vector held
        tree = _paper_tree()
        train = _random_split(788, 4, 5, tree, seed=3)
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(4, 64),
                          dims_v=(5, 64), fused_dim=2, epochs=1, init_scale=0.5, seed=3)
        model = build_model(cfg, 4, 5, 1328, tree)
        vector_bytes = model.params().flat.nbytes  # of the gradients
        evaluate(model, train)  # fills caches such as the tree's group indicator
        two_lanes.clear()
        held = _held_at_evaluations(monkeypatch, lambda: train_model(model, cfg, train))
        assert len(held) == cfg.epochs + 1
        # 788 rows read as 11 blocks: five pairs and a lone block
        assert two_lanes.count("block") == len(held) * 5, two_lanes
        assert max(held) < vector_bytes / 2, (held, vector_bytes)

    @pytest.mark.parametrize("diverge", [False, True])
    def test_no_gradient_vector_outlives_the_steps(self, monkeypatch, diverge):
        train, test = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(6, 5),
                          dims_v=(6, 5), fused_dim=2, epochs=3, learning_rate=0.5, seed=17)
        model = build_model(cfg, 6, 6, 2, train.tree)
        exact = model.loglik_and_grads
        vectors = []  # a weak reference to each gradient vector the steps used

        def watched(x1, x2, targets):
            loglik, grads = exact(x1, x2, targets)
            if not vectors or vectors[-1]() is not grads.flat:
                vectors.append(weakref.ref(grads.flat))
            if diverge and len(vectors) == 2:  # a step of epoch 2 diverges
                grads["head.w"] = np.full_like(grads["head.w"], np.nan)
            return loglik, grads

        def evaluated(m, dataset):
            assert all(ref() is None for ref in vectors)
            return evaluate(m, dataset)

        model.loglik_and_grads = watched
        monkeypatch.setattr(training, "evaluate", evaluated)
        records = train_model(model, cfg, train, test)
        assert all(ref() is None for ref in vectors)
        if not diverge:
            assert len(vectors) == cfg.epochs  # one vector per epoch
            assert len(records) == 2 * (cfg.epochs + 1)
        else:
            assert records[-1] == {"epoch": 2, "event": "diverged"}
            assert len(vectors) == 2


class TestEpochSnapshot:
    """The parameters are copied for a rollback only when an epoch runs, and
    the copy is kept in a temporary file, not beside the parameters."""

    def test_no_vector_copy_beside_the_evaluation(self, monkeypatch, one_lane):
        # as in TestGradientLifetime: a 1.4 MB vector beside evaluation blocks
        # whose leaf-width arrays are 4.2 MB, on one lane; two epochs and a
        # test split, so the snapshot is written again after epoch 1
        monkeypatch.setattr(training, "EVAL_BLOCK_BYTES", 4 << 20)
        tree = _paper_tree()
        train = _random_split(788, 4, 5, tree, seed=3)
        test = _random_split(394, 4, 5, tree, seed=4)
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(4, 64),
                          dims_v=(5, 64), fused_dim=2, epochs=2, init_scale=0.5, seed=3)
        model = build_model(cfg, 4, 5, 1328, tree)
        vector_bytes = model.params().flat.nbytes
        assert vector_bytes >= 1 << 20
        evaluate(model, train)  # fills caches such as the tree's group indicator
        eval_peak = _traced_peak(lambda: evaluate(model, train))
        train_peak = _traced_peak(lambda: train_model(model, cfg, train, test))
        # a copy of the vector held through the run would add vector_bytes
        assert train_peak - eval_peak < vector_bytes / 2, (
            train_peak, eval_peak, vector_bytes)

    def test_no_vector_copy_reaches_a_paired_evaluation(self, monkeypatch, two_lanes):
        # as above at the shipped block size, on two lanes: each evaluation
        # starts with no copy of the vector held
        tree = _paper_tree()
        train = _random_split(788, 4, 5, tree, seed=3)
        test = _random_split(394, 4, 5, tree, seed=4)
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(4, 64),
                          dims_v=(5, 64), fused_dim=2, epochs=2, init_scale=0.5, seed=3)
        model = build_model(cfg, 4, 5, 1328, tree)
        vector_bytes = model.params().flat.nbytes
        evaluate(model, train)  # fills caches such as the tree's group indicator
        two_lanes.clear()
        held = _held_at_evaluations(monkeypatch, lambda: train_model(model, cfg, train, test))
        assert len(held) == 2 * (cfg.epochs + 1)
        # 788 and 394 rows read as 11 and 6 blocks: five pairs and three
        assert two_lanes.count("block") == (cfg.epochs + 1) * (5 + 3), two_lanes
        assert max(held) < vector_bytes / 2, (held, vector_bytes)

    def test_unwritable_temp_directory_fails_before_the_first_step(self, monkeypatch,
                                                                  tmp_path):
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(6, 4),
                          dims_v=(6, 4), fused_dim=2, epochs=1, seed=3)
        model = build_model(cfg, 6, 6, 2, train.tree)
        exact = model.loglik_and_grads
        steps = []

        def counted(x1, x2, targets):
            steps.append(1)
            return exact(x1, x2, targets)

        model.loglik_and_grads = counted
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        with pytest.raises(OSError):
            train_model(model, cfg, train)
        assert steps == []

    def test_a_failing_step_leaves_no_file_open(self):
        train, _ = sanity_task()
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(6, 4),
                          dims_v=(6, 4), fused_dim=2, epochs=2, seed=3)
        model = build_model(cfg, 6, 6, 2, train.tree)

        def failing(x1, x2, targets):
            raise RuntimeError("step failed")

        model.loglik_and_grads = failing
        with no_unclosed_files():
            with pytest.raises(RuntimeError, match="step failed"):
                train_model(model, cfg, train)

    def test_no_snapshot_without_an_epoch(self):
        # a 1.4 MB parameter vector beside an 8-row split, whose evaluation
        # holds 85 KB of leaf-width arrays: a copy of the vector would be
        # the run's peak
        tree = _paper_tree()
        train = _random_split(8, 4, 5, tree, seed=4)
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(4, 64),
                          dims_v=(5, 64), fused_dim=2, epochs=0, seed=4)
        model = build_model(cfg, 4, 5, 1328, tree)
        vector_bytes = model.params().flat.nbytes
        assert vector_bytes >= 1 << 20
        before = model.params().flat.copy()
        evaluate(model, train)  # fills caches such as the tree's group indicator
        train_peak = _traced_peak(lambda: train_model(model, cfg, train))
        assert train_peak < vector_bytes / 4, (train_peak, vector_bytes)
        assert np.array_equal(model.params().flat, before)


# builds of every mode and variant; towers of 30-120-60 and 50-120-60 under
# 64 leaves in 8 groups give parameter vectors of 0.12-1.9 MB
_BUILD_TREE = LabelTree.balanced(64, 8)
_WARM = (init_tower((30, 120, 60), seed=77, scale=0.7),
         init_tower((50, 120, 60), seed=78, scale=0.7))
_BUILDS = {
    "audio": (dict(mode="audio"), None),
    "visual": (dict(mode="visual"), None),
    "fused": (dict(mode="fused"), None),
    "fused-top": (dict(mode="fused", fusion_top=(90,)), None),
    "full": (dict(mode="bilinear", variant=FULL), None),
    "factored": (dict(mode="bilinear", variant=FACTORED, fused_dim=40), None),
    "factored-shared": (dict(mode="bilinear", variant=FACTORED_SHARED, fused_dim=40), None),
    "fused-top-warm": (dict(mode="fused", fusion_top=(90,)), _WARM),
    "factored-shared-warm-a": (dict(mode="bilinear", variant=FACTORED_SHARED, fused_dim=40),
                               (_WARM[0], None)),
}
_FRESH = [tag for tag, (_, warm) in _BUILDS.items() if warm is None]

# the seed-stream slot of each part, by parameter-name prefix
_TOWER_SLOTS = {"audio": {"tower.": 0}, "visual": {"tower.": 1},
                "fused": {"tower_a.": 0, "tower_v.": 1},
                "bilinear": {"tower1.": 0, "tower2.": 1}}
_HEAD_SLOTS = {"softmax": {"top.": 3, "out.": 4}, "bilinear": {"head.": 2}}


def _build(tag, **overrides):
    fields, warm = _BUILDS[tag]
    cfg = TrainConfig(**{**dict(dims_a=(30, 120, 60), dims_v=(50, 120, 60), epochs=0,
                                seed=5, init_scale=0.3), **fields, **overrides})
    return cfg, build_model(cfg, 30, 50, 64, _BUILD_TREE, warm)


class TestBuildModel:
    """A model is built inside its parameter vector, by one init rule."""

    @pytest.mark.parametrize("tag", list(_BUILDS))
    def test_traced_peak_is_about_the_parameter_vector(self, tag):
        # drawing each part apart and packing copies peaked at 2.0-2.1x
        np.random.default_rng(0).random(1)  # numpy.random imports its modules on first use
        _build(tag)  # fills caches such as layer_names
        tracemalloc.start()
        try:
            _, model = _build(tag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vector_bytes = model.params().flat.nbytes
        assert vector_bytes >= 100_000
        assert peak < 1.25 * vector_bytes, (peak, vector_bytes)

    @pytest.mark.parametrize("tag", list(_BUILDS))
    def test_each_part_draws_its_weights_in_payload_order(self, tag):
        cfg, model = _build(tag)
        kind = "bilinear" if cfg.mode == "bilinear" else "softmax"
        slots = {**_TOWER_SLOTS[cfg.mode], **_HEAD_SLOTS[kind]}
        _, warm = _BUILDS[tag]
        warm_arrays = {}
        for prefix, tower in zip(_TOWER_SLOTS[cfg.mode], warm or ()):
            if tower is not None:
                del slots[prefix]
                warm_arrays.update({prefix + k: a for k, a in tower.param_arrays().items()})
        expected = dict(warm_arrays)
        for prefix, slot in slots.items():
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, slot]))
            for name, arr in model.params().items():
                if name.startswith(prefix):
                    bias = re.fullmatch(r"b\d*", name.rpartition(".")[2])
                    expected[name] = (np.zeros(arr.shape) if bias else
                                      rng.uniform(-cfg.init_scale, cfg.init_scale, arr.shape))
        assert sorted(expected) == sorted(model.params())
        for name, arr in model.params().items():
            assert arr.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("mode,dims,message", [
        ("audio", dict(dims_a=()), "mode 'audio' needs the tower dims dims_a"),
        ("visual", dict(dims_v=()), "mode 'visual' needs the tower dims dims_v"),
        ("fused", dict(dims_v=()), "mode 'fused' needs the tower dims dims_v"),
        ("bilinear", dict(dims_a=(31, 120, 60)),
         "architecture input dim 31 does not match dataset dim 30"),
    ])
    def test_refused_dims_name_their_field(self, mode, dims, message):
        # a uni-modal mode needs the dims of its own modality only
        cfg = TrainConfig(**{**dict(dims_a=(30, 120, 60), dims_v=(50, 120, 60), fused_dim=40,
                                    mode=mode), **dims})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_model(cfg, 30, 50, 64, _BUILD_TREE)

    @pytest.mark.parametrize("tag", _FRESH)
    def test_zero_scale_gives_positive_zeros(self, tag):
        _, model = _build(tag, init_scale=0.0)
        flat = model.params().flat
        assert np.all(flat == 0.0) and not np.signbit(flat).any()
