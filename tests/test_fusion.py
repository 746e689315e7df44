import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodalnet.bilinear import BilinearHead, LabelTree
from bimodalnet.data import FormatError, SynthSpec, generate_synthetic, load_model, save_model
from bimodalnet.fusion import (
    KINDS,
    Classifier,
    Ensemble,
    ModelSpec,
    SoftmaxHead,
    fuse_features,
    softmax_head_shapes,
)
from bimodalnet.linalg import FlatArrays, ShapeError, leaf_pieces
from bimodalnet.mlp import (
    MlpTower,
    forward,
    forward_features,
    init_arrays,
    init_tower,
    softmax,
)
from bimodalnet.training import TrainConfig, build_model, train_model
from tests import test_bilinear
from tests.test_data import _model_zoo


def softmax_spec(kind, dims, inputs, top_dims=None):
    """The spec of a ``kind`` model of towers with layer dims ``dims`` under
    a 4-class softmax head."""
    return ModelSpec(kind=kind, classes=4, seed=0, arch="", inputs=inputs, dims=dims,
                     variant=None, fused_dim=None, lam=None, tree=None, top_dims=top_dims)


def tower_features(tower_a, tower_v, x1, x2):
    return fuse_features([forward(tower_a, x1).features, forward(tower_v, x2).features])


class TestFuseFeatures:
    def test_fused_dimension_at_scale(self, rng):
        tower_a = init_tower([360, 64, 200], seed=0)
        tower_v = init_tower([540, 64, 200], seed=1)
        fused = tower_features(tower_a, tower_v, rng.standard_normal(360),
                               rng.standard_normal(540))
        assert fused.shape == (400,)

    def test_zero_towers_give_halves(self):
        tower_a = init_tower([5, 200], seed=0, scale=0.0)
        tower_v = init_tower([7, 200], seed=0, scale=0.0)
        fused = tower_features(tower_a, tower_v, np.ones(5), np.ones(7))
        assert fused.shape == (400,)
        assert np.all(fused == 0.5)

    def test_concatenation_order(self):
        # 1-layer linear-free check via saturating inputs is awkward; use
        # hand-built towers whose outputs we can predict exactly
        wa = np.zeros((2, 2))
        wv = np.zeros((1, 1))
        tower_a = MlpTower((2, 2), [wa], [np.array([1000.0, -1000.0])])
        tower_v = MlpTower((1, 1), [wv], [np.array([1000.0])])
        fused = tower_features(tower_a, tower_v, np.zeros(2), np.zeros(1))
        assert np.allclose(fused, [1.0, 0.0, 1.0])

    def test_batched(self, rng):
        tower_a = init_tower([4, 3], seed=0)
        tower_v = init_tower([5, 2], seed=1)
        out = tower_features(tower_a, tower_v, rng.standard_normal((6, 4)),
                             rng.standard_normal((6, 5)))
        assert out.shape == (6, 5)


class ConstantMember:
    """Ensemble member whose posterior is the same vector for every input row."""

    def __init__(self, p):
        self.p = np.asarray(p, dtype=np.float64)
        self.num_classes = self.p.size

    def posterior_batch(self, x1, x2):
        return np.tile(self.p, (len(x1), 1))

    def add_posterior(self, x1, x2, total):
        total += self.p


class StoredMember:
    """Ensemble member returning the same stored posterior array on every call."""

    def __init__(self, probs):
        self.probs = probs
        self.num_classes = probs.shape[1]

    def posterior_batch(self, x1, x2):
        return self.probs

    def add_posterior(self, x1, x2, total):
        total += self.probs


def stacked_reference(posteriors):
    """The ensemble average as the mean of the stacked posteriors, row-normalised."""
    mean = np.stack(posteriors).mean(axis=0)
    return mean / mean.sum(axis=-1, keepdims=True)


def ensemble_average(posteriors, rows=3):
    """Ensemble.posterior_batch over constant members, on ``rows`` inputs."""
    x = np.zeros((rows, 1))
    return Ensemble([ConstantMember(p) for p in posteriors]).posterior_batch(x, x)


class TestAveragePosteriors:
    def test_idempotent(self):
        p = np.array([0.2, 0.3, 0.5])
        assert np.allclose(ensemble_average([p, p, p]), p, atol=1e-15)

    def test_symmetry(self):
        ens = Ensemble([ConstantMember([1.0, 0.0]), ConstantMember([0.0, 1.0])])
        x = np.zeros((1, 1))
        assert np.allclose(ens.posterior_batch(x, x)[0], [0.5, 0.5], atol=1e-15)

    def test_column_means(self):
        out = ensemble_average([np.array([0.6, 0.4]), np.array([0.2, 0.8]),
                                np.array([0.1, 0.9])])
        assert np.allclose(out, [0.3, 0.7], atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_bit_identical_to_stacked_mean(self, k, rng):
        posteriors = [rng.dirichlet(np.ones(1328), size=16) for _ in range(k)]
        x = np.zeros((16, 1))
        out = Ensemble([StoredMember(p) for p in posteriors]).posterior_batch(x, x)
        assert np.array_equal(out, stacked_reference(posteriors))

    def test_member_arrays_left_unchanged(self, rng):
        posteriors = [rng.dirichlet(np.ones(6), size=4) for _ in range(3)]
        kept = [p.copy() for p in posteriors]
        x = np.zeros((4, 1))
        for k in (1, 3):
            ens = Ensemble([StoredMember(p) for p in posteriors[:k]])
            for _ in range(2):
                out = ens.posterior_batch(x, x)
                assert not any(np.shares_memory(out, p) for p in posteriors)
            assert all(np.array_equal(p, q) for p, q in zip(posteriors, kept))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_and_simplex(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        vecs = [rng.dirichlet(np.ones(4)) for _ in range(k)]
        out = ensemble_average(vecs)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
        shuffled = [vecs[i] for i in rng.permutation(k)]
        assert np.allclose(out, ensemble_average(shuffled), atol=1e-15)


def tiny_dataset():
    spec = SynthSpec(d1=4, d2=5, num_classes=4, num_groups=2, n_train=64,
                     n_test=16, noise_std=0.1, interaction_rank=1, seed=2)
    return generate_synthetic(spec)


class TestFusedKind:
    def test_frozen_tower_contract(self):
        train, _ = tiny_dataset()
        cfg = TrainConfig(mode="fused", dims_a=(4, 6, 3), dims_v=(5, 6, 3),
                          fusion_top=(5,), epochs=3, learning_rate=0.5,
                          seed=9, minibatch_size=8)
        model = build_model(cfg, 4, 5, 4, train.tree)
        before_a = [w.copy() for w in model.tower_a.weights]
        before_v = [w.copy() for w in model.tower_v.weights]
        top_before = model.head.top.weights[0].copy()
        train_model(model, cfg, train)
        assert all(np.array_equal(a, b) for a, b in zip(model.tower_a.weights, before_a))
        assert all(np.array_equal(a, b) for a, b in zip(model.tower_v.weights, before_v))
        assert not np.array_equal(model.head.top.weights[0], top_before)

    def test_trainable_params_exclude_towers(self):
        train, _ = tiny_dataset()
        cfg = TrainConfig(mode="fused", dims_a=(4, 3), dims_v=(5, 3), epochs=0, seed=0)
        model = build_model(cfg, 4, 5, 4, train.tree)
        names = set(model.trainable_params())
        assert names == {"out.W", "out.b"}
        assert "tower_a.W0" in model.params()

    def test_top_dim_validation(self):
        # a spec's top stack takes the towers' features, so a header whose
        # top_dims do not start at their width describes no model
        spec = softmax_spec("fused", ((4, 3), (5, 3)), (0, 1), top_dims=(6,))
        assert spec.fields()["top_dims"] == "6,6"
        assert ModelSpec.parse(spec.fields()) == spec
        with pytest.raises(FormatError, match=r"^invalid 'top_dims' header field '7,6'$"):
            ModelSpec.parse({**spec.fields(), "top_dims": "7,6"})


class TestParameterVector:
    """Each classifier keeps its parameters as views of one vector in file
    order, and its gradients in a second vector that every call refills."""

    @staticmethod
    def _check_layout(model, path):
        params = model.params()
        flat = params.flat
        assert flat.base is None and flat.dtype == np.float64
        start = 0
        for name, arr in params.items():
            assert arr.base is flat, name
            assert np.shares_memory(arr, flat[start:start + arr.size]), name
            start += arr.size
        assert start == flat.size
        # the towers and the head compute with these very views
        held = [a for t in model.towers for pair in zip(t.weights, t.biases) for a in pair]
        held += list(model.head.param_arrays().values())
        assert [id(a) for a in held] == [id(a) for a in params.values()]
        # the vector is the model file's payload, byte for byte
        save_model(model, path)
        head, _, payload = path.read_bytes().partition(b"\nbinary\n")
        names = [line.split(b" ")[1].decode() for line in head.split(b"\n")
                 if line.startswith(b"array: ")]
        assert names == list(params)
        assert payload == flat.astype("<f8").tobytes()

    def test_params_share_one_vector_in_file_order(self, tmp_path):
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            self._check_layout(model, tmp_path / f"{tag}.model")
            self._check_layout(load_model(tmp_path / f"{tag}.model"), tmp_path / "again.model")

    def test_gradients_fill_the_same_buffers(self, rng):
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            x1, x2 = rng.standard_normal((5, 5)), rng.standard_normal((5, 6))
            first = model.loglik_and_grads(x1, x2, [0, 1, 2, 3, 0])[1]
            kept = {name: g.copy() for name, g in first.items()}
            second = model.loglik_and_grads(x1[:2], x2[:2], [3, 3])[1]
            assert second is first, tag
            assert first.flat is second.flat and first.flat.size == model.params().flat.size
            assert set(first) == set(model.trainable_params()), tag
            # the earlier result now reads the later gradients
            assert any(not np.array_equal(first[n], kept[n]) for n in first), tag

    def test_release_drops_the_gradient_vector(self, rng):
        x1, x2, targets = rng.standard_normal((5, 5)), rng.standard_normal((5, 6)), [0, 1, 2, 3, 0]
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            first = model.loglik_and_grads(x1, x2, targets)[1]
            kept = first.flat.copy()
            vector = weakref.ref(first.flat)
            del first
            model.release_gradients()
            assert vector() is None, tag
            again = model.loglik_and_grads(x1, x2, targets)[1]
            assert again.layout is model.params().layout, tag
            assert again.flat.tobytes() == kept.tobytes(), tag

    def test_heads_form_error_signals_only_for_a_tower_that_takes_one(self, rng):
        x1, x2, targets = rng.standard_normal((5, 5)), rng.standard_normal((5, 6)), [0, 1, 2, 3, 0]
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            exact = model.head.gradients
            calls = []

            def spy(*args, **kwargs):
                result = exact(*args, **kwargs)
                calls.append((kwargs["input_delta"], result[2]))
                return result

            model.head.gradients = spy
            for frozen in ((), [n for n in model.params() if n.startswith("tower")]):
                model.frozen = frozen
                model.loglik_and_grads(x1, x2, targets)
                input_delta, errors = calls.pop()
                assert input_delta == (not frozen), (tag, frozen)
                assert all((e is None) == (not input_delta) for e in errors), tag

    def test_skipped_error_signals_leave_the_gradients_bit_identical(self, rng):
        features = [rng.standard_normal((5, 4)), rng.standard_normal((5, 4))]
        targets = np.array([0, 1, 2, 3, 0])
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            head = model.head
            dims = [t.layer_dims[-1] for t in model.towers]
            feats = [f[:, :d] for f, d in zip(features, dims)]
            probs, grads, errors = head.gradients(feats, targets, 0.2)
            probs_0, grads_0, errors_0 = head.gradients(feats, targets, 0.2, input_delta=False)
            assert all(e is not None for e in errors) and errors_0 == [None] * len(feats), tag
            assert probs.tobytes() == probs_0.tobytes(), tag
            assert grads.keys() == grads_0.keys(), tag
            for name in grads:
                assert grads[name].tobytes() == grads_0[name].tobytes(), (tag, name)

    def test_frozen_may_be_reassigned(self):
        train, _ = tiny_dataset()
        cfg = TrainConfig(mode="fused", dims_a=(4, 3), dims_v=(5, 3), epochs=0, seed=0)
        model = build_model(cfg, 4, 5, 4, train.tree)
        _, grads = model.loglik_and_grads(train.x1[:4], train.x2[:4], train.y[:4])
        assert set(grads) == {"out.W", "out.b"}
        model.frozen = {"tower_v.W0", "tower_v.b0", "out.b"}
        assert list(model.trainable_params()) == ["tower_a.W0", "tower_a.b0", "out.W"]
        assert len(model.trainable_params().runs) == 2
        _, grads = model.loglik_and_grads(train.x1[:4], train.x2[:4], train.y[:4])
        assert set(grads) == {"tower_a.W0", "tower_a.b0", "out.W", "out.b"}
        assert np.abs(grads["tower_a.W0"]).sum() > 0

    def test_frozen_refuses_a_name_that_is_not_a_parameter(self):
        train, _ = tiny_dataset()
        cfg = TrainConfig(mode="fused", dims_a=(4, 3), dims_v=(5, 3), epochs=0, seed=0)
        model = build_model(cfg, 4, 5, 4, train.tree)
        before = model.frozen
        with pytest.raises(ValueError, match=r"^no parameter 'towr_v\.W0' to freeze$"):
            model.frozen = {"tower_a.W0", "towr_v.W0"}
        assert model.frozen == before


class TestParts:
    """A classifier's parameters are its parts' ``param_arrays``, each under
    its prefix: the towers in kind order, then the head, whose ``top`` stack
    names its own arrays under ``top.``."""

    def test_prefixed_part_arrays_are_the_params(self):
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            spec = KINDS[model.kind]
            parts = [(f"{name}.{k}", a) for name, tower in zip(spec.towers, model.towers)
                     for k, a in tower.param_arrays().items()]
            parts += [(spec.head_prefix + k, a) for k, a in model.head.param_arrays().items()]
            params = model.params()
            assert [name for name, _ in parts] == list(params), tag
            assert all(a is params[name] for name, a in parts), tag
            top = getattr(model.head, "top", None)
            assert (top is not None) == (tag == "fused-deep"), tag
            if top is not None:
                named = [(f"top.{k}", id(a)) for k, a in top.param_arrays().items()]
                assert named == [(k, id(a)) for k, a in model.head.param_arrays().items()
                                 if k.startswith("top.")], tag

    def test_each_part_is_built_from_its_arrays(self, rng):
        # from_arrays is the inverse of param_arrays: the part it builds holds
        # the very arrays, so a classifier takes it on the same vector
        x1, x2 = rng.standard_normal((3, 5)), rng.standard_normal((3, 6))
        for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
            towers = [MlpTower.from_arrays(t.param_arrays()) for t in model.towers]
            head = model.head
            if isinstance(head, BilinearHead):
                again = BilinearHead.from_arrays(head.variant, head.param_arrays(), head.lam,
                                                 head.tree)
            else:
                again = SoftmaxHead.from_arrays(head.param_arrays())
            for part, built in zip(model.towers + [head], towers + [again]):
                assert type(built) is type(part), tag
                held, given = built.param_arrays(), part.param_arrays()
                assert list(held) == list(given), tag
                assert all(held[k] is a for k, a in given.items()), tag
            for tower, built, slot in zip(model.towers, towers, model.inputs):
                x = (x1, x2)[slot]
                assert forward(built, x).features.tobytes() == forward(tower, x).features.tobytes()
            rebuilt = Classifier(model.spec, model.params())
            assert (rebuilt.posterior_batch(x1, x2).tobytes()
                    == model.posterior_batch(x1, x2).tobytes()), tag


class TestRefusedComposition:
    @pytest.mark.parametrize("inputs", [(2,), (-1,), (0, 1, 2)])
    def test_input_slot_outside_0_and_1(self, inputs):
        # the composition is checked before the parameter vector
        with pytest.raises(ValueError, match=rf"^input slots must be 0 or 1, got "
                                             rf"{re.escape(str(inputs))}$"):
            Classifier(softmax_spec("unimodal", ((5, 4),), inputs), FlatArrays.empty({}))

    @pytest.mark.parametrize("kind,towers,inputs", [
        ("unimodal", 2, None),
        ("fused", 1, None),
        ("fused", 2, (0,)),
        ("unimodal", 1, (0, 1)),
    ])
    def test_tower_count_and_input_slots_follow_the_kind(self, kind, towers, inputs):
        # a unimodal model of two towers would hold no head arrays, and a
        # fused one of one slot would fail in its first matmul
        dims = ((5, 4), (6, 4))[:towers]
        expected = len(KINDS[kind].towers)
        got = tuple(range(towers)) if inputs is None else inputs
        with pytest.raises(ValueError, match=rf"^a {kind} classifier takes {expected} "
                                             rf"tower\(s\), one per input slot; got "
                                             rf"{towers} and slots {re.escape(str(got))}$"):
            Classifier(softmax_spec(kind, dims, got), FlatArrays.empty({}))

    def test_the_vector_of_another_model_is_refused_and_stays_in_it(self, rng):
        # a fused model of the bilinear model's tower dims, on that model's vector
        cfg = TrainConfig(mode="bilinear", variant="factored-shared",
                          dims_a=(4, 3), dims_v=(5, 3), fused_dim=2, epochs=0, seed=1)
        bil = build_model(cfg, 4, 5, 4, LabelTree.balanced(4, 2))
        spec = softmax_spec("fused", bil.spec.dims, (0, 1))
        with pytest.raises(ShapeError, match=r"^params are not the arrays of a fused model "
                                             r"of this spec$"):
            Classifier(spec, bil.params())
        # bil keeps its towers: they still compute with its parameter vector
        assert np.shares_memory(bil.tower1.weights[0], bil.params().flat)
        x1, x2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 5))
        before = bil.posterior_batch(x1, x2)
        bil.params()["tower1.W0"] += 1.0
        assert not np.array_equal(bil.posterior_batch(x1, x2), before)

    @pytest.mark.parametrize("group_of", [[0, 1, 0, 1], [0, 0, 0, 1]])
    def test_members_that_disagree_on_the_label_tree(self, group_of):
        cfg = TrainConfig(mode="bilinear", variant="factored-shared",
                          dims_a=(4, 3), dims_v=(5, 3), fused_dim=2, epochs=0, seed=1)
        first = build_model(cfg, 4, 5, 4, LabelTree.balanced(4, 2))
        other = build_model(cfg, 4, 5, 4, LabelTree(np.array(group_of), 2))
        assert Ensemble([first, first]).tree == first.tree
        with pytest.raises(ValueError, match="^ensemble members disagree on the label tree$"):
            Ensemble([first, other])


class TestEnsemble:
    def test_members_must_share_classes(self):
        train, _ = tiny_dataset()
        cfg4 = TrainConfig(mode="fused", dims_a=(4, 3), dims_v=(5, 3), epochs=0, seed=0)
        m4 = build_model(cfg4, 4, 5, 4, train.tree)
        m3 = build_model(cfg4, 4, 5, 3, LabelTree.balanced(3, 3))
        with pytest.raises(ShapeError):
            Ensemble([m4, m3])

    def test_posterior_is_member_average(self):
        train, _ = tiny_dataset()
        cfg = TrainConfig(mode="bilinear", variant="factored-shared",
                          dims_a=(4, 3), dims_v=(5, 3), fused_dim=2, epochs=0, seed=1)
        models = [build_model(TrainConfig(**{**cfg.__dict__, "seed": s}),
                              4, 5, 4, train.tree) for s in (1, 2, 3)]
        ens = Ensemble(models)
        x1, x2 = train.x1[:5], train.x2[:5]
        direct = np.mean([m.posterior_batch(x1, x2) for m in models], axis=0)
        assert np.allclose(ens.posterior_batch(x1, x2), direct, atol=1e-12)
        single = ens.posterior_batch(x1[:1], x2[:1])[0]
        assert np.allclose(single, direct[0], atol=1e-12)

    def test_model_listed_twice(self):
        train, _ = tiny_dataset()
        cfg = TrainConfig(mode="bilinear", variant="factored-shared",
                          dims_a=(4, 3), dims_v=(5, 3), fused_dim=2, epochs=0, seed=1)
        m1 = build_model(cfg, 4, 5, 4, train.tree)
        m2 = build_model(TrainConfig(**{**cfg.__dict__, "mode": "fused", "seed": 2}),
                         4, 5, 4, train.tree)
        x1, x2 = train.x1[:5], train.x2[:5]
        members = [m1, m2, m1]
        expected = stacked_reference([m.posterior_batch(x1, x2) for m in members])
        assert np.array_equal(Ensemble(members).posterior_batch(x1, x2), expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ensemble([])


class TestSoftmaxHeadPieces:
    """A softmax head's posteriors are softmax(f W + b) of its fused features
    f, run through its top stack when it has one, bit for bit, whether it
    reads a whole batch, adds them into a total one leaf piece of rows at a
    time or takes a step, over the bilinear heads' batches (one to eleven
    pieces at C=1328)."""

    @pytest.fixture(scope="class")
    def heads(self):
        """Each head, with the widths of the tower features it reads."""
        kinds = {"unimodal": ((200,), ()), "fused": ((200, 200), ()),
                 "fused-top": ((200, 200), (200,))}
        heads = {}
        for seed, (tag, (widths, top_dims)) in enumerate(kinds.items()):
            arrays = init_arrays(softmax_head_shapes(sum(widths), 1328, top_dims), seed, 0.5)
            arrays["out.b"][:] = np.random.default_rng(3).uniform(-0.5, 0.5, 1328)
            heads[tag] = SoftmaxHead.from_arrays(arrays), widths
        return heads

    @pytest.mark.parametrize("rows", test_bilinear.TestLeafLogitPieces.BATCHES)
    @pytest.mark.parametrize("tag", ("unimodal", "fused", "fused-top"))
    def test_each_path_gives_the_whole_batch_posteriors(self, heads, tag, rows):
        head, widths = heads[tag]
        rng = np.random.default_rng(rows)
        features = [rng.uniform(0, 1, (rows, width)) for width in widths]
        feats = np.concatenate(features, axis=1)
        if head.top is not None:
            feats = forward_features(head.top, feats)
        expected = softmax(feats @ head.weights + head.bias)
        total = np.zeros((rows, 1328))
        head.add_probabilities(features, total)  # 0 + p is p
        targets = rng.integers(0, 1328, rows)
        got = {"read": head.probabilities(features), "added": total,
               "step": head.gradients(features, targets, 1.0 / rows)[0]}
        # every path, so that a failure names each one that differs
        assert {path: np.array_equal(p, expected) for path, p in got.items()} == dict.fromkeys(
            got, True)


class TestPaperShapeEnsemble:
    """At the paper's shapes an ensemble read adds each member's posteriors
    into its accumulator a leaf piece at a time, from the towers' features
    alone, and gives the mean of the members' whole-block posteriors bit for
    bit."""

    ROWS = 373  # an evaluation block of a 4,096-row split at C=1328

    @pytest.fixture(scope="class")
    def members(self):
        tree = LabelTree(np.arange(1328) * 42 // 1328, 42)
        common = dict(dims_a=(360, 500, 200), dims_v=(540, 500, 200), epochs=0,
                      init_scale=0.1)
        configs = [TrainConfig(mode="bilinear", variant="factored-shared", fused_dim=200,
                               seed=1, **common),
                   TrainConfig(mode="bilinear", variant="factored", fused_dim=200, seed=2,
                               **common),
                   TrainConfig(mode="fused", fusion_top=(200,), seed=3, **common),
                   TrainConfig(mode="audio", seed=4, **common)]
        return [build_model(cfg, 360, 540, 1328, tree) for cfg in configs]

    @pytest.fixture(scope="class")
    def block(self):
        rng = np.random.default_rng(5)
        return rng.standard_normal((self.ROWS, 360)), rng.standard_normal((self.ROWS, 540))

    def test_block_spans_several_pieces(self):
        assert len(leaf_pieces(self.ROWS, 1328)) == 4

    def test_mean_is_the_stacked_mean_of_whole_block_posteriors(self, members, block):
        expected = stacked_reference([m.posterior_batch(*block) for m in members])
        assert np.array_equal(Ensemble(members).posterior_batch(*block), expected)

    @pytest.mark.parametrize("i", range(4))
    def test_one_member_ensemble_is_its_member(self, members, block, i):
        probs = members[i].posterior_batch(*block)
        total = np.zeros_like(probs)
        members[i].add_posterior(*block, total)
        assert np.array_equal(total, probs)
        assert np.array_equal(Ensemble(members[i:i + 1]).posterior_batch(*block),
                              stacked_reference([probs]))
