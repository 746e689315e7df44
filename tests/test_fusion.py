import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodalnet.bilinear import LabelTree
from bimodalnet.data import SynthSpec, generate_synthetic
from bimodalnet.fusion import (
    Ensemble,
    FusedClassifier,
    average_posteriors,
    fuse_features,
    init_softmax_head,
)
from bimodalnet.linalg import ShapeError
from bimodalnet.mlp import MlpTower, forward, init_tower
from bimodalnet.training import TrainConfig, build_model, train_model


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


class TestAveragePosteriors:
    def test_idempotent(self):
        p = np.array([0.2, 0.3, 0.5])
        assert np.allclose(average_posteriors([p, p, p]), p, atol=1e-15)

    def test_symmetry(self):
        out = average_posteriors([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_column_means(self):
        out = average_posteriors([np.array([0.6, 0.4]), np.array([0.2, 0.8]),
                                  np.array([0.1, 0.9])])
        assert np.allclose(out, [0.3, 0.7], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_posteriors([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            average_posteriors([np.array([0.5, 0.5]), np.array([1.0])])

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            average_posteriors([np.array([0.9, 0.3])])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_and_simplex(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        vecs = [rng.dirichlet(np.ones(4)) for _ in range(k)]
        out = average_posteriors(vecs)
        assert abs(out.sum() - 1.0) <= 1e-12
        shuffled = [vecs[i] for i in rng.permutation(k)]
        assert np.allclose(out, average_posteriors(shuffled), atol=1e-15)


def tiny_dataset():
    spec = SynthSpec(d1=4, d2=5, num_classes=4, num_groups=2, n_train=64,
                     n_test=16, noise_std=0.1, interaction_rank=1, seed=2)
    return generate_synthetic(spec)


class TestFusedClassifier:
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
        tower_a = init_tower([4, 3], seed=0)
        tower_v = init_tower([5, 3], seed=1)
        head = init_softmax_head(6, 4, seed=2, top=init_tower([7, 6], seed=3))
        with pytest.raises(ShapeError):
            FusedClassifier([tower_a, tower_v], head)


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
        single = ens.posterior(train.x1[0], train.x2[0])
        assert np.allclose(single, ens.posterior_batch(x1[:1], x2[:1])[0], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ensemble([])
