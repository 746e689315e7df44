import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodalnet.fusion import SoftmaxHead
from bimodalnet.linalg import ShapeError
from bimodalnet.mlp import (
    MlpTower,
    backward,
    forward,
    forward_features,
    init_tower,
    log_likelihoods,
    sigmoid,
    softmax,
)
from tests.conftest import finite_difference, max_rel_error

DEEP_TOWER_DIMS = (360, 1024, 1024, 1024, 1024, 1024, 200)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation_no_nan(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == pytest.approx(1.0, abs=1e-15)

    def test_log3(self):
        assert sigmoid(np.array([math.log(3.0)]))[0] == pytest.approx(0.75, abs=1e-15)

    def test_saturation_exact_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    @given(st.floats(-700, 700))
    @settings(max_examples=500, deadline=None)
    def test_close_to_exact_logistic(self, u):
        with localcontext() as ctx:
            ctx.prec = 60
            exact = 1 / (1 + (-Decimal(u)).exp())
            assert abs(Decimal(float(sigmoid(np.array([u]))[0])) - exact) <= Decimal("2.3e-16")


class TestInitTower:
    def test_deep_architecture_shapes(self):
        tower = init_tower(DEEP_TOWER_DIMS, seed=0)
        assert tower.layer_dims == DEEP_TOWER_DIMS
        for l in range(len(DEEP_TOWER_DIMS) - 1):
            assert tower.weights[l].shape == (DEEP_TOWER_DIMS[l], DEEP_TOWER_DIMS[l + 1])
            assert np.array_equal(tower.biases[l], np.zeros(DEEP_TOWER_DIMS[l + 1]))

    def test_seed_determinism(self):
        a = init_tower([5, 4, 3], seed=7)
        b = init_tower([5, 4, 3], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_zero_scale(self):
        tower = init_tower([3, 2], seed=1, scale=0.0)
        assert np.array_equal(tower.weights[0], np.zeros((3, 2)))

    def test_scale_bound(self):
        tower = init_tower([10, 10], seed=3, scale=0.01)
        assert np.max(np.abs(tower.weights[0])) <= 0.01

    @pytest.mark.parametrize("dims", [[], [5], [3, 0, 2], [0, 4]])
    def test_invalid_dims(self, dims):
        with pytest.raises(ValueError):
            init_tower(dims, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["W0", "b0", "W1", "b1"])
    def test_non_finite_parameter_is_refused(self, array, value):
        tower = init_tower([3, 4, 2], seed=1)
        arrays = {"W0": tower.weights[0], "b0": tower.biases[0],
                  "W1": tower.weights[1], "b1": tower.biases[1]}
        arrays[array][-1] = value
        with pytest.raises(ValueError, match=f"layer {array[1]}: non-finite parameters"):
            MlpTower(tower.layer_dims, tower.weights, tower.biases)


class TestForward:
    def test_zero_tower_gives_halves(self, rng):
        tower = init_tower([4, 3, 2], seed=0, scale=0.0)
        trace = forward(tower, rng.standard_normal(4))
        for h in trace.post:
            assert np.all(h == 0.5)

    def test_scalar_evaluation(self):
        tower = MlpTower((1, 1), [np.array([[1.0]])], [np.zeros(1)])
        trace = forward(tower, np.array([math.log(3.0)]))
        assert trace.features[0] == pytest.approx(0.75, abs=1e-15)

    def test_deep_tower_feature_length(self, rng):
        tower = init_tower(DEEP_TOWER_DIMS, seed=0)
        trace = forward(tower, rng.standard_normal(360))
        assert trace.features.shape == (200,)

    def test_dim_mismatch(self):
        tower = init_tower([4, 3], seed=0)
        with pytest.raises(ShapeError):
            forward(tower, np.zeros(5))
        with pytest.raises(ShapeError):
            forward_features(tower, np.zeros(5))

    @pytest.mark.parametrize("x_shape", [(4,), (1, 4), (7, 4)])
    def test_features_alone_are_the_trace_features(self, rng, x_shape):
        tower = init_tower([4, 5, 6, 3], seed=2, scale=0.5)
        x = rng.standard_normal(x_shape)
        assert forward_features(tower, x).tobytes() == forward(tower, x).features.tobytes()

    def test_batch_matches_single(self, rng):
        tower = init_tower([4, 5, 3], seed=2, scale=0.5)
        xs = rng.standard_normal((6, 4))
        batch = forward(tower, xs)
        for i in range(6):
            single = forward(tower, xs[i])
            for hb, hs in zip(batch.post, single.post):
                assert np.allclose(hb[i], hs, atol=1e-15)

    def test_determinism(self, rng):
        tower = init_tower([4, 5, 3], seed=2, scale=0.5)
        x = rng.standard_normal(4)
        a = forward(tower, x)
        b = forward(tower, x)
        assert all(np.array_equal(u, v) for u, v in zip(a.post, b.post))


class TestBackward:
    def test_zero_delta_gives_zero_grads(self, rng):
        tower = init_tower([4, 5, 3], seed=2, scale=0.5)
        trace = forward(tower, rng.standard_normal((1, 4)))
        grads = backward(tower, trace, np.zeros((1, 3)))
        assert all(np.all(g == 0.0) for g in grads.weights)
        assert all(np.all(g == 0.0) for g in grads.biases)
        assert np.all(grads.delta_input == 0.0)

    def test_bias_gradient_by_hand(self):
        # u = 0, delta = 1  =>  dE/db = sigma'(0) * 1 = 0.25
        tower = MlpTower((1, 1), [np.array([[1.0]])], [np.zeros(1)])
        trace = forward(tower, np.array([[0.0]]))
        grads = backward(tower, trace, np.array([[1.0]]))
        assert grads.biases[0][0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("dims,seed", [
        ((3, 2), 0), ((5, 4, 3), 1), ((8, 7, 6, 5), 2), ((2, 8, 1), 3),
    ])
    def test_gradients_match_finite_differences(self, dims, seed):
        # fixed quadratic objective on the features: E = 0.5 * ||v_L||^2
        tower = init_tower(dims, seed=seed, scale=0.8)
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal((1, dims[0]))
        for l in range(tower.num_layers):
            tower.biases[l][:] = rng.uniform(-0.5, 0.5, dims[l + 1])

        def objective():
            return 0.5 * float(np.sum(forward(tower, x).features ** 2))

        trace = forward(tower, x)
        grads = backward(tower, trace, trace.features)
        analytic = {f"W{l}": grads.weights[l] for l in range(tower.num_layers)}
        analytic.update({f"b{l}": grads.biases[l] for l in range(tower.num_layers)})
        arrays = {f"W{l}": tower.weights[l] for l in range(tower.num_layers)}
        arrays.update({f"b{l}": tower.biases[l] for l in range(tower.num_layers)})
        numeric = finite_difference(objective, arrays, h=1e-5)
        assert max_rel_error(analytic, numeric) < 1e-6

    def test_batch_backward_sums_rows(self, rng):
        tower = init_tower([4, 5, 3], seed=2, scale=0.5)
        xs = rng.standard_normal((5, 4))
        deltas = rng.standard_normal((5, 3))
        batch = backward(tower, forward(tower, xs), deltas)
        summed = [np.zeros_like(w) for w in tower.weights]
        for i in range(5):
            single = backward(tower, forward(tower, xs[i:i + 1]), deltas[i:i + 1])
            for l in range(tower.num_layers):
                summed[l] += single.weights[l]
        for l in range(tower.num_layers):
            assert np.allclose(batch.weights[l], summed[l], atol=1e-12)

    def test_shape_mismatch(self, rng):
        tower = init_tower([4, 3], seed=0)
        x = rng.standard_normal((1, 4))
        with pytest.raises(ShapeError):
            backward(tower, forward(tower, x), np.zeros((1, 4)))
        with pytest.raises(ShapeError, match="batch rows"):
            backward(tower, forward(tower, x[0]), np.zeros(3))


class TestSoftmaxLayer:
    def test_probabilities_sum_to_one(self, rng):
        layer = SoftmaxHead(rng.uniform(-0.8, 0.8, (5, 7)), np.zeros(7))
        probs = layer.probabilities([rng.standard_normal((10, 5))])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_at_zero(self):
        layer = SoftmaxHead(np.zeros((3, 4)), np.zeros(4))
        assert np.allclose(layer.probabilities([np.ones((1, 3))]), 0.25)

    def test_softmax_max_subtraction_stable(self):
        probs = softmax(np.array([1e4, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    @staticmethod
    def _max_form(z):
        e = z - z.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        return e

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(32, 8), (1000, 8), (7, 1), (1, 5), (3, 1328), (2, 3, 4)])
    def test_batch_rows_are_bit_identical_to_the_max_form(self, rng, shape):
        z = rng.standard_normal(shape)
        rows = z.reshape(-1, shape[-1])
        rows[0, -1] = np.nan
        if len(rows) > 1:
            rows[1, :] = 0.5  # a tied row
            rows[-1, :] = 0.0
            rows[-1, 1::2] = -0.0  # zeros of both signs tie
        if len(rows) > 2:
            rows[2, 0] = np.inf
            rows[2, -1] = -np.inf
        expected = self._max_form(z.copy())
        assert softmax(z).view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
        softmax(z, out=z)
        assert z.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()

    def test_one_row_and_empty_input_take_the_max_form(self, rng):
        v = rng.standard_normal(6)
        assert softmax(v).tobytes() == self._max_form(v.copy()).tobytes()
        assert softmax(np.empty((0, 4))).shape == (0, 4)


class TestLogLikelihoods:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(4)[[0, 2, 1]]
        assert np.array_equal(log_likelihoods(probs, [0, 2, 1]), np.zeros(3))

    def test_uniform_four_classes(self):
        probs = np.full((3, 4), 0.25)
        assert np.allclose(log_likelihoods(probs, [0, 1, 3]), -math.log(4), rtol=0, atol=1e-12)

    def test_chance_level_large_class_count(self):
        probs = np.full((2, 1328), 1.0 / 1328)
        nll = -log_likelihoods(probs, [5, 1000]).mean()
        assert nll == pytest.approx(math.log(1328), abs=1e-12)
        assert nll == pytest.approx(7.1915, abs=1e-4)

    def test_zero_probability_clamped(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        value = log_likelihoods(probs, [1, 1])
        assert np.isfinite(value).all()
        assert value[0] == pytest.approx(math.log(1e-300), rel=1e-12)
        assert value[1] == math.log(0.5)
