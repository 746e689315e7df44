import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodalnet.linalg import FlatArrays, ShapeError, frobenius_norm, frobenius_project


class TestFrobeniusProject:
    def test_inside_ball_unchanged(self):
        m = np.array([[0.6, 0.0], [0.0, 0.8]])  # norm 1
        assert np.array_equal(frobenius_project(m, 2.0), [[0.6, 0.0], [0.0, 0.8]])

    def test_three_four_five(self):
        m = np.array([[3.0, 0.0], [0.0, 4.0]])  # norm 5, forced scale 2/5
        assert np.allclose(frobenius_project(m, 2.0), [[1.2, 0.0], [0.0, 1.6]])

    def test_zero_matrix(self):
        assert np.array_equal(frobenius_project(np.zeros((3, 2)), 0.5), np.zeros((3, 2)))

    def test_rescales_in_place(self):
        m = np.full((2, 2), 2.0)  # norm 4
        out = frobenius_project(m, 1.0)
        assert out is m
        assert np.array_equal(m, np.full((2, 2), 0.5))
        inside = np.ones((2, 2))
        assert frobenius_project(inside, 10.0) is inside
        assert np.array_equal(inside, np.ones((2, 2)))

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_lambda(self, lam):
        with pytest.raises(ValueError):
            frobenius_project(np.ones((2, 2)), lam)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_projection_idempotent_and_bounded(seed):
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.1, 5.0))
    m = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
    target = float(rng.uniform(0.0, 10.0 * lam))
    norm = frobenius_norm(m)
    if norm > 0:
        m = m * (target / norm)
    once = frobenius_project(m.copy(), lam)
    twice = frobenius_project(once.copy(), lam)
    assert frobenius_norm(once) <= lam + 1e-12
    assert np.max(np.abs(twice - once)) <= 1e-15


class TestFlatArrays:
    def test_views_tile_the_vector_in_order(self):
        flat = np.arange(10.0)
        arrays = FlatArrays(flat, {"a": (2, 3), "b": (4,)})
        assert list(arrays) == ["a", "b"]
        assert arrays.layout == {"a": (0, 6), "b": (6, 10)}
        assert arrays["a"].base is flat and arrays["b"].base is flat
        assert np.array_equal(arrays["b"], [6.0, 7.0, 8.0, 9.0])
        arrays["a"][1, 2] = -1.0
        assert flat[5] == -1.0
        with pytest.raises(ShapeError):
            FlatArrays(np.zeros(9), {"a": (2, 3), "b": (4,)})

    def test_assignment_writes_through(self):
        arrays = FlatArrays(np.zeros(5), {"a": (2,), "b": (3,)})
        view = arrays["b"]
        arrays["b"] = np.array([1.0, 2.0, 3.0])
        assert arrays["b"] is view
        assert np.array_equal(arrays.flat, [0.0, 0.0, 1.0, 2.0, 3.0])
        with pytest.raises(KeyError):
            arrays["c"] = np.zeros(1)

    def test_select_shares_views_and_finds_runs(self):
        arrays = FlatArrays(np.zeros(10), {"a": (2,), "b": (3,), "c": (1,), "d": (4,)})
        assert arrays.runs == [(0, 10)]
        sub = arrays.select(["d", "a", "b"])
        assert list(sub) == ["a", "b", "d"]
        assert sub.flat is arrays.flat and sub["d"] is arrays["d"]
        assert sub.runs == [(0, 5), (6, 10)]
        assert arrays.select([]).runs == []

    def test_aligned_reads_a_twin_vector_in_place(self):
        params = FlatArrays(np.zeros(5), {"a": (2,), "b": (3,)}).select(["b"])
        twin = FlatArrays(np.arange(5.0), {"a": (2,), "b": (3,)})
        assert params.aligned(twin) is twin.flat
        # another layout, or a mapping without every name, is copied into place
        for grads in ({"b": np.array([5.0, 6.0, 7.0])},
                      FlatArrays(np.array([5.0, 6.0, 7.0, 0.0, 0.0]), {"b": (3,), "a": (2,)})):
            vector = params.aligned(grads)
            assert np.array_equal(vector, [0.0, 0.0, 5.0, 6.0, 7.0])
        with pytest.raises(KeyError):
            params.aligned(twin.select(["a"]))

    def test_zeros_like_shares_the_layout_and_is_held_by_no_one(self):
        params = FlatArrays(np.arange(5.0), {"a": (2,), "b": (3,)})
        grads = params.zeros_like()
        assert grads.layout is params.layout and list(grads) == ["a", "b"]
        assert not np.shares_memory(grads.flat, params.flat) and not grads.flat.any()
        assert grads["b"].shape == (3,) and grads["b"].base is grads.flat
        trainable = params.select(["b"])
        assert trainable.aligned(grads) is grads.flat
        assert trainable.aligned(grads.select(["b"])) is grads.flat
        # ``aligned`` keeps no reference: the vector dies with its mapping
        vector = weakref.ref(grads.flat)
        del grads
        assert vector() is None
