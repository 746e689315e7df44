import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodalnet.linalg import frobenius_norm, frobenius_project


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
