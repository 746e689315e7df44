import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodalnet import bilinear
from bimodalnet.bilinear import (
    FACTORED,
    FACTORED_SHARED,
    FULL,
    VARIANTS,
    BilinearHead,
    LabelTree,
    VariantError,
    init_head,
    materialize_w,
    param_count,
    posterior_batch,
)
from bimodalnet.linalg import LEAF_PIECE_BYTES, ShapeError
from bimodalnet.mlp import softmax, target_delta
from bimodalnet.training import TrainConfig, build_model, grad_check
from tests.conftest import finite_difference, max_rel_error


def random_head(variant, rng, k1=3, k2=4, c=6, g=None, f=2, lam=2.0):
    tree = LabelTree.singleton(c) if g is None else LabelTree.balanced(c, g)
    head = init_head(variant, k1, k2, c,
                     fused_dim=None if variant == FULL else f,
                     tree=tree, seed=int(rng.integers(2**31)), scale=0.7, lam=lam)
    head.b[:] = rng.uniform(-0.5, 0.5, c)
    return head


def leaf_and_group_deltas(probs, target, tree):
    """delta_L and delta_G of one sample, as training forms them: the batched
    error signal and its group sums."""
    dl = target_delta(np.array([probs], dtype=np.float64), np.array([target]))
    return dl[0], tree.group_sums(dl)[0]


def head_posterior(head, v1, v2):
    """The head's posterior for one sample: ``posterior_batch`` on one row."""
    return posterior_batch(head, v1[None], v2[None])[0]


def head_gradients(head, v1, v2, target):
    """The head's gradients by parameter name and its error signal for each
    tower, for one sample with the objective E = log p(target | v1, v2)."""
    _, grads, (delta1, delta2) = head.gradients([v1[None], v2[None]], np.array([target]), 1.0)
    return grads, delta1[0], delta2[0]


def small_bilinear_model():
    cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(3, 4, 2),
                      dims_v=(3, 4, 2), fused_dim=2, epochs=0, init_scale=0.5, seed=4)
    return build_model(cfg, 3, 3, 4, LabelTree.balanced(4, 2))


class TestLabelTree:
    def test_balanced(self):
        tree = LabelTree.balanced(6, 3)
        assert np.array_equal(tree.group_of, [0, 0, 1, 1, 2, 2])
        assert np.array_equal(tree.members(1), [2, 3])

    @pytest.mark.parametrize("leaves,groups", [(0, 0), (0, 1), (4, 0), (-2, -2)])
    def test_balanced_needs_a_leaf_and_a_group(self, leaves, groups):
        with pytest.raises(ValueError, match="at least one leaf and one group"):
            LabelTree.balanced(leaves, groups)

    def test_singleton(self):
        tree = LabelTree.singleton(4)
        assert tree.num_groups == 4
        assert np.array_equal(tree.group_of, np.arange(4))

    def test_indicator_sums_leaf_mass(self):
        tree = LabelTree.balanced(4, 2)
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(tree.group_sums(probs[None]), [[0.7, 0.3]])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            LabelTree(np.array([0, 0, 2]), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabelTree(np.array([0, 5]), 2)

    def test_rejects_uneven_balanced(self):
        with pytest.raises(ValueError):
            LabelTree.balanced(5, 2)

    @pytest.mark.parametrize("groups", [2.5, 1.999, math.inf, -math.inf, math.nan])
    def test_rejects_a_group_count_that_is_not_an_integer(self, groups):
        with pytest.raises(ValueError, match=rf"^num_groups must be an integer, "
                                             rf"got {re.escape(repr(groups))}$"):
            LabelTree(np.array([0, 0, 1, 1]), groups)

    def test_integral_float_group_count_is_that_integer(self):
        tree = LabelTree(np.array([0, 0, 1, 1]), 2.0)
        assert tree.num_groups == 2 and type(tree.num_groups) is int


class TestPosterior:
    def test_all_zero_parameters_uniform(self):
        tree = LabelTree.balanced(4, 2)
        head = BilinearHead(FACTORED_SHARED, 3, 3, 4,
                            u1=np.zeros((3, 2)), u2=np.zeros((3, 2)),
                            w=np.zeros((2, 2)), tree=tree)
        p = head_posterior(head, np.ones(3), np.ones(3))
        assert np.allclose(p, 0.25, atol=1e-15)

    @pytest.mark.parametrize("arrays,message", [
        # U2 and w both differ: the first in payload order is named
        (dict(u1=(3, 2), u2=(5, 2), w=(2, 2)), "array U2 has shape (5, 2), expected (4, 2)"),
        (dict(u1=(3, 2), u2=(4, 2), w=(2, 6)), "array w has shape (2, 6), expected (2, 3)"),
        (dict(u1=(3, 2), u2=(4, 2), w=(2, 3), v2=(4, 5)),
         "array V2 has shape (4, 5), expected (4, 6)"),
        (dict(u2=(4, 2), w=(2, 3)), "array U1 has shape None, expected "),
    ])
    def test_first_misshaped_array_is_named(self, arrays, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}"):
            BilinearHead(FACTORED_SHARED, 3, 4, 6, tree=LabelTree.balanced(6, 3),
                         **{attr: np.zeros(shape) for attr, shape in arrays.items()})
        with pytest.raises(ShapeError, match=re.escape("array W has shape (6, 4, 3)")):
            BilinearHead(FULL, 3, 4, 6, w_stack=np.zeros((6, 4, 3)))

    def test_bias_only(self):
        head = BilinearHead(FULL, 2, 2, 3, w_stack=np.zeros((3, 2, 2)),
                            b=np.array([math.log(2.0), 0.0, 0.0]))
        p = head_posterior(head, np.zeros(2), np.zeros(2))
        assert np.allclose(p, [0.5, 0.25, 0.25], atol=1e-12)

    def test_scalar_bilinear_case(self):
        # K1 = K2 = 1, W^1 = [[2]], W^2 = [[0]], v1 = v2 = [1]
        head = BilinearHead(FULL, 1, 1, 2,
                            w_stack=np.array([[[2.0]], [[0.0]]]))
        p = head_posterior(head, np.array([1.0]), np.array([1.0]))
        expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
        assert p[0] == pytest.approx(expected, abs=1e-12)
        assert p[0] == pytest.approx(0.88080, abs=5e-6)
        assert p[1] == pytest.approx(0.11920, abs=5e-6)

    def test_shape_error(self, rng):
        head = random_head(FACTORED, rng)
        with pytest.raises(ValueError):  # numpy's matmul refuses the widths
            posterior_batch(head, np.zeros((1, 99)), np.zeros((1, 4)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_simplex(self, seed):
        rng = np.random.default_rng(seed)
        variant = (FULL, FACTORED, FACTORED_SHARED)[seed % 3]
        head = random_head(variant, rng)
        p = head_posterior(head, rng.standard_normal(3), rng.standard_normal(4))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0)


def _whole_batch_logits(head, f1, f2):
    """The logits as one whole-batch expression: the bilinear term, then
    f1 @ V1, f2 @ V2 and b, each added over every row at once."""
    a1 = a2 = None
    if head.variant == FULL:
        logits = np.einsum("bi,cij,bj->bc", f1, head.w_stack, f2, optimize=True)
    else:
        a1, a2 = f1 @ head.u1, f2 @ head.u2
        logits = (a1 * a2) @ head.w
        if head.variant == FACTORED_SHARED:
            logits = np.take(logits, head.tree.group_of, axis=1)
    logits += f1 @ head.v1
    logits += f2 @ head.v2
    logits += head.b
    return logits, a1, a2


class TestLeafLogitPieces:
    """The head adds f1 @ V1, f2 @ V2 and b into its logits in row pieces
    whose product stays under LEAF_PIECE_BYTES; the posteriors, gradients
    and error signals are those of the whole-batch expression, bit for bit.
    At C=1328 a piece holds at most 98 rows, so the batches below take one
    to eleven pieces."""

    BATCHES = (1, 2, 97, 98, 99, 197, 394, 1000)

    @pytest.fixture(scope="class")
    def heads(self):
        tree = LabelTree(np.arange(1328) * 42 // 1328, 42)
        heads = {variant: init_head(variant, 200, 200, 1328, fused_dim=200, tree=tree,
                                    seed=seed, scale=0.5)
                 for seed, variant in enumerate((FACTORED_SHARED, FACTORED))}
        heads[FULL] = init_head(FULL, 3, 4, 1328, seed=2, scale=0.5)
        for head in heads.values():
            head.b[:] = np.random.default_rng(3).uniform(-0.5, 0.5, 1328)
        return heads

    @staticmethod
    def _batch(head, rows):
        rng = np.random.default_rng(rows)
        return (rng.uniform(0, 1, (rows, head.dim1)), rng.uniform(0, 1, (rows, head.dim2)),
                rng.integers(0, head.num_classes, rows))

    def test_at_most_98_rows_a_piece(self):
        assert LEAF_PIECE_BYTES // (8 * 1328) == 98

    @pytest.mark.parametrize("rows", BATCHES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_posteriors_match_the_whole_batch(self, heads, variant, rows):
        head = heads[variant]
        f1, f2, _ = self._batch(head, rows)
        expected = softmax(_whole_batch_logits(head, f1, f2)[0])
        assert np.array_equal(posterior_batch(head, f1, f2), expected)

    @pytest.mark.parametrize("rows", BATCHES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_match_the_whole_batch(self, heads, variant, rows, monkeypatch):
        head = heads[variant]
        f1, f2, targets = self._batch(head, rows)
        got = bilinear._grads_batch(head, f1, f2, targets, 1.0 / rows)
        monkeypatch.setattr(bilinear, "_leaf_logits", _whole_batch_logits)
        expected = bilinear._grads_batch(head, f1, f2, targets, 1.0 / rows)
        assert np.array_equal(got[0], expected[0])  # probabilities
        assert got[1].keys() == expected[1].keys()
        for name in expected[1]:
            assert np.array_equal(got[1][name], expected[1][name]), name
        assert np.array_equal(got[2], expected[2]) and np.array_equal(got[3], expected[3])

    @pytest.mark.parametrize("rows", BATCHES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_added_posteriors_are_posterior_batch(self, heads, variant, rows):
        # 0 + p is p, so adding into zeros gives the posteriors themselves
        head = heads[variant]
        f1, f2, _ = self._batch(head, rows)
        total = np.zeros((rows, 1328))
        bilinear.add_posterior(head, f1, f2, total)
        assert np.array_equal(total, posterior_batch(head, f1, f2))

    @pytest.mark.parametrize("rows", BATCHES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_added_posteriors_match_the_whole_batch(self, heads, variant, rows):
        # against the whole-batch expression itself, not posterior_batch, which
        # forms its logits by the same _piece_logits
        head = heads[variant]
        f1, f2, _ = self._batch(head, rows)
        total = np.zeros((rows, 1328))
        bilinear.add_posterior(head, f1, f2, total)
        assert np.array_equal(total, softmax(_whole_batch_logits(head, f1, f2)[0]))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_second_leaf_width_array(self, heads, variant):
        head = heads[variant]
        f1, f2, _ = self._batch(head, 1000)
        posterior_batch(head, f1, f2)
        tracemalloc.start()
        try:
            posterior_batch(head, f1, f2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the logits, one piece, and the group scores or (rows, F) products
        assert peak < 1000 * 1328 * 8 + LEAF_PIECE_BYTES + 4 * 1000 * 200 * 8, peak


@pytest.mark.parametrize("variant", VARIANTS)
def test_init_head_draws_in_payload_order(variant):
    """One generator seeded with ``seed`` draws the bilinear arrays (W, or U1,
    U2 and w), then V1 and V2, uniform in [-scale, scale]; b is zero."""
    k1, k2, c, f, g, scale = 3, 4, 6, 2, 3, 0.3
    head = init_head(variant, k1, k2, c, fused_dim=f, tree=LabelTree.balanced(c, g),
                     seed=11, scale=scale)
    rng = np.random.default_rng(11)
    if variant == FULL:
        shapes = [(c, k1, k2)]
    else:
        shapes = [(k1, f), (k2, f), (f, g if variant == FACTORED_SHARED else c)]
    expected = [rng.uniform(-scale, scale, size=shape) for shape in shapes + [(k1, c), (k2, c)]]
    got = list(head.param_arrays().values())
    assert len(got) == len(expected) + 1
    for arr, want in zip(got, expected):
        assert np.array_equal(arr, want)
    assert np.array_equal(got[-1], np.zeros(c))


class TestMaterialize:
    def test_identity_factorization(self):
        head = BilinearHead(FACTORED, 2, 2, 3, u1=np.eye(2), u2=np.eye(2),
                            w=np.ones((2, 3)))
        assert np.allclose(materialize_w(head, 0), np.eye(2))

    def test_zero_weights_annihilate(self, rng):
        head = random_head(FACTORED, rng)
        head.w[:, 1] = 0.0
        assert np.array_equal(materialize_w(head, 1), np.zeros((3, 4)))

    def test_rank_one_outer_product(self):
        head = BilinearHead(FACTORED, 2, 2, 1,
                            u1=np.array([[1.0], [0.0]]),
                            u2=np.array([[0.0], [1.0]]),
                            w=np.array([[3.0]]))
        assert np.array_equal(materialize_w(head, 0), [[0.0, 3.0], [0.0, 0.0]])

    def test_shared_uses_group_column(self, rng):
        head = random_head(FACTORED_SHARED, rng, c=6, g=3)
        for leaf in range(6):
            expected = (head.u1 * head.w[:, head.tree.group_of[leaf]]) @ head.u2.T
            assert np.allclose(materialize_w(head, leaf), expected, atol=1e-15)

    def test_full_variant_rejected(self, rng):
        head = random_head(FULL, rng)
        with pytest.raises(VariantError):
            materialize_w(head, 0)


class TestDeltas:
    def test_worked_example(self):
        tree = LabelTree.balanced(4, 2)
        dl, dg = leaf_and_group_deltas([0.4, 0.3, 0.2, 0.1], 0, tree)
        assert np.allclose(dl, [0.6, -0.3, -0.2, -0.1], atol=1e-15)
        assert np.allclose(dg, [0.3, -0.3], atol=1e-15)

    def test_one_hot_target_zero(self):
        tree = LabelTree.balanced(4, 2)
        dl, dg = leaf_and_group_deltas([0.0, 1.0, 0.0, 0.0], 1, tree)
        assert np.all(dl == 0.0)
        assert np.all(dg == 0.0)

    def test_singleton_groups_collapse(self, rng):
        tree = LabelTree.singleton(5)
        p = rng.dirichlet(np.ones(5))
        dl, dg = leaf_and_group_deltas(p, 3, tree)
        assert np.allclose(dl, dg, atol=1e-15)

    def test_target_out_of_range(self):
        # a label of -1 would otherwise index class C-1
        model = small_bilinear_model()
        with pytest.raises(ValueError, match="out of range"):
            grad_check(model, (np.zeros(3), np.zeros(3), -1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sums_and_group_identity(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 10))
        g = int(rng.integers(1, c + 1))
        # one leaf per group up front so the partition is always valid
        group_of = np.concatenate([np.arange(g), rng.integers(0, g, c - g)])
        tree = LabelTree(rng.permutation(group_of), g)
        p = rng.dirichlet(np.ones(tree.num_leaves))
        target = int(rng.integers(tree.num_leaves))
        dl, dg = leaf_and_group_deltas(p, target, tree)
        assert abs(dl.sum()) <= 1e-12
        assert abs(dg.sum()) <= 1e-12
        for grp in range(tree.num_groups):
            assert dg[grp] == pytest.approx(dl[tree.members(grp)].sum(), abs=1e-12)


def head_objective(head, v1, v2, target):
    def objective():
        return float(np.log(head_posterior(head, v1, v2)[target]))
    return objective


class TestHeadGradients:
    def test_saturated_posterior_zero_gradients(self, rng):
        head = random_head(FACTORED_SHARED, rng)
        head.b[:] = 0.0
        head.b[2] = 1000.0  # drives the softmax to an exact one-hot in float64
        v1, v2 = np.zeros(3), np.zeros(4)
        assert head_posterior(head, v1, v2)[2] == 1.0
        grads, delta1, delta2 = head_gradients(head, v1, v2, 2)
        for arr in [*grads.values(), delta1, delta2]:
            assert np.all(arr == 0.0)

    @pytest.mark.parametrize("variant", [FULL, FACTORED, FACTORED_SHARED])
    def test_parameter_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(hash(variant) % 2**31)
        head = random_head(variant, rng, k1=4, k2=3, c=6, g=3, f=3)
        v1 = rng.standard_normal(4)
        v2 = rng.standard_normal(3)
        target = 4
        analytic, _, _ = head_gradients(head, v1, v2, target)
        numeric = finite_difference(head_objective(head, v1, v2, target),
                                    head.param_arrays(), h=1e-5)
        assert max_rel_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("variant", [FULL, FACTORED, FACTORED_SHARED])
    def test_feature_deltas_match_finite_differences(self, variant):
        # checks the cross-network messages: delta_j = dE/dv_j
        rng = np.random.default_rng(hash(variant) % 2**31 + 1)
        head = random_head(variant, rng, k1=4, k2=3, c=6, g=3, f=3)
        v1 = rng.standard_normal(4)
        v2 = rng.standard_normal(3)
        target = 1
        _, delta1, delta2 = head_gradients(head, v1, v2, target)
        numeric = finite_difference(head_objective(head, v1, v2, target),
                                    {"v1": v1, "v2": v2}, h=1e-5)
        assert max_rel_error({"v1": delta1, "v2": delta2}, numeric) < 1e-6

    def test_v_only_head_is_plain_softmax_backprop(self, rng):
        # with the bilinear block zeroed, the head must reproduce the
        # hand-coded softmax gradient on the concatenated features
        head = random_head(FACTORED, rng, k1=3, k2=4, c=5, g=5, f=2)
        head.u1[:] = 0.0
        head.u2[:] = 0.0
        v1 = rng.standard_normal(3)
        v2 = rng.standard_normal(4)
        target = 2
        grads, delta1, delta2 = head_gradients(head, v1, v2, target)
        fused = np.concatenate([v1, v2])
        big_v = np.vstack([head.v1, head.v2])  # (7, 5)
        logits = fused @ big_v + head.b
        p = np.exp(logits - logits.max())
        p /= p.sum()
        delta_l = -p
        delta_l[target] += 1.0
        assert np.allclose(np.concatenate([delta1, delta2]), big_v @ delta_l, atol=1e-12)
        assert np.allclose(grads["V1"], np.outer(v1, delta_l), atol=1e-12)
        assert np.allclose(grads["b"], delta_l, atol=1e-12)

    def test_target_out_of_range(self):
        # a label of C would otherwise fail as an IndexError
        model = small_bilinear_model()
        with pytest.raises(ValueError, match="out of range"):
            grad_check(model, (np.zeros(3), np.zeros(3), model.num_classes))


class TestParamCount:
    def test_factored_at_scale(self):
        tree = LabelTree.balanced(1328, 1328)
        head = init_head(FACTORED, 200, 200, 1328, fused_dim=200, tree=tree, seed=0)
        counts = param_count(head)
        # w-block C x F = 265600 on top of the shared projections
        assert counts["bilinear"] == 200 * (200 + 200) + 265600
        assert counts["linear"] == 1328 * 400
        assert counts["bias"] == 1328

    def test_shared_at_scale(self):
        tree = LabelTree.balanced(1344, 42)  # balanced stand-in, 42 groups
        head = init_head(FACTORED_SHARED, 200, 200, 1344, fused_dim=200, tree=tree, seed=0)
        assert param_count(head)["bilinear"] == 200 * (200 + 200) + 8400

    def test_singleton_shared_equals_factored(self, rng):
        tree = LabelTree.singleton(6)
        shared = init_head(FACTORED_SHARED, 3, 4, 6, fused_dim=2, tree=tree, seed=0)
        factored = init_head(FACTORED, 3, 4, 6, fused_dim=2, seed=0)
        assert param_count(shared) == param_count(factored)

    def test_full_count(self, rng):
        head = random_head(FULL, rng, k1=3, k2=4, c=6)
        counts = param_count(head)
        assert counts["bilinear"] == 6 * 3 * 4
        assert counts["total"] == counts["bilinear"] + counts["linear"] + counts["bias"]


class TestEquivalences:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_full_matches_factored_materialization(self, seed):
        rng = np.random.default_rng(seed)
        factored = random_head(FACTORED, rng, k1=3, k2=4, c=5, f=2)
        stacked = np.stack([materialize_w(factored, y) for y in range(5)])
        full = BilinearHead(FULL, 3, 4, 5, w_stack=stacked,
                            v1=factored.v1, v2=factored.v2, b=factored.b)
        v1 = rng.standard_normal(3)
        v2 = rng.standard_normal(4)
        assert np.allclose(head_posterior(full, v1, v2), head_posterior(factored, v1, v2),
                           atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shared_with_singleton_groups_equals_factored(self, seed):
        rng = np.random.default_rng(seed)
        factored = random_head(FACTORED, rng, k1=3, k2=4, c=5, f=2)
        shared = BilinearHead(FACTORED_SHARED, 3, 4, 5,
                              u1=factored.u1, u2=factored.u2, w=factored.w,
                              v1=factored.v1, v2=factored.v2, b=factored.b,
                              tree=LabelTree.singleton(5))
        v1 = rng.standard_normal(3)
        v2 = rng.standard_normal(4)
        assert np.allclose(head_posterior(shared, v1, v2), head_posterior(factored, v1, v2),
                           atol=1e-12)
        target = int(rng.integers(5))
        grads_s, *deltas_s = head_gradients(shared, v1, v2, target)
        grads_f, *deltas_f = head_gradients(factored, v1, v2, target)
        for name in ("U1", "U2", "w", "V1"):
            assert np.allclose(grads_s[name], grads_f[name], atol=1e-12)
        for a, b in zip(deltas_s, deltas_f):
            assert np.allclose(a, b, atol=1e-12)

    def test_leaf_permutation_equivariance(self, rng):
        head = random_head(FACTORED, rng, k1=3, k2=4, c=5, f=2)
        perm = rng.permutation(5)
        permuted = BilinearHead(FACTORED, 3, 4, 5,
                                u1=head.u1, u2=head.u2, w=head.w[:, perm],
                                v1=head.v1[:, perm], v2=head.v2[:, perm],
                                b=head.b[perm])
        v1 = rng.standard_normal(3)
        v2 = rng.standard_normal(4)
        assert np.allclose(head_posterior(permuted, v1, v2), head_posterior(head, v1, v2)[perm],
                           atol=1e-13)

    @pytest.mark.parametrize("layout", ["contiguous", "interleaved", "permuted"])
    def test_shared_batch_matches_materialized_leaves(self, layout, rng):
        c, g = 12, 4
        group_of = {"contiguous": np.repeat(np.arange(g), c // g),
                    "interleaved": np.arange(c) % g,
                    "permuted": rng.permutation(np.repeat(np.arange(g), c // g))}[layout]
        head = init_head(FACTORED_SHARED, 4, 5, c, fused_dim=3,
                         tree=LabelTree(group_of, g), seed=3, scale=0.7)
        head.b[:] = rng.uniform(-0.5, 0.5, c)
        f1 = rng.standard_normal((6, 4))
        f2 = rng.standard_normal((6, 5))
        logits = np.array([[f1[i] @ materialize_w(head, y) @ f2[i] + f1[i] @ head.v1[:, y]
                            + f2[i] @ head.v2[:, y] + head.b[y] for y in range(c)]
                           for i in range(6)])
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(posterior_batch(head, f1, f2), expected, rtol=1e-12, atol=0)

    def test_batch_matches_single(self, rng):
        head = random_head(FACTORED_SHARED, rng)
        f1 = rng.standard_normal((7, 3))
        f2 = rng.standard_normal((7, 4))
        batch = posterior_batch(head, f1, f2)
        for i in range(7):
            assert np.allclose(batch[i], head_posterior(head, f1[i], f2[i]), atol=1e-15)
