"""The numeric core never writes to caller memory, and the BLAS thread count
the environment sets changes none of its results."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bimodalnet import bilinear
from bimodalnet.bilinear import LabelTree
from bimodalnet.mlp import backward, forward, init_tower, softmax
from tests.test_data import _model_zoo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read_only(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class TestReadOnlyOperands:
    """Every in-place operation acts on a buffer the kernel allocated: with
    inputs and parameters marked read-only, any write to them would raise.
    The model zoo covers every classifier kind and bilinear variant."""

    def test_tower_kernels(self, rng):
        tower = init_tower((4, 5, 3), seed=2, scale=0.5)
        for arr in tower.weights + tower.biases:
            arr.flags.writeable = False
        for x, delta in ((rng.standard_normal((1, 4)), rng.standard_normal((1, 3))),
                         (rng.standard_normal((6, 4)), rng.standard_normal((6, 3)))):
            trace = forward(tower, _read_only(x))
            for h in trace.post:
                h.flags.writeable = False
            grads = backward(tower, trace, _read_only(delta))
            assert np.isfinite(grads.delta_input).all()

    def test_softmax_leaves_logits_alone(self, rng):
        logits = _read_only(rng.standard_normal((3, 5)) * 10)
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-15)
        assert probs.flags.writeable and not np.shares_memory(probs, logits)

    @pytest.mark.parametrize("shape", [(7,), (4, 9)])
    def test_softmax_in_place_is_bit_identical(self, shape, rng):
        logits = rng.standard_normal(shape) * 10
        expected = softmax(logits)
        probs = softmax(logits, out=logits)
        assert probs is logits
        assert np.array_equal(probs, expected)

    def test_classifiers(self, rng):
        tree = LabelTree.balanced(4, 2)
        x1, x2 = rng.standard_normal((7, 5)), rng.standard_normal((7, 6))
        targets = np.array([0, 1, 2, 3, 0, 1, 2])
        for (_, writable), (_, frozen) in zip(_model_zoo(tree), _model_zoo(tree)):
            for arr in frozen.params().values():
                arr.flags.writeable = False
            ro1, ro2, ro_targets = _read_only(x1), _read_only(x2), targets.copy()
            ro_targets.flags.writeable = False
            assert np.array_equal(frozen.posterior_batch(ro1, ro2),
                                  writable.posterior_batch(x1, x2)), frozen.kind
            loglik, grads = frozen.loglik_and_grads(ro1, ro2, ro_targets)
            want_loglik, want_grads = writable.loglik_and_grads(x1, x2, targets)
            assert loglik == want_loglik, frozen.kind
            assert grads.keys() == want_grads.keys()
            for name, g in grads.items():
                assert np.array_equal(g, want_grads[name]), (frozen.kind, name)
            if frozen.kind == "bilinear":
                f1 = _read_only(rng.standard_normal((3, 4)))
                f2 = _read_only(rng.standard_normal((3, 4)))
                assert np.array_equal(bilinear.posterior_batch(frozen.head, f1, f2),
                                      bilinear.posterior_batch(writable.head, f1, f2))


# Trains the paper's shapes for 8 steps, with U1 and U2 projected back onto
# the lambda-ball after each step; saves the model and prints the metric records.
_PAPER_RUN = """
import json, sys
import numpy as np
from bimodalnet.bilinear import LabelTree
from bimodalnet.data import Dataset, save_model
from bimodalnet.training import TrainConfig, evaluate, train_joint

c, g, n = 1328, 42, 8 * 32
tree = LabelTree(np.arange(c) * g // c, g)
rng = np.random.default_rng(5)
def split(name, rows):
    return Dataset(rng.standard_normal((rows, 360)), rng.standard_normal((rows, 540)),
                   rng.integers(0, c, rows), tree, name)
train, test = split("train", n), split("test", 64)
cfg = TrainConfig(mode="bilinear", dims_a=(360, 500, 200), dims_v=(540, 500, 200),
                  fused_dim=200, epochs=1, learning_rate=0.5, minibatch_size=32,
                  seed=9, lam=2.0)
model, records = train_joint(cfg, train)
records.append(evaluate(model, test).record(1, "test"))
save_model(model, sys.argv[1])
print(json.dumps(records))
"""


def test_paper_shapes_blas_thread_count_changes_no_bit(tmp_path):
    # OpenBLAS 0.3.31 dgemm gives other last bits at 2 threads than at 1, so
    # these bytes agree only because training and evaluation run BLAS on one
    # thread whatever OPENBLAS_NUM_THREADS says (None: the variable unset)
    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    outputs = []
    for threads in ("1", "2", None):
        path = tmp_path / f"model{threads}.bin"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        child = subprocess.run([sys.executable, "-c", _PAPER_RUN, str(path)],
                               env=env, stdout=subprocess.PIPE, text=True,
                               timeout=300, check=True)
        outputs.append((child.stdout, path.read_bytes()))
    assert [r.get("epoch") for r in json.loads(outputs[0][0])] == [0, 1, 1]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
