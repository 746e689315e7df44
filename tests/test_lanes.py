"""Modality lanes: the two towers, the head's two products and the two halves
of a step's update run on two threads, and every result is the one-lane
result, bit for bit.

Lanes open only when BLAS runs one thread, so each test that opens them
sets OpenBLAS to one thread for its duration and restores the count after.
"""

import ctypes
import sys
import threading

import numpy as np
import pytest

from bimodalnet import linalg
from bimodalnet.bilinear import FACTORED, FACTORED_SHARED, LabelTree
from bimodalnet.data import SynthSpec, generate_synthetic
from bimodalnet.fusion import Ensemble
from bimodalnet.linalg import LANE_MIN_WORK, blas_threads, both, lanes_open
from bimodalnet.training import (
    EVAL_CHUNK,
    TrainConfig,
    _halves,
    build_model,
    evaluate,
    sgd_step,
    train_model,
)

PAPER_DIMS = dict(dims_a=(360, 500, 200), dims_v=(540, 500, 200), fused_dim=200)
PAPER_TREE = LabelTree(np.arange(1328) * 42 // 1328, 42)


@pytest.fixture
def one_blas_thread():
    """OpenBLAS on one thread for the test, and the count before it restored."""
    get = linalg._openblas("openblas_get_num_threads")
    set_ = linalg._openblas("openblas_set_num_threads", None, (ctypes.c_int,))
    if get is None or set_ is None:
        pytest.skip("the BLAS thread count cannot be set in this process")
    before = get()
    set_(1)
    yield
    set_(before)


@pytest.fixture
def lanes(monkeypatch, one_blas_thread):
    """Lanes open whatever the CPU count, with ``set(mode)`` choosing among
    the real worker ("real"), a sequential stand-in that counts dispatches
    ("stand-in") and closed lanes, today's one-lane path ("closed")."""
    real = linalg.both
    dispatches = []

    def stand_in(first, first_args, second, second_args):
        dispatches.append((first.__name__, second.__name__))
        return first(*first_args), second(*second_args)

    class Lanes:
        def set(self, mode):
            monkeypatch.setattr(linalg, "both", {"real": real, "stand-in": stand_in,
                                                 "closed": real}[mode])
            monkeypatch.setattr(linalg, "_lanes_available", lambda: mode != "closed")

    lanes = Lanes()
    lanes.dispatches = dispatches
    return lanes


def paper_model(variant, seed=3, mode="bilinear", top=()):
    config = TrainConfig(mode=mode, variant=variant, fusion_top=top, seed=seed, lam=8.0,
                         **PAPER_DIMS)
    return build_model(config, 360, 540, 1328, PAPER_TREE)


def paper_outputs(variant):
    """A step (gradients, then the updated vector), a 394-row read and a
    4-member ensemble read at paper shapes, each as bytes."""
    rng = np.random.default_rng(5)
    x1, x2 = rng.standard_normal((394, 360)), rng.standard_normal((394, 540))
    y = rng.integers(0, 1328, 394)
    model = paper_model(variant)
    loglik, grads = model.loglik_and_grads(x1[:32], x2[:32], y[:32])
    out = {"loglik": np.float64(loglik).tobytes(), "grads": grads.flat.tobytes()}
    sgd_step(model.trainable_params(), grads, 0.1, 8.0, model.project_names())
    out["stepped"] = model.params().flat.tobytes()
    out["posterior_batch"] = model.posterior_batch(x1, x2).tobytes()
    members = [model, paper_model(FACTORED, 5), paper_model(FACTORED, 6, "fused", (200,)),
               paper_model(FACTORED, 7, "audio")]
    out["ensemble"] = Ensemble(members).posterior_batch(x1, x2).tobytes()
    return out


@pytest.mark.parametrize("variant", [FACTORED_SHARED, FACTORED])
def test_paper_shapes_are_the_one_lane_bits(lanes, variant):
    lanes.set("closed")
    closed = paper_outputs(variant)
    lanes.set("stand-in")
    stand_in = paper_outputs(variant)
    lanes.set("real")
    real = paper_outputs(variant)
    assert stand_in == closed
    assert real == closed
    # every split dispatched: both towers' passes, the head's products, the update
    assert {"forward", "forward_features", "backward", "_side_grads", "_scaled_add",
            "matmul"} == {name for name, _ in lanes.dispatches}


def small_task():
    """The planted task and arch of the benchmark's smallest workload."""
    spec = SynthSpec(d1=20, d2=20, num_classes=8, num_groups=4, n_train=2 * EVAL_CHUNK,
                     n_test=200, noise_std=0.1, interaction_rank=2, seed=1)
    train, test = generate_synthetic(spec)
    config = TrainConfig(mode="bilinear", variant=FACTORED_SHARED, dims_a=(20, 16, 8),
                         dims_v=(20, 16, 8), fused_dim=16, epochs=1, seed=1, lam=8.0)
    return config, train, test


def test_small_shapes_never_reach_the_worker(lanes):
    lanes.set("stand-in")
    config, train, test = small_task()
    model = build_model(config, 20, 20, 8, train.tree)
    train_model(model, config, train, test)  # steps, updates, evaluation blocks
    members = [model, build_model(TrainConfig(mode="fused", dims_a=(20, 16, 8),
                                              dims_v=(20, 16, 8), fusion_top=(16,)),
                                  20, 20, 8, train.tree)]
    evaluate(Ensemble(members), train)
    model.posterior_batch(train.x1[:EVAL_CHUNK], train.x2[:EVAL_CHUNK])
    assert lanes.dispatches == []


def test_lanes_need_the_work_and_one_blas_thread(monkeypatch, one_blas_thread):
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1})
    assert blas_threads() == 1
    assert lanes_open(LANE_MIN_WORK)
    assert not lanes_open(LANE_MIN_WORK - 1)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0})
    assert not lanes_open(LANE_MIN_WORK)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1})
    linalg._openblas("openblas_set_num_threads", None, (ctypes.c_int,))(2)
    assert blas_threads() == 2
    assert not lanes_open(LANE_MIN_WORK)


def test_second_job_runs_on_the_worker_and_results_keep_their_order():
    caller = threading.get_ident()
    first, second = both(lambda a: (a, threading.get_ident()), (1,),
                         lambda b: (b, threading.get_ident()), (2,))
    assert first == (1, caller)
    assert second[0] == 2 and second[1] != caller


def test_worker_exception_reaches_the_caller_and_the_next_call_works():
    def fail(message):
        raise KeyError(message)

    with pytest.raises(KeyError, match="from the worker"):
        both(int, ("3",), fail, ("from the worker",))
    assert both(int, ("3",), int, ("4",)) == (3, 4)
    with pytest.raises(KeyError, match="from the caller"):  # the worker's job still ran
        both(fail, ("from the caller",), int, ("5",))
    assert both(int, ("6",), int, ("7",)) == (6, 7)


def test_worker_keeps_the_callers_numpy_error_state():
    big = np.array([1e308])
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            both(int, ("1",), np.multiply, (big, 10.0))
    with np.errstate(over="ignore"):
        assert both(int, ("1",), np.multiply, (big, 10.0))[1][0] == np.inf


def test_a_job_that_calls_both_runs_its_pair_on_its_own_thread():
    inner = both(both, (int, ("1",), int, ("2",)), both, (int, ("3",), int, ("4",)))
    assert inner == ((1, 2), (3, 4))


def test_callers_on_many_threads_each_get_their_own_results():
    # more callers than cores contend for the one worker; a caller that finds
    # it busy runs both of its jobs itself, and no result reaches another caller
    def call(k, results):
        for i in range(300):
            results.append(both(int, (str(k * 1000 + i),), np.add, (k, i)))

    results = {k: [] for k in range(6)}
    threads = [threading.Thread(target=call, args=(k, results[k])) for k in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, got in results.items():
        assert got == [(k * 1000 + i, k + i) for i in range(300)], k


@pytest.mark.parametrize("runs", [[(0, 10)], [(0, 7), (9, 12)], [(0, 1)], [(3, 4), (6, 9)]])
def test_halves_cover_the_runs_in_order(runs):
    first, second = _halves(runs)
    entries = [i for start, stop in runs for i in range(start, stop)]
    halves = [[i for start, stop in half for i in range(start, stop)] for half in (first, second)]
    assert halves[0] + halves[1] == entries
    assert len(halves[0]) == len(entries) // 2
    assert all(start < stop for start, stop in first + second)


def test_update_halves_are_the_one_lane_step(lanes):
    rng = np.random.default_rng(8)
    model = paper_model(FACTORED_SHARED)
    params = model.trainable_params().select(n for n in model.params() if n != "tower2.b0")
    grads = {name: rng.standard_normal(a.shape) for name, a in params.items()}
    steps = {}
    for mode in ("closed", "real"):
        lanes.set(mode)
        model.params().flat[:] = 0.5
        sgd_step(params, grads, 0.25, 8.0, model.project_names())
        steps[mode] = model.params().flat.tobytes()
    assert steps["real"] == steps["closed"]
