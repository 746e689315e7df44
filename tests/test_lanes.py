"""Modality lanes: the two towers, the head's two products, the two halves
of a step's update and a read's row blocks, two at a time, run on two
threads, and every result is the one-lane result, bit for bit.

Each formula is written once; lanes decide only where it runs. The one-lane
reference these tests compare with is therefore the same code run on the
calling thread, and ``tests/test_scripts.py`` compares the full-mode digests
with the ones saved before lanes existed.

Lanes open only inside a ``linalg.one_blas_thread`` scope, which
``train_model``, ``evaluate`` and ``grad_check`` open; each test that opens
them on a direct call opens that scope itself. The scope sets OpenBLAS to one
thread and restores the caller's count when the last scope closes.
"""

import ctypes
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bimodalnet import linalg
from bimodalnet.bilinear import FACTORED, FACTORED_SHARED, GATHER_BYTES, LabelTree, init_head
from bimodalnet.data import Dataset, SynthSpec, generate_synthetic, open_dataset, save_dataset
from bimodalnet.fusion import Ensemble, FormatError
from bimodalnet.linalg import LANE_MIN_WORK, both, lanes_open, one_blas_thread, row_blocks
from bimodalnet.training import (
    EVAL_CHUNK,
    TrainConfig,
    _halves,
    build_model,
    eval_rows,
    evaluate,
    sgd_step,
    train_model,
)
from tests.conftest import ROOT

PAPER_DIMS = dict(dims_a=(360, 500, 200), dims_v=(540, 500, 200), fused_dim=200)
PAPER_TREE = LabelTree(np.arange(1328) * 42 // 1328, 42)


@pytest.fixture
def blas_count():
    """OpenBLAS's (get, set) of its thread count, with the count before the
    test restored after it."""
    get = linalg._openblas("openblas_get_num_threads")
    set_ = linalg._openblas("openblas_set_num_threads", None, (ctypes.c_int,))
    if get is None or set_ is None:
        pytest.skip("the BLAS thread count cannot be set in this process")
    before = get()
    yield get, set_
    set_(before)


@pytest.fixture
def lanes(monkeypatch, blas_count):
    """A ``one_blas_thread`` scope for the test, in which lanes open whatever
    the CPU count, with ``set(mode)`` choosing among the real worker
    ("real"), a sequential stand-in that counts dispatches ("stand-in") and
    closed lanes ("closed"), where the same formulas run on the calling
    thread with no ``linalg.both`` call."""
    real = linalg.both
    dispatches = []

    def stand_in(first, first_args, second, second_args):
        dispatches.append((first.__name__, second.__name__))
        return first(*first_args), second(*second_args)

    class Lanes:
        def set(self, mode):
            monkeypatch.setattr(linalg, "both", {"real": real, "stand-in": stand_in,
                                                 "closed": real}[mode])
            linalg._lanes = mode != "closed"  # the scope's last exit closes them

    lanes = Lanes()
    lanes.dispatches = dispatches
    with one_blas_thread():
        yield lanes


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


@pytest.mark.parametrize("mode", ["closed", "real"])
@pytest.mark.parametrize("variant", [FACTORED_SHARED, FACTORED])
def test_paper_shape_head_step_is_the_bilinear_formulas(lanes, mode, variant):
    # the formulas stated here once more, apart from the head's code: the
    # shared variant's bilinear gradients take delta_G, the rest delta_L
    lanes.set(mode)
    rng = np.random.default_rng(4)
    f1, f2 = rng.random((32, 200)), rng.random((32, 200))
    y = rng.integers(0, 1328, 32)
    head = init_head(variant, 200, 200, 1328, 200, PAPER_TREE, seed=6, scale=0.2)
    probs, grads, (delta1, delta2) = head.gradients((f1, f2), y, 1 / 32)
    a1, a2 = f1 @ head.u1, f2 @ head.u2
    scores = (a1 * a2) @ head.w
    if variant == FACTORED_SHARED:
        scores = scores[:, PAPER_TREE.group_of]
    logits = scores + f1 @ head.v1 + f2 @ head.v2 + head.b
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    delta_l = (np.eye(1328)[y] - p) / 32
    delta_g = PAPER_TREE.group_sums(delta_l) if variant == FACTORED_SHARED else delta_l
    wd = delta_g @ head.w.T
    expected = {"U1": f1.T @ (wd * a2), "U2": f2.T @ (wd * a1), "w": (a1 * a2).T @ delta_g,
                "V1": f1.T @ delta_l, "V2": f2.T @ delta_l, "b": delta_l.sum(axis=0)}
    assert np.allclose(probs, p, rtol=1e-10, atol=1e-18)
    for name, value in expected.items():
        assert np.allclose(grads[name], value, rtol=1e-9, atol=1e-15), name
    assert np.allclose(delta1, (wd * a2) @ head.u1.T + delta_l @ head.v1.T, rtol=1e-9, atol=1e-15)
    assert np.allclose(delta2, (wd * a1) @ head.u2.T + delta_l @ head.v2.T, rtol=1e-9, atol=1e-15)


def read_models():
    """At the paper's class count and feature widths, over 4- and 5-wide
    inputs: a factored-shared model whose towers are one layer deep, and a
    4-member ensemble led by such a model whose towers have a 500-wide
    hidden layer."""
    def model(seed, dims_a=(4, 200), dims_v=(5, 200), **fields):
        config = TrainConfig(seed=seed, dims_a=dims_a, dims_v=dims_v, epochs=0,
                             init_scale=0.5, **fields)
        return build_model(config, 4, 5, 1328, PAPER_TREE)

    deep = dict(dims_a=(4, 500, 200), dims_v=(5, 500, 200))
    members = [model(1, mode="bilinear", variant=FACTORED_SHARED, fused_dim=2, **deep),
               model(2, mode="bilinear", variant=FACTORED, fused_dim=2, **deep),
               model(3, mode="fused", fusion_top=(2,), **deep), model(4, mode="audio", **deep)]
    return {"factored-shared": model(1, mode="bilinear", variant=FACTORED_SHARED, fused_dim=2),
            "ensemble": Ensemble(members)}


@pytest.mark.parametrize("kind", ["factored-shared", "ensemble"])
def test_lanes_add_no_leaf_width_array_to_a_read(lanes, kind):
    # a block on two lanes holds the leaf-width arrays of one lane, and at
    # most a gather block more. The ensemble's fused member, a 2-wide top,
    # keeps its blocks on one lane, so a real read adds only what its two
    # towers hold at once: the worker's second tower may hold its hidden
    # layer and features while the calling thread's first holds its own
    # (measured: 76 KB above a closed read, inside the gather block).
    # The factored-shared model's 74-row blocks run in pairs, which the
    # stand-in runs one block after the other; the real worker's block may
    # reach its peak while the calling thread's is at its own, so a real
    # read holds, at most, one block more than the stand-in's: the logits,
    # one more leaf-width array and a gather block, the block's tower
    # features, and an eighth of a leaf-width array for its group-width
    # arrays and per-row values
    rng = np.random.default_rng(9)
    split = Dataset(rng.standard_normal((2048, 4)), rng.standard_normal((2048, 5)),
                    rng.integers(0, 1328, 2048), PAPER_TREE, "test")
    model = read_models()[kind]
    peaks = {}
    for mode in ("closed", "stand-in", "real"):
        lanes.set(mode)
        evaluate(model, split)  # fills caches such as the tree's group indicator
        tracemalloc.start()
        try:
            evaluate(model, split)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert lanes.dispatches  # the stand-in run took the lane code
    paired = "block" in {name for _, name in lanes.dispatches}
    assert paired == (kind == "factored-shared")
    assert peaks["stand-in"] - peaks["closed"] <= GATHER_BYTES, peaks
    rows = max(b - a for a, b in row_blocks(split.n, eval_rows(1328)))
    if not paired:
        assert "forward_features" in {name for name, _ in lanes.dispatches}
        tower_bytes = 8 * rows * (500 + 200)
        assert peaks["real"] - peaks["closed"] <= GATHER_BYTES + tower_bytes, peaks
    else:
        leaf_bytes = 8 * rows * 1328
        block_bytes = (2 + 1 / 8) * leaf_bytes + GATHER_BYTES + 8 * rows * (200 + 200)
        assert peaks["real"] - peaks["stand-in"] <= block_bytes, (peaks, block_bytes)


# A paper-shape factored-shared training run, confined to one CPU first when
# {cpus} names one; it prints whether lanes open and its peak resident set
TRAIN_CHILD = """
import os, resource
if {cpus}:
    os.sched_setaffinity(0, {cpus})
import numpy as np
from bimodalnet.bilinear import LabelTree
from bimodalnet.data import Dataset
from bimodalnet.linalg import LANE_MIN_WORK, lanes_open, one_blas_thread
from bimodalnet.training import TrainConfig, build_model, train_model
tree = LabelTree(np.arange(1328) * 42 // 1328, 42)
rng = np.random.default_rng(1)
splits = [Dataset(rng.standard_normal((n, 360)), rng.standard_normal((n, 540)),
                  rng.integers(0, 1328, n), tree, split)
          for n, split in ((1024, "train"), (512, "test"))]
config = TrainConfig(dims_a=(360, 500, 200), dims_v=(540, 500, 200), fused_dim=200,
                     epochs=2, seed=3, lam=8.0)
train_model(build_model(config, 360, 540, 1328, tree), config, *splits)
with one_blas_thread():
    print(lanes_open(LANE_MIN_WORK), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_lanes_add_little_to_a_paper_trains_resident_peak(blas_count):
    # the lane worker allocates what it forms, in its own glibc arena, which
    # tracemalloc does not see; the same run confined to one CPU, where lanes
    # stay closed, bounds what lanes add to the resident peak (+3.1 to
    # +3.3 MiB measured on a 2-CPU Xeon VM)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("lanes need two CPUs")
    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    peaks = {}
    for confined in (set(), {cpus[0]}):
        child = subprocess.run([sys.executable, "-c", TRAIN_CHILD.format(cpus=confined)],
                               env=env, stdout=subprocess.PIPE, text=True, timeout=300,
                               check=True)
        opened, peak_kib = child.stdout.split()
        assert opened == str(not confined)
        peaks[bool(confined)] = int(peak_kib)
    assert peaks[False] - peaks[True] <= 8 * 1024, peaks


@pytest.fixture(scope="module")
def paper_readers():
    """A paper-shape model of each kind and the 4-member ensemble of
    ``paper_outputs``."""
    shared = paper_model(FACTORED_SHARED)
    fused, audio = paper_model(FACTORED, 6, "fused", (200,)), paper_model(FACTORED, 7, "audio")
    return {"bilinear": shared, "fused": fused, "unimodal": audio,
            "ensemble": Ensemble([shared, paper_model(FACTORED, 5), fused, audio])}


def paper_split(path, n):
    """A split of n rows of paper-width features, saved at ``path``."""
    rng = np.random.default_rng(n)
    split = Dataset(rng.standard_normal((n, 360)), rng.standard_normal((n, 540)),
                    rng.integers(0, 1328, n), PAPER_TREE, "test")
    save_dataset(split, path)
    return split


@pytest.mark.parametrize("n,blocks", [(148, 2), (205, 3)])
def test_a_paper_shape_read_runs_its_blocks_in_pairs(lanes, paper_readers, tmp_path, n, blocks):
    # each pair hands its second block to the worker; an odd last block runs
    # alone, and every metric is the one-lane metric
    assert len(row_blocks(n, eval_rows(1328))) == blocks
    loaded = paper_split(tmp_path / "split.bin", n)
    with open_dataset(tmp_path / "split.bin") as streamed:
        for kind, model in paper_readers.items():
            metrics = {}
            for source, split in (("loaded", loaded), ("streamed", streamed)):
                for mode in ("closed", "stand-in", "real"):
                    lanes.set(mode)
                    lanes.dispatches.clear()
                    metrics[source, mode] = evaluate(model, split)
                    handed = [name for _, name in lanes.dispatches].count("block")
                    assert handed == (blocks // 2 if mode == "stand-in" else 0), (kind, source)
            assert all(m == metrics["loaded", "closed"] for m in metrics.values()), (kind, metrics)


def test_a_bad_feature_in_a_pairs_second_block_is_the_one_lane_error(lanes, paper_readers,
                                                                      tmp_path):
    # both blocks of a pair are read on the calling thread before the pair
    # runs, so the error is the one a read on one lane raises, and no block
    # is handed to the worker
    path = tmp_path / "split.bin"
    paper_split(path, 148)
    with open_dataset(path) as reader:
        row_at = reader._x2_off + 8 * 540 * 100  # row 100, in the second block
    with open(path, "r+b") as fh:
        fh.seek(row_at + 8 * 7)
        fh.write(np.float64(np.nan).tobytes())
    messages = {}
    for mode in ("closed", "stand-in", "real"):
        lanes.set(mode)
        lanes.dispatches.clear()
        with open_dataset(path) as streamed:
            with pytest.raises(FormatError) as error:
                evaluate(paper_readers["bilinear"], streamed)
        messages[mode] = str(error.value)
        assert "block" not in {name for _, name in lanes.dispatches}
    assert set(messages.values()) == {
        f"non-finite second-modality feature in row 100 at byte offset {row_at}"}, messages


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


def test_lanes_need_the_work_and_one_blas_thread(monkeypatch, blas_count):
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1})
    assert not lanes_open(LANE_MIN_WORK)  # outside any scope
    with one_blas_thread():
        assert lanes_open(LANE_MIN_WORK)
        assert not lanes_open(LANE_MIN_WORK - 1)
    assert not lanes_open(LANE_MIN_WORK)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0})
    with one_blas_thread():
        assert not lanes_open(LANE_MIN_WORK)


def test_direct_calls_outside_a_scope_run_on_one_lane(monkeypatch, blas_count):
    dispatches = []

    def stand_in(first, first_args, second, second_args):
        dispatches.append(second.__name__)
        return first(*first_args), second(*second_args)

    monkeypatch.setattr(linalg, "both", stand_in)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(2)
    x1, x2 = rng.standard_normal((32, 360)), rng.standard_normal((32, 540))
    y = rng.integers(0, 1328, 32)
    model = paper_model(FACTORED_SHARED)
    model.loglik_and_grads(x1, x2, y)
    model.posterior_batch(x1, x2)
    assert dispatches == []
    with one_blas_thread():
        model.loglik_and_grads(x1, x2, y)
    assert dispatches


def test_scope_restores_the_callers_count_on_return_and_on_exception(blas_count):
    get, set_ = blas_count
    set_(2)
    with one_blas_thread():
        assert get() == 1
        with one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("inside")
    assert get() == 2
    config, train, _ = small_task()
    model = build_model(config, 20, 20, 8, train.tree)
    other = Dataset(train.x1, train.x2, train.y % 4, LabelTree.balanced(4, 2), "test")
    with pytest.raises(ValueError, match="classes"):  # raised inside evaluate's scope
        evaluate(model, other)
    assert get() == 2


def test_overlapping_scopes_on_two_threads_restore_at_the_last_exit(blas_count):
    get, set_ = blas_count
    set_(2)
    entered, release = threading.Event(), threading.Event()

    def hold():
        with one_blas_thread():
            entered.set()
            release.wait(timeout=60)

    thread = threading.Thread(target=hold)
    with one_blas_thread():
        thread.start()
        assert entered.wait(timeout=60)
    assert get() == 1  # the other thread's scope is still open
    release.set()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert get() == 2
    assert not lanes_open(LANE_MIN_WORK)


def test_without_an_openblas_handle_lanes_stay_closed(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas", lambda *args: None)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1})
    with one_blas_thread():
        assert not lanes_open(LANE_MIN_WORK)
    config, train, test = small_task()
    model = build_model(config, 20, 20, 8, train.tree)
    records = train_model(model, config, train, test)
    assert [r["epoch"] for r in records] == [0, 0, 1, 1]


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


def test_update_lanes_weigh_only_the_entries_they_update(lanes):
    # a paper-shape fused model without a top updates its 532,528 head
    # entries, two halves below LANE_MIN_WORK, though half of the whole
    # vector, its frozen towers' entries too, is above it
    lanes.set("stand-in")
    model = paper_model(FACTORED, mode="fused")
    params = model.trainable_params()
    assert sum(stop - start for start, stop in params.runs) // 2 < LANE_MIN_WORK
    assert params.flat.size // 2 >= LANE_MIN_WORK
    grads = {name: np.ones(a.shape) for name, a in params.items()}
    sgd_step(params, grads, 0.1, 8.0, model.project_names())
    assert lanes.dispatches == []


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
