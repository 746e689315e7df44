"""Acceptance gate: six criteria, one test each, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is deterministic (fixed seeds everywhere).
"""

import math
import time

import numpy as np
import pytest

from bimodalnet.bilinear import (
    FACTORED,
    FACTORED_SHARED,
    FULL,
    BilinearHead,
    LabelTree,
    init_head,
    materialize_w,
    param_count,
    posterior_batch,
)
from bimodalnet.cli import main
from bimodalnet.data import (
    SynthSpec,
    generate_synthetic,
    load_model,
    save_model,
)
from bimodalnet.fusion import Ensemble
from bimodalnet.mlp import target_delta
from bimodalnet.training import (
    TrainConfig,
    build_model,
    evaluate,
    grad_check,
    sgd_step,
)
from tests.conftest import load_script

GRAD_TOL = 1e-6
ALGEBRA_TOL = 1e-12


def test_criterion_1_gradient_oracle_suite():
    """Analytic gradients match central finite differences for every model
    family at h = 1e-5, to relative error < 1e-6, in under 60 s."""
    start = time.monotonic()
    tree = LabelTree.balanced(6, 3)
    rng = np.random.default_rng(2024)
    sample = (rng.standard_normal(5), rng.standard_normal(4), 3)
    families = {
        "audio tower+softmax": TrainConfig(
            mode="audio", dims_a=(5, 6, 4), dims_v=(4, 5, 3), epochs=0,
            init_scale=0.6, seed=1),
        "fused softmax": TrainConfig(
            mode="fused", dims_a=(5, 6, 4), dims_v=(4, 5, 3), epochs=0,
            init_scale=0.6, seed=2),
        "full bilinear": TrainConfig(
            mode="bilinear", variant=FULL, dims_a=(5, 6, 4), dims_v=(4, 5, 3),
            epochs=0, init_scale=0.6, seed=3),
        "factored bilinear": TrainConfig(
            mode="bilinear", variant=FACTORED, dims_a=(5, 6, 4), dims_v=(4, 5, 3),
            fused_dim=3, epochs=0, init_scale=0.6, seed=4),
        "factored-shared bilinear": TrainConfig(
            mode="bilinear", variant=FACTORED_SHARED, dims_a=(5, 6, 4),
            dims_v=(4, 5, 3), fused_dim=3, epochs=0, init_scale=0.6, seed=5),
    }
    worst = {}
    for name, cfg in families.items():
        model = build_model(cfg, 5, 4, 6, tree)
        report = grad_check(model, sample, h=1e-5)
        worst[name] = report.max_rel_error
    elapsed = time.monotonic() - start
    print(f"criterion 1: worst relative errors {{"
          + ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
          + f"}} in {elapsed:.1f}s")
    assert all(v < GRAD_TOL for v in worst.values()), worst
    assert elapsed < 60.0
    print("CRITERION 1: PASS (gradient oracle suite)")


def test_criterion_2_algebraic_identities():
    """Simplex, delta sums, group-delta identity, full/factored equivalence
    and shared-singleton collapse over 1000 random instances each."""
    start = time.monotonic()
    rng = np.random.default_rng(99)
    n = 1000

    worst_simplex = worst_dsum = worst_group = worst_fullfac = worst_collapse = 0.0
    for i in range(n):
        c = int(rng.integers(2, 7))
        g = int(rng.integers(1, c + 1))
        group_of = rng.permutation(np.concatenate([np.arange(g),
                                                   rng.integers(0, g, c - g)]))
        tree = LabelTree(group_of, g)
        k1, k2, f = (int(rng.integers(1, 5)) for _ in range(3))
        head = init_head(FACTORED_SHARED, k1, k2, c, fused_dim=f, tree=tree,
                         seed=int(rng.integers(2**31)), scale=0.8)
        v1 = rng.standard_normal((1, k1))  # one row
        v2 = rng.standard_normal((1, k2))
        probs = posterior_batch(head, v1, v2)[0]
        worst_simplex = max(worst_simplex, abs(probs.sum() - 1.0))

        target = int(rng.integers(c))
        dl = target_delta(probs[None], np.array([target]))
        dl, dg = dl[0], tree.group_sums(dl)[0]
        worst_dsum = max(worst_dsum, abs(dl.sum()), abs(dg.sum()))
        for grp in range(g):
            worst_group = max(worst_group,
                              abs(dg[grp] - dl[tree.members(grp)].sum()))

        factored = init_head(FACTORED, k1, k2, c, fused_dim=f,
                             seed=int(rng.integers(2**31)), scale=0.8)
        stacked = np.stack([materialize_w(factored, y) for y in range(c)])
        full = BilinearHead(FULL, k1, k2, c, w_stack=stacked,
                            v1=factored.v1, v2=factored.v2, b=factored.b)
        worst_fullfac = max(worst_fullfac, float(np.max(np.abs(
            posterior_batch(full, v1, v2)[0] - posterior_batch(factored, v1, v2)[0]))))

        singleton = BilinearHead(FACTORED_SHARED, k1, k2, c,
                                 u1=factored.u1, u2=factored.u2, w=factored.w,
                                 v1=factored.v1, v2=factored.v2, b=factored.b,
                                 tree=LabelTree.singleton(c))
        worst_collapse = max(worst_collapse, float(np.max(np.abs(
            posterior_batch(singleton, v1, v2)[0] - posterior_batch(factored, v1, v2)[0]))))
    elapsed = time.monotonic() - start
    print(f"criterion 2: simplex {worst_simplex:.1e}, delta sums {worst_dsum:.1e}, "
          f"group identity {worst_group:.1e}, full/factored {worst_fullfac:.1e}, "
          f"singleton collapse {worst_collapse:.1e} over {n} instances in {elapsed:.1f}s")
    for value in (worst_simplex, worst_dsum, worst_group, worst_fullfac, worst_collapse):
        assert value <= ALGEBRA_TOL
    assert elapsed < 30.0
    print("CRITERION 2: PASS (algebraic identities)")


def test_criterion_3_parameter_counts():
    """Sharing shrinks the bilinear weight block from C x F to G x F:
    1328 x 200 = 265600 vs 42 x 200 = 8400, exactly."""
    c, g, f, k = 1328, 42, 200, 200
    tree = LabelTree(np.arange(c) % g, g)  # the real tree is imbalanced too
    shared = init_head(FACTORED_SHARED, k, k, c, fused_dim=f, tree=tree, seed=0)
    factored = init_head(FACTORED, k, k, c, fused_dim=f, seed=0)
    shared_w_block = param_count(shared)["bilinear"] - f * (k + k)
    factored_w_block = param_count(factored)["bilinear"] - f * (k + k)
    print(f"criterion 3: shared w-block {shared_w_block} vs factored {factored_w_block}")
    assert shared_w_block == 8400
    assert factored_w_block == 265600
    assert shared.w.shape == (200, 42)
    assert factored.w.shape == (200, 1328)
    print("CRITERION 3: PASS (parameter counts)")


def test_criterion_4_synthetic_bilinear_advantage():
    """On the planted-interaction benchmark the frozen-tower linear fused
    softmax stays at >= 40% test error, the jointly trained factored-shared
    bilinear model reaches <= 15%, and averaging three bilinear
    architectures with the fused model does not hurt the best NLL by more
    than 0.02. Budget: 10 minutes."""
    start = time.monotonic()
    bench = load_script("run_benchmark")
    train, test = generate_synthetic(bench.bench_spec())
    baseline_err = evaluate(bench.train_baseline(train), test).leaf_error
    flagship_err = evaluate(bench.train_flagship(train), test).leaf_error
    members = bench.train_members(train)

    member_nlls = [evaluate(m, test).nll for m in members]
    ensemble_nll = evaluate(Ensemble(members), test).nll
    best_nll = min(member_nlls)
    elapsed = time.monotonic() - start

    print(f"criterion 4: baseline err {baseline_err:.3f} (>= 0.40), "
          f"bilinear err {flagship_err:.3f} (<= 0.15), member NLLs "
          f"{[f'{v:.3f}' for v in member_nlls]}, ensemble NLL {ensemble_nll:.4f} "
          f"(<= best {best_nll:.4f} + 0.02), {elapsed:.0f}s")
    assert baseline_err >= 0.40
    assert flagship_err <= 0.15
    assert ensemble_nll <= best_nll + 0.02
    assert elapsed < 600.0
    print("CRITERION 4: PASS (synthetic bilinear advantage)")


def test_criterion_5_projection_and_ascent():
    """||U1||_F, ||U2||_F stay within lambda = 2 after every SGD step, and a
    tiny full-batch ascent step strictly increases E on 100/100 trials."""
    spec = SynthSpec(d1=6, d2=6, num_classes=4, num_groups=2, n_train=96,
                     n_test=32, noise_std=0.1, interaction_rank=2, seed=41)
    train, _ = generate_synthetic(spec)
    cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                      dims_a=(6, 5), dims_v=(6, 5), fused_dim=3, epochs=3,
                      learning_rate=2.0, init_scale=1.0, minibatch_size=8,
                      seed=13, lam=2.0)
    model = build_model(cfg, 6, 6, 4, train.tree)
    params = model.trainable_params()
    rng = np.random.default_rng(7)
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(train.n)
        for lo in range(0, train.n, cfg.minibatch_size):
            idx = order[lo:lo + cfg.minibatch_size]
            _, grads = model.loglik_and_grads(train.x1[idx], train.x2[idx],
                                              train.y[idx])
            sgd_step(params, grads, cfg.learning_rate, cfg.lam,
                     model.project_names())
            for name in ("head.U1", "head.U2"):
                assert float(np.sqrt(np.sum(params[name] ** 2))) <= 2.0 + 1e-12
            steps += 1

    increased = 0
    trials = 0
    seed = 0
    while trials < 100:
        seed += 1
        trial_cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                                dims_a=(6, 5), dims_v=(6, 5), fused_dim=3,
                                epochs=0, init_scale=0.7, seed=seed, lam=2.0)
        m = build_model(trial_cfg, 6, 6, 4, train.tree)
        e0, grads = m.loglik_and_grads(train.x1, train.x2, train.y)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm <= 1e-3:
            continue
        trials += 1
        sgd_step(m.trainable_params(), grads, 1e-6, 2.0, m.project_names())
        e1, _ = m.loglik_and_grads(train.x1, train.x2, train.y)
        if e1 > e0:
            increased += 1
    print(f"criterion 5: projection held over {steps} steps; "
          f"ascent {increased}/100 trials")
    assert increased == 100
    print("CRITERION 5: PASS (projection and ascent invariants)")


def test_criterion_6_determinism_and_persistence(tmp_path):
    """Identical config + seed give byte-identical artifacts, and
    load(save(x)) is bitwise identity for datasets and every model kind."""
    train_path = tmp_path / "train.bin"
    test_path = tmp_path / "test.bin"
    synth_args = ["synth", "--out-train", str(train_path), "--out-test",
                  str(test_path), "--d1", "6", "--d2", "6", "--classes", "4",
                  "--groups", "2", "--n-train", "96", "--n-test", "32",
                  "--noise-std", "0.1", "--rank", "2", "--seed", "19"]
    assert main(synth_args) == 0
    first = (train_path.read_bytes(), test_path.read_bytes())
    assert main(synth_args) == 0
    assert (train_path.read_bytes(), test_path.read_bytes()) == first

    blobs = []
    for tag in ("a", "b"):
        model_path = tmp_path / f"{tag}.model"
        log_path = tmp_path / f"{tag}.jsonl"
        code = main(["train", "--data", str(train_path), "--test-data",
                     str(test_path), "--mode", "bilinear", "--arch",
                     "[6,5,4 | 6,5,4 | F=2]", "--epochs", "3", "--seed", "23",
                     "--out", str(model_path), "--log", str(log_path)])
        assert code == 0
        blobs.append((model_path.read_bytes(), log_path.read_bytes()))
    assert blobs[0] == blobs[1]

    # load . save identity, bitwise, across dataset splits and model kinds
    from bimodalnet.data import load_dataset, save_dataset
    for split_path in (train_path, test_path):
        ds = load_dataset(split_path)
        resaved = tmp_path / "resave.bin"
        save_dataset(ds, resaved)
        assert resaved.read_bytes() == split_path.read_bytes()

    tree = LabelTree.balanced(4, 2)
    kinds = {
        "unimodal": TrainConfig(mode="visual", dims_a=(6, 4), dims_v=(6, 4),
                                epochs=0, seed=2),
        "fused": TrainConfig(mode="fused", dims_a=(6, 4), dims_v=(6, 4),
                             fusion_top=(5,), epochs=0, seed=3),
        "full": TrainConfig(mode="bilinear", variant=FULL, dims_a=(6, 4),
                            dims_v=(6, 4), epochs=0, seed=4),
        "factored": TrainConfig(mode="bilinear", variant=FACTORED, dims_a=(6, 4),
                                dims_v=(6, 4), fused_dim=2, epochs=0, seed=5),
        "factored-shared": TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                                       dims_a=(6, 4), dims_v=(6, 4), fused_dim=2,
                                       epochs=0, seed=6),
    }
    for tag, cfg in kinds.items():
        model = build_model(cfg, 6, 6, 4, tree)
        p1 = tmp_path / f"{tag}.1"
        p2 = tmp_path / f"{tag}.2"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes(), tag
    print("criterion 6: byte-identical reruns and bitwise round-trips for "
          f"{len(kinds)} model kinds")
    print("CRITERION 6: PASS (determinism and persistence)")
