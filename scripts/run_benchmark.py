"""Planted-interaction benchmark: linear fused baseline vs jointly trained
factored-shared bilinear model, plus the posterior-averaging protocol.

Usage: python scripts/run_benchmark.py [--quick]

--quick cuts the flagship training to 200 epochs and each bilinear member's
to 40 for a fast look. The full run trains the models of acceptance
criterion 4, which builds them through the functions below.
"""

import argparse
import time

from bimodalnet.bilinear import FACTORED_SHARED
from bimodalnet.data import SynthSpec, generate_synthetic
from bimodalnet.fusion import Ensemble
from bimodalnet.training import (
    TrainConfig,
    build_model,
    evaluate,
    train_joint,
    train_model,
)


# dataset seed, and (tower dims, fused dim F, seed) of the three bilinear members
DATASET_SEED = 7
MEMBER_ARCHS = (((20, 24, 12), 8, 22), ((20, 20, 12), 8, 24), ((20, 28, 14), 6, 25))


def bench_spec(seed: int = DATASET_SEED) -> SynthSpec:
    """d=20/20, C=8, G=4, 10k train / 2k test, rank-2 planted interaction."""
    return SynthSpec(d1=20, d2=20, num_classes=8, num_groups=4,
                     n_train=10000, n_test=2000, noise_std=0.1,
                     interaction_rank=2, seed=seed)


def train_baseline(train):
    """Linear fused softmax on towers frozen at their random init."""
    cfg = TrainConfig(mode="fused", dims_a=(20, 24, 12), dims_v=(20, 24, 12),
                      epochs=15, learning_rate=0.5, init_scale=1.0, seed=5)
    return train_joint(cfg, train)[0]


def train_flagship(train, epochs: int = 1000):
    """Jointly trained factored-shared bilinear model."""
    cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                      dims_a=(20, 16), dims_v=(20, 16), fused_dim=16,
                      epochs=epochs, learning_rate=0.15, init_scale=0.5,
                      minibatch_size=32, seed=5, lam=8.0)
    return train_joint(cfg, train)[0]


def train_members(train, epochs: int = 120):
    """Members of the posterior-averaging protocol: three bilinear
    architectures trained ``epochs`` epochs each, plus a fused model on
    towers warm-started from two uni-modal models."""
    members = []
    for dims, fused_dim, seed in MEMBER_ARCHS:
        cfg = TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                          dims_a=dims, dims_v=dims, fused_dim=fused_dim,
                          epochs=epochs, learning_rate=0.5, init_scale=0.5,
                          minibatch_size=32, seed=seed, lam=2.0)
        members.append(train_joint(cfg, train)[0])
    warm = []
    for mode, seed in (("audio", 31), ("visual", 32)):
        cfg = TrainConfig(mode=mode, dims_a=(20, 16, 8), dims_v=(20, 16, 8),
                          epochs=20, learning_rate=0.5, init_scale=1.0, seed=seed)
        warm.append(train_joint(cfg, train)[0].tower)
    fused_cfg = TrainConfig(mode="fused", fusion_top=(24,), epochs=40,
                            learning_rate=0.5, init_scale=0.5, seed=33)
    fused = build_model(fused_cfg, 20, 20, 8, train.tree, warm_towers=tuple(warm))
    train_model(fused, fused_cfg, train)
    members.append(fused)
    return members


def row(tag, metrics):
    print(f"  {tag:34s} leaf_err={metrics.leaf_error:6.3f}  "
          f"group_err={metrics.group_error:6.3f}  nll={metrics.nll:7.4f}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=DATASET_SEED, help="dataset seed")
    args = parser.parse_args()

    spec = bench_spec(args.seed)
    train, test = generate_synthetic(spec)
    print(f"dataset: {train.n} train / {test.n} test, C={spec.num_classes}, "
          f"G={spec.num_groups}, d=({spec.d1},{spec.d2})")

    t0 = time.monotonic()
    row("linear fused softmax (frozen init)", evaluate(train_baseline(train), test))
    flagship = train_flagship(train, 200 if args.quick else 1000)
    row("factored-shared bilinear (joint)", evaluate(flagship, test))
    members = train_members(train, 40 if args.quick else 120)

    print("posterior-averaging protocol:")
    for i, member in enumerate(members):
        tag = f"member {i + 1} " + ("(fused)" if member.kind == "fused" else "(bilinear)")
        row(tag, evaluate(member, test))
    row("ensemble (average of 4)", evaluate(Ensemble(members), test))
    print(f"total {time.monotonic() - t0:.0f}s")


if __name__ == "__main__":
    main()
