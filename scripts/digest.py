"""One sha256 per output of the library and the command line, for checking
that a change keeps every result bit for bit.

Usage: python scripts/digest.py [--quick] [--workdir DIR] [--resave DIR]
                                [--save FILE] [--check FILE]

Prints "<item> <sha256>" lines:

- zoo/<tag>/...: for six small models, one per classifier kind and bilinear
  variant (the models of tests/test_data.py ``_model_zoo``), the saved file
  bytes, ``posterior_batch`` on fixed inputs, the mean log-likelihood and
  the gradient of every trainable parameter;
- cli/...: the two dataset files ``synth`` writes, the ``train --log`` file,
  the saved model and the printed record of each ``train``, and the printed
  records of ``eval`` and ``ensemble``, for every mode and bilinear variant
  on a planted-interaction dataset;
- without ``--quick`` also paper/...: the two paper-shape dataset files
  ``save_dataset`` writes, then one bilinear run at the paper's shapes, and
  the ``ensemble`` of that model with three untrained paper-shape members (a
  factored bilinear, a fused with a sigmoid top and a unimodal one), whose
  average runs over all C=1328 leaves, then each of those four members on
  its own (its ``eval`` record and its ``posterior_batch`` over the 512-row
  split in one call), and two one-epoch ``fused`` runs
  (frozen towers) at the paper's shapes on the 512-row split, without a
  sigmoid top and with a (500,) one: their log, model and printed record.

Run it on two checkouts (``PYTHONPATH=<checkout>/src``) and diff the
outputs. Every digest is computed inside ``linalg.one_blas_thread``, as the
library's training and evaluation are, so BLAS runs on one thread whatever
``OPENBLAS_NUM_THREADS`` says, and the digests do not depend on it.
``--workdir`` keeps the written files; ``--resave DIR`` instead loads every
``*.bin`` model file in DIR (say, a workdir of another checkout), saves it
again and prints whether the bytes are the same.

``--save FILE`` also writes the digests to FILE, after a first line naming
the platform: numpy's version, its BLAS and the CPU model, which the last
bits of a product may depend on. ``--check FILE`` compares the digests with
the ones saved in FILE instead of printing them: it prints each item whose
digest moved (or that only one side has) and exits 1 when any did, else 0;
when FILE was saved on another platform it exits 2 without computing any.
``scripts/digest_baseline.txt`` holds the full-mode digests saved at the
commit before modality lanes, on a 2-core Xeon VM.
"""

import argparse
import glob
import hashlib
import io
import os
import platform
import sys
import tempfile
from contextlib import redirect_stdout

import numpy as np

from bimodalnet import cli
from bimodalnet.bilinear import FACTORED, FACTORED_SHARED, FULL, LabelTree
from bimodalnet.data import (
    Dataset,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from bimodalnet.linalg import one_blas_thread
from bimodalnet.training import TrainConfig, build_model

PAPER_ARCH = "[360,500,200,1328 | 540,500,200,1328 | F=200]"


def sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, float):
        data = data.hex().encode()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return sha(fh.read())


def model_zoo(tree):
    """(tag, model): the six models of tests/test_data.py ``_model_zoo``."""
    def build(**fields):
        return build_model(TrainConfig(epochs=0, **fields), 5, 6, 4, tree)

    zoo = [
        ("unimodal", build(mode="audio", dims_a=(5, 4, 3), dims_v=(6, 4, 3), seed=1)),
        ("fused-softmax", build(mode="fused", dims_a=(5, 4), dims_v=(6, 4), seed=2)),
        ("fused-deep", build(mode="fused", dims_a=(5, 4), dims_v=(6, 4), fusion_top=(7, 5),
                             seed=3)),
    ]
    for variant in (FULL, FACTORED, FACTORED_SHARED):
        zoo.append((variant, build(mode="bilinear", variant=variant, dims_a=(5, 4),
                                   dims_v=(6, 4), fused_dim=2, seed=4)))
    return zoo


def zoo_digests(workdir: str):
    tree = LabelTree.balanced(4, 2)
    rng = np.random.default_rng(11)
    x1, x2 = rng.standard_normal((7, 5)), rng.standard_normal((7, 6))
    targets = np.array([0, 1, 2, 3, 0, 1, 2])
    for tag, model in model_zoo(tree):
        path = os.path.join(workdir, f"zoo-{tag}.bin")
        save_model(model, path)
        yield f"zoo/{tag}/saved", file_sha(path)
        yield f"zoo/{tag}/posterior_batch", sha(model.posterior_batch(x1, x2))
        loglik, grads = model.loglik_and_grads(x1, x2, targets)
        yield f"zoo/{tag}/loglik", sha(loglik)
        for name in sorted(model.trainable_params()):
            yield f"zoo/{tag}/grad/{name}", sha(grads[name])


def run_cli(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {' '.join(argv)}")
    return out.getvalue()


def cli_digests(workdir: str, quick: bool):
    def p(name):
        return os.path.join(workdir, name)

    n_train, n_test, epochs = (400, 100, 2) if quick else (10000, 2000, 5)
    run_cli(["synth", "--out-train", p("train.data"), "--out-test", p("test.data"),
             "--d1", "12", "--d2", "10", "--classes", "8", "--groups", "4",
             "--n-train", str(n_train), "--n-test", str(n_test), "--seed", "3"])
    yield "cli/synth/train", file_sha(p("train.data"))
    yield "cli/synth/test", file_sha(p("test.data"))
    arch = "[12,9,6,8 | 10,9,6,8 | F=5]"
    common = ["--data", p("train.data"), "--test-data", p("test.data"),
              "--epochs", str(epochs), "--lr", "0.3", "--init-scale", "0.5", "--seed", "7"]
    runs = [
        ("audio", ["--mode", "audio", "--arch", arch]),
        ("visual", ["--mode", "visual", "--arch", arch]),
        ("fused", ["--mode", "fused", "--arch", arch, "--fusion-top", "6,5"]),
        ("fused-warm", ["--mode", "fused", "--tower-a", p("audio.bin"),
                        "--tower-v", p("visual.bin"), "--fusion-top", "6"]),
    ] + [(variant, ["--mode", "bilinear", "--variant", variant, "--arch", arch, "--lam", "1.5"])
         for variant in (FULL, FACTORED, FACTORED_SHARED)]
    for name, args in runs:
        printed = run_cli(["train"] + common + args + ["--out", p(f"{name}.bin"),
                                                       "--log", p(f"{name}.log")])
        yield f"cli/train/{name}/log", file_sha(p(f"{name}.log"))
        yield f"cli/train/{name}/model", file_sha(p(f"{name}.bin"))
        yield f"cli/train/{name}/stdout", sha(printed)
        yield f"cli/eval/{name}", sha(run_cli(["eval", "--model", p(f"{name}.bin"),
                                               "--data", p("test.data")]))
    members = [p(f"{name}.bin") for name, _ in runs]
    yield "cli/ensemble", sha(run_cli(["ensemble", *members, "--data", p("test.data")]))
    if quick:
        return
    # paper shapes on Gaussian noise, as in perfbench's train-paper workload
    rng = np.random.default_rng(5)
    tree = LabelTree(np.arange(1328) * 42 // 1328, 42)
    for split, n in (("train", 2048), ("test", 512)):
        save_dataset(Dataset(rng.standard_normal((n, 360)), rng.standard_normal((n, 540)),
                             rng.integers(0, 1328, n), tree, split), p(f"paper-{split}.data"))
        yield f"paper/{split}.data", file_sha(p(f"paper-{split}.data"))
    printed = run_cli(["train", "--data", p("paper-train.data"), "--mode", "bilinear",
                       "--variant", FACTORED_SHARED, "--arch", PAPER_ARCH, "--epochs", "1",
                       "--lr", "0.1", "--lam", "8.0", "--seed", "2",
                       "--out", p("paper.bin"), "--log", p("paper.log")])
    yield "cli/train/paper/log", file_sha(p("paper.log"))
    yield "cli/train/paper/model", file_sha(p("paper.bin"))
    yield "cli/train/paper/stdout", sha(printed)
    yield "cli/eval/paper", sha(run_cli(["eval", "--model", p("paper.bin"),
                                         "--data", p("paper-test.data")]))
    members = {"paper-factored": ["--mode", "bilinear", "--variant", FACTORED],
               "paper-fused": ["--mode", "fused", "--fusion-top", "200"],
               "paper-audio": ["--mode", "audio"]}
    for name, args in members.items():
        run_cli(["train", "--data", p("paper-train.data"), "--arch", PAPER_ARCH,
                 "--epochs", "0", "--seed", "3", *args, "--out", p(f"{name}.bin")])
    yield "cli/ensemble/paper", sha(run_cli(
        ["ensemble", p("paper.bin"), *(p(f"{name}.bin") for name in members),
         "--data", p("paper-test.data")]))
    # each member on its own: the record of its eval, and its posteriors
    # over the whole 512-row split from one posterior_batch call
    for name in members:
        yield f"cli/eval/{name}", sha(run_cli(["eval", "--model", p(f"{name}.bin"),
                                               "--data", p("paper-test.data")]))
    test = load_dataset(p("paper-test.data"))
    for name in ("paper", *members):
        yield f"paper/posterior/{name}", sha(
            load_model(p(f"{name}.bin")).posterior_batch(test.x1, test.x2))
    for name, top in (("fused", []), ("fused-top", ["--fusion-top", "500"])):
        printed = run_cli(["train", "--data", p("paper-test.data"), "--mode", "fused",
                           "--arch", PAPER_ARCH, *top, "--epochs", "1", "--seed", "4",
                           "--out", p(f"paper-{name}-trained.bin"),
                           "--log", p(f"paper-{name}-trained.log")])
        yield f"paper/train/{name}/log", file_sha(p(f"paper-{name}-trained.log"))
        yield f"paper/train/{name}/model", file_sha(p(f"paper-{name}-trained.bin"))
        yield f"paper/train/{name}/stdout", sha(printed)


def platform_line() -> str:
    """The first line of a saved digest file: numpy's version, its BLAS and
    the CPU model."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"platform numpy {np.__version__}; {blas.get('name')} {blas.get('version')}; {cpu}"


def resave(directory: str) -> bool:
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(glob.glob(os.path.join(directory, "*.bin"))):
            again = os.path.join(tmp, "again.bin")
            save_model(load_model(path), again)
            ok = file_sha(path) == file_sha(again)
            same &= ok
            print(f"resave/{os.path.basename(path)} {'same' if ok else 'DIFFERENT'}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="small CLI runs only")
    parser.add_argument("--workdir", default=None, help="keep the written files here")
    parser.add_argument("--resave", default=None, metavar="DIR",
                        help="re-save the model files in DIR and compare bytes")
    parser.add_argument("--save", default=None, metavar="FILE",
                        help="also write the platform and the digests to FILE")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="print the items whose digests differ from FILE's; exit 1 if any, "
                             "2 if FILE was saved on another platform")
    args = parser.parse_args(argv)
    if args.resave:
        return 0 if resave(args.resave) else 1
    if args.check:
        with open(args.check) as fh:
            saved_platform, *lines = fh.read().splitlines()
        saved = dict(line.split(" ", 1) for line in lines)
        if saved_platform != platform_line():
            print(f"{args.check} was saved on another platform:\n  {saved_platform}\n"
                  f"this one is\n  {platform_line()}", file=sys.stderr)
            return 2
    digests = {}
    with tempfile.TemporaryDirectory() as tmp, one_blas_thread():
        workdir = args.workdir or tmp
        os.makedirs(workdir, exist_ok=True)
        for item, digest in (*zoo_digests(workdir), *cli_digests(workdir, args.quick)):
            digests[item] = digest
            if not args.check:
                print(item, digest)
    if args.save:
        with open(args.save, "w") as fh:
            fh.write("".join([platform_line() + "\n"]
                             + [f"{item} {digest}\n" for item, digest in digests.items()]))
    if not args.check:
        return 0
    moved = [item for item in {**saved, **digests} if saved.get(item) != digests.get(item)]
    for item in moved:
        where = (" (only in the saved file)" if item not in digests
                 else " (not in the saved file)" if item not in saved else "")
        print(f"moved {item}{where}")
    print(f"{len(moved)} of {len(digests)} digests moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
