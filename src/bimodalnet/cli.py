"""Command-line entry point: synth, train, eval, gradcheck, ensemble.

Every subcommand is deterministic given its flags and seed; rerunning
produces byte-identical output files. Exit codes: 0 success, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys

import numpy as np

from .bilinear import FACTORED_SHARED, VARIANTS, LabelTree
from .data import (
    Dataset,
    FormatError,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    load_model,
    open_dataset,
    save_dataset,
    save_model,
    unstorable_at,
)
from .fusion import Ensemble
from .training import (
    MODES,
    TrainConfig,
    build_model,
    evaluate,
    grad_check,
    train_model,
)

logger = logging.getLogger("bimodalnet.cli")

SEED_ENV_VAR = "BIMODALNET_SEED"
GRADCHECK_THRESHOLD = 1e-5


class ArchParseError(ValueError):
    """Architecture string does not parse; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ConfigError(ValueError):
    """A config file or BIMODALNET_SEED holds what the train flags refuse."""


def parse_arch(s: str):
    """Parse the bracketed notation "[dims_a | dims_v | F=n]".

    Returns (dims_a, dims_v, fused_dim) as written; the last dim of each
    side is the class count and must match between sides. The string is
    stored in the model header, so it must be single-line ASCII.
    """
    bad = unstorable_at(s)
    if bad >= 0:
        raise ArchParseError(f"character {s[bad]!r} cannot be stored in a model header", bad)
    i = 0
    while i < len(s) and s[i].isspace():
        i += 1
    if i >= len(s) or s[i] != "[":
        raise ArchParseError("expected '['", i)
    close = s.find("]", i)
    if close < 0:
        raise ArchParseError("missing ']'", len(s))
    rest = s[close + 1:]
    if rest.strip():
        raise ArchParseError("unexpected text after ']'",
                             close + 1 + (len(rest) - len(rest.lstrip())))
    inner = s[i + 1:close]
    parts = inner.split("|")
    if len(parts) != 3:
        raise ArchParseError(
            f"expected two '|' separators inside the brackets, found {len(parts) - 1}",
            i + 1,
        )
    offsets = [i + 1]
    for p in parts[:-1]:
        offsets.append(offsets[-1] + len(p) + 1)

    def parse_dims(part: str, base: int) -> tuple[int, ...]:
        dims = []
        pos = 0
        for tok in part.split(","):
            stripped = tok.strip()
            tok_pos = base + pos + (len(tok) - len(tok.lstrip()))
            try:
                value = int(stripped)
            except ValueError:
                raise ArchParseError(f"invalid dimension {stripped!r}", tok_pos) from None
            if value < 1:
                raise ArchParseError(f"dimension must be positive, got {value}", tok_pos)
            dims.append(value)
            pos += len(tok) + 1
        return tuple(dims)

    dims_a = parse_dims(parts[0], offsets[0])
    dims_v = parse_dims(parts[1], offsets[1])
    fpart = parts[2].strip()
    fpos = offsets[2] + (len(parts[2]) - len(parts[2].lstrip()))
    if not fpart.startswith("F="):
        raise ArchParseError("expected 'F=<int>' as the third component", fpos)
    try:
        fused_dim = int(fpart[2:].strip())
    except ValueError:
        raise ArchParseError(f"invalid fused dimension {fpart[2:]!r}", fpos + 2) from None
    if fused_dim < 1:
        raise ArchParseError(f"fused dimension must be positive, got {fused_dim}", fpos + 2)
    if dims_a[-1] != dims_v[-1]:
        raise ArchParseError(
            f"mismatched class counts: {dims_a[-1]} != {dims_v[-1]}", offsets[1]
        )
    return dims_a, dims_v, fused_dim


def _seed_value(text: str) -> int:
    """A seed written as text: a non-negative integer in decimal digits."""
    text = text.strip()
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_top(text: str) -> tuple[int, ...]:
    """Hidden dims of the fused top written as text: positive integers
    separated by commas; empty or "softmax" for none."""
    text = text.strip()
    if text in ("", "softmax"):
        return ()
    try:
        dims = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse fusion top dims {text!r}") from None
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"fusion top dims must be positive, got {dims}")
    return dims


# The train command's settings, one entry per flag: its option strings, then
# its argparse keywords. A config file takes the same names (see
# ``read_config_file``); every flag defaults to None, "not given".
_TRAIN_FLAGS = (
    (("--data",), {}),
    (("--test-data",), {}),
    (("--mode",), {"choices": MODES}),
    (("--arch",), {"help": 'e.g. "[360,500,200,1328 | 540,500,200,1328 | F=200]"'}),
    (("--variant",), {"choices": VARIANTS}),
    (("--fusion-top",),
     {"type": _parse_top,
      "help": 'hidden dims of the fused top, e.g. "64,32"; empty or "softmax" for none'}),
    (("--learning-rate", "--lr"), {"type": float}),
    (("--epochs",), {"type": int}),
    (("--minibatch-size",), {"type": int}),
    (("--init-scale",), {"type": float}),
    (("--lam", "--lambda"), {"type": float}),
    (("--seed",), {"type": _seed_value}),
    (("--tower-a",), {"help": "warm-start tower from a unimodal model"}),
    (("--tower-v",), {}),
    (("--out",), {}),
    (("--log",), {"help": "write per-epoch records (JSON lines)"}),
)


def _name(option: str) -> str:
    """The option string without its dashes, ``-`` as ``_``: a config-file key
    and, for a flag's first option string, its setting name (argparse's dest)."""
    return option.lstrip("-").replace("-", "_")


def read_config_file(path: str) -> dict:
    """Train settings from ``key = value`` lines, by setting name.

    A key is any train flag's option string without its dashes (``lr`` and
    ``lambda`` too), ``-`` or ``_`` alike; its value is converted and
    checked by the flag's type and must be one of its choices. An unknown
    key or a value the flag would refuse raises ConfigError naming
    ``path:line``.
    """
    flags = {_name(opt): (_name(opts[0]), kw) for opts, kw in _TRAIN_FLAGS for opt in opts}
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key = key.strip().replace("-", "_")
            if key not in flags:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            name, kw = flags[key]
            text = text.strip()
            try:
                value = kw.get("type", str)(text)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: cannot parse {text!r} for key {key!r}") from None
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"{path}:{lineno}: key {key!r} {exc}") from None
            if "choices" in kw and value not in kw["choices"]:
                raise ConfigError(f"{path}:{lineno}: key {key!r} must be one of "
                                  f"{', '.join(kw['choices'])}, got {value!r}")
            values[name] = value
    return values


def _seed(given, default: int) -> int:
    """``given`` (a ``--seed`` value, checked by its type) unless None, else
    the value of BIMODALNET_SEED if it is set, else ``default``."""
    if given is not None:
        return given
    try:
        return _seed_value(os.environ.get(SEED_ENV_VAR, str(default)))
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} {exc}") from None


def _warm_towers(settings: dict, config: TrainConfig):
    """(tower_a, tower_v) of the ``--tower-a``/``--tower-v`` model files,
    None for a flag not given; None when neither is given.

    Each file must hold a unimodal model of its flag's modality (1 for
    ``--tower-a``, 2 for ``--tower-v``) whose tower has the dims ``--arch``
    gives that modality, when given, and the mode must be fused or bilinear.
    """
    if not (settings.get("tower_a") or settings.get("tower_v")):
        return None
    towers = []
    for slot, (name, dims) in enumerate((("tower_a", config.dims_a),
                                         ("tower_v", config.dims_v))):
        path = settings.get(name)
        if not path:
            towers.append(None)
            continue
        flag = "--" + name.replace("_", "-")
        model = load_model(path)
        if model.kind != "unimodal":
            raise ValueError(f"{flag}: {path} holds a {model.kind} model; warm-start "
                             f"towers must come from unimodal models")
        tower = model.tower
        held = (f"{path} holds a modality {model.inputs[0] + 1} tower with dims "
                f"{','.join(map(str, tower.layer_dims))}")
        if config.mode in ("audio", "visual"):
            raise ValueError(f"{flag}: mode {config.mode!r} takes no warm-start tower; {held}")
        if model.inputs[0] != slot:
            raise ValueError(f"{flag} takes a modality {slot + 1} tower; {held}")
        if dims and dims != tower.layer_dims:
            raise ValueError(f"{flag}: --arch gives modality {slot + 1} the dims "
                             f"{','.join(map(str, dims))}; {held}")
        towers.append(tower)
    return tuple(towers)


def _train_config_from(settings: dict, dataset: Dataset) -> TrainConfig:
    """The TrainConfig of the train settings: each setting that is a field is
    passed by name, so one not given keeps the field's default."""
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    given = {name: value for name, value in settings.items() if name in fields}
    mode = given.get("mode", TrainConfig.mode)
    if given.get("arch"):
        full_a, full_v, fused_dim = parse_arch(given["arch"])
        if len(full_a) < 2 or len(full_v) < 2:
            raise ValueError("architecture must list at least an input dim and the class count")
        if full_a[-1] != dataset.num_classes:
            raise ValueError(
                f"architecture class count {full_a[-1]} does not match "
                f"dataset classes {dataset.num_classes}"
            )
        dims_a, dims_v = full_a[:-1], full_v[:-1]
        if mode == "bilinear" and fused_dim > dims_a[-1] and fused_dim > dims_v[-1]:
            logger.warning(
                "fused dim F=%d exceeds both final hidden dims (%d, %d)",
                fused_dim, dims_a[-1], dims_v[-1],
            )
        given.update(dims_a=dims_a, dims_v=dims_v, fused_dim=fused_dim)
    elif mode != "fused":
        raise ValueError(f"mode {mode!r} requires --arch")
    return TrainConfig(**given)


def cmd_synth(args) -> int:
    spec = SynthSpec(
        d1=args.d1, d2=args.d2,
        num_classes=args.classes, num_groups=args.groups,
        n_train=args.n_train, n_test=args.n_test,
        noise_std=args.noise_std, interaction_rank=args.rank,
        seed=_seed(args.seed, 0), linear_scale=args.linear_scale,
    )
    train, test = generate_synthetic(spec)
    save_dataset(train, args.out_train)
    save_dataset(test, args.out_test)
    logger.info("wrote %s (%d samples) and %s (%d samples)",
                args.out_train, train.n, args.out_test, test.n)
    return 0


def cmd_train(args) -> int:
    # each setting from its flag if given, else from the config file
    settings = read_config_file(args.config) if args.config else {}
    for options, _ in _TRAIN_FLAGS:
        name = _name(options[0])
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    settings["seed"] = _seed(settings.get("seed"), TrainConfig.seed)
    if not settings.get("data"):
        raise ConfigError("train requires --data")
    if not settings.get("out"):
        raise ConfigError("train requires --out")
    if settings.get("arch"):
        parse_arch(settings["arch"])  # a malformed --arch fails before any data is read
    # minibatches gather rows at random, so the training split is read whole;
    # the test split is only evaluated, so it is read from its file in blocks
    train_set = load_dataset(settings["data"])
    test_path = settings.get("test_data")
    with open_dataset(test_path) if test_path else contextlib.nullcontext() as eval_set:
        config = _train_config_from(settings, train_set)
        model = build_model(config, train_set.d1, train_set.d2, train_set.num_classes,
                            train_set.tree, _warm_towers(settings, config))
        records = train_model(model, config, train_set, eval_set)
    save_model(model, settings["out"])
    if settings.get("log"):
        with open(settings["log"], "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    if records:
        print(json.dumps(records[-1]))
    logger.info("wrote model to %s", settings["out"])
    return 0


def _print_read(model, path: str, **extra) -> int:
    """Evaluate ``model`` on the dataset file at ``path``, read in blocks, and
    print the record of the read."""
    with open_dataset(path) as dataset:
        metrics = evaluate(model, dataset)
    record = {"split": dataset.split, "n": dataset.n, **extra}
    record.update(metrics.record(0, dataset.split))
    del record["epoch"]
    print(json.dumps(record))
    return 0


def cmd_eval(args) -> int:
    return _print_read(load_model(args.model), args.data)


def cmd_gradcheck(args) -> int:
    dims_a, dims_v, fused_dim = parse_arch(args.arch)
    classes = args.classes
    groups = args.groups if args.groups is not None else classes
    seed = _seed(args.seed, TrainConfig.seed)
    # here the arch sides are the tower stacks themselves; the head's class
    # count comes from --classes
    config = TrainConfig(
        mode=args.mode, variant=args.variant,
        dims_a=dims_a, dims_v=dims_v, fused_dim=fused_dim,
        arch=args.arch, seed=seed, epochs=0, init_scale=args.init_scale,
    )
    tree = LabelTree.balanced(classes, groups)
    model = build_model(config, dims_a[0], dims_v[0], classes, tree)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    sample = (
        rng.standard_normal(dims_a[0]),
        rng.standard_normal(dims_v[0]),
        int(rng.integers(classes)),
    )
    report = grad_check(model, sample, h=args.h)
    print(f"max_rel_error={report.max_rel_error:.6e} "
          f"worst={report.worst_param}{list(report.worst_index)} "
          f"checked={report.num_checked} h={report.h:g}")
    if report.passed(GRADCHECK_THRESHOLD):
        print(f"PASS: analytic gradients match central differences "
              f"(threshold {GRADCHECK_THRESHOLD:g})")
        return 0
    print(f"FAIL: max relative error {report.max_rel_error:.3e} "
          f">= {GRADCHECK_THRESHOLD:g}")
    return 1


def cmd_ensemble(args) -> int:
    if len(args.models) < 2:
        print("error: ensemble needs at least 2 model files", file=sys.stderr)
        return 2
    members = [load_model(p) for p in args.models]
    return _print_read(Ensemble(members), args.data, members=len(members))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimodalnet",
        description="Bimodal sigmoid towers with fused and bilinear softmax heads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-interaction dataset pair")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--d1", type=int, default=20)
    p.add_argument("--d2", type=int, default=20)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--groups", type=int, default=4)
    p.add_argument("--n-train", type=int, default=10000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--linear-scale", type=float, default=1.0)
    p.add_argument("--seed", type=_seed_value, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write it with its metric log")
    p.add_argument("--config", default="", help="key=value file; flags override")
    for options, keywords in _TRAIN_FLAGS:
        p.add_argument(*options, default=None, **keywords)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the analytic gradients")
    p.add_argument("--arch", required=True,
                   help='tower stacks, e.g. "[3,4,2 | 3,4,2 | F=2]" (class count from --classes)')
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--groups", type=int, default=None)
    p.add_argument("--variant", choices=VARIANTS, default=FACTORED_SHARED)
    p.add_argument("--mode", choices=MODES, default="bilinear")
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--init-scale", type=float, default=0.5)
    p.add_argument("--seed", type=_seed_value, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ensemble", help="average posteriors of saved models")
    p.add_argument("models", nargs="+", help="at least two model files")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_ensemble)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: ``parse_args`` keeps
    no state between calls, and help is formatted when it is printed.
    ``build_parser`` gives a fresh parser to a caller that changes one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ArchParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
