"""Alternating A/B runs of perfbench on two checkouts, with a per-metric summary.

Usage:
    python scripts/ab_pairs.py --parent DIR --change DIR --workload train-small \
        --seed 13 --pairs 10 [--seconds 25] [--trace 0] [--save runs.jsonl] \
        [--bench BENCH.json]
    python scripts/ab_pairs.py --load runs.jsonl [--bench BENCH.json]

Each pair runs ``perfbench/run.py`` once in each checkout with the same
workload, seed, run length and trace setting; the parent runs first in even
pairs and the change first in odd ones. Per metric it prints each side's
median and quartiles, the change's wins (ties count for neither side), the
parent's quartile spread, and whether the change is better in at least nine
tenths of the pairs and its median beyond that spread. It also prints the
failed and attempted operations of each side; a change that fails a larger
share of its operations than the parent has no gain on any metric. For
each end-to-end metric it prints how the change stands against that
metric's relative bound: ``worse`` when the change's median is worse than
the parent's by more than the bound, ``unresolved`` when the parent's
quartile spread over its median exceeds the bound and not every change run
beats every parent run, else ``within``. Which direction is better, and each
bound, come from this checkout's ``BENCHMARK.json``. ``--save`` keeps every
result line, with the workload, the seed and the side's commit, and
``--load`` summarises a saved file without running.

``--bench PATH`` also writes that summary as JSON, under the workload's name
in PATH's ``workloads`` (an entry of an earlier run of the same workload is
replaced, others are kept): the seed and the pairs, each side's commit
(``git rev-parse HEAD`` of its checkout, and whether its files differ from
that commit) and its failed and attempted operations, and per metric both
sides' median and quartiles, the change's wins, the gain verdict and the
bound verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

SIDES = ("parent", "change")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


@dataclass
class MetricSummary:
    name: str
    unit: str
    better: Optional[str]          # "higher", "lower", or None when BENCHMARK.json omits it
    parent: tuple[float, float, float]  # (median, first quartile, third quartile)
    change: tuple[float, float, float]
    wins: Optional[int]            # pairs in which the change is strictly better
    pairs: int
    fails_more: bool = False       # the change fails a larger share of its operations
    bound: Optional[str] = None    # "worse", "unresolved" or "within"; None without a bound

    @property
    def parent_spread(self) -> float:
        return self.parent[2] - self.parent[1]

    @property
    def ratio(self) -> float:
        return self.change[0] / self.parent[0] if self.parent[0] else float("nan")

    @property
    def gain(self) -> bool:
        """Better in at least 9/10 of the pairs, by more than the parent's spread,
        and failing no larger share of operations than the parent."""
        if self.fails_more or self.better is None or not self.pairs:
            return False
        diff = self.change[0] - self.parent[0]
        if self.better == "lower":
            diff = -diff
        return 10 * self.wins >= 9 * self.pairs and diff > self.parent_spread


def quartiles(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile); quartiles interpolate
    between the sorted values (``statistics.quantiles``, inclusive method)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def bound_check(parent, change, better: str, bound: float) -> str:
    """How the change's runs stand against a relative ``bound`` on how much
    worse than the parent's they may be: "worse", "unresolved" or "within"."""
    sign = 1 if better == "higher" else -1
    median, q1, q3 = quartiles(parent)
    if sign * (median - quartiles(change)[0]) > bound * abs(median):
        return "worse"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(median) and not beats_all:
        return "unresolved"
    return "within"


def _benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def directions() -> dict[str, str]:
    """Whether higher or lower is better, by metric name, from BENCHMARK.json."""
    spec = _benchmark()
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def relative_bounds() -> dict[str, float]:
    """The relative bound of each end-to-end metric, from BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}


def summarize(pairs, better: dict[str, str], bounds=None) -> list[MetricSummary]:
    """One summary per metric present in every result of ``pairs``, a list of
    (parent result, change result) as run.py prints them on its last line;
    ``bounds`` holds the relative bound of each metric that has one."""
    if not pairs:
        return []
    names = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair))
    first = pairs[0][0]["metrics"]
    more = fails_more(pairs)
    out = []
    for name in sorted(names):
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        direction = better.get(name)
        wins = check = None
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            if bounds and name in bounds:
                check = bound_check(parent, change, direction, bounds[name])
        out.append(MetricSummary(name, first[name]["unit"], direction, quartiles(parent),
                                 quartiles(change), wins, len(pairs), more, check))
    return out


def failures(results) -> tuple[int, int, int]:
    """(failed operations, attempted operations, runs not correct)."""
    return (sum(r["failed"] for r in results), sum(r["attempted"] for r in results),
            sum(1 for r in results if not r["correct"]))


def fails_more(pairs) -> bool:
    """Whether the change fails a larger share of its attempted operations
    than the parent (a side that attempted none failed none)."""
    def share(results):
        failed, attempted, _ = failures(results)
        return failed / attempted if attempted else 0.0
    return share([c for _, c in pairs]) > share([p for p, _ in pairs])


def report(pairs, better: dict[str, str], bounds=None) -> str:
    def fmt(q):
        return f"{q[0]:.6g} [{q[1]:.6g}, {q[2]:.6g}]"

    lines = [f"{len(pairs)} pairs; median [first quartile, third quartile]",
             "metric | unit | parent | change | change/parent | change wins | "
             "parent spread | gain | bound"]
    for m in summarize(pairs, better, bounds):
        wins = "-" if m.wins is None else f"{m.wins}/{m.pairs}"
        lines.append(f"{m.name} | {m.unit} | {fmt(m.parent)} | {fmt(m.change)} | "
                     f"{m.ratio:.3f} | {wins} | {m.parent_spread:.6g} | "
                     f"{'yes' if m.gain else 'no'} | {m.bound or '-'}")
    for side, results in zip(SIDES, zip(*pairs)):
        failed, attempted, incorrect = failures(results)
        lines.append(f"{side}: {failed} of {attempted} operations failed; "
                     f"{incorrect} runs not correct")
    if fails_more(pairs):
        lines[-1] += "; a larger share than the parent's, so no metric is a gain"
    return "\n".join(lines)


def commit_of(checkout: str) -> dict:
    """``git rev-parse HEAD`` of ``checkout``, and whether any of its files
    differ from that commit (``git status``); None for both outside git."""
    def git(*args):
        try:
            child = subprocess.run(["git", *args], cwd=checkout, stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
        except OSError:  # no git
            return None
        return child.stdout.strip() if child.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if head else None
    return {"commit": head, "dirty": None if status is None else bool(status)}


def bench_entry(pairs, better: dict[str, str], bounds, seed, commits) -> dict:
    """The summary of ``pairs`` that ``report`` prints, as a JSON object."""
    def sides(q):
        return dict(zip(("median", "q1", "q3"), q))

    metrics = {m.name: {"unit": m.unit, "better": m.better, "parent": sides(m.parent),
                        "change": sides(m.change), "wins": m.wins, "pairs": m.pairs,
                        "parent_spread": m.parent_spread, "gain": m.gain, "bound": m.bound}
               for m in summarize(pairs, better, bounds)}
    operations = {}
    for side, results in zip(SIDES, zip(*pairs)):
        failed, attempted, incorrect = failures(results)
        operations[side] = {"failed": failed, "attempted": attempted,
                            "runs_not_correct": incorrect}
    return {"seed": seed, "pairs": len(pairs), "commits": commits,
            "operations": operations, "fails_more": fails_more(pairs), "metrics": metrics}


def write_bench(path: str, workload: str, entry: dict) -> None:
    """Put ``entry`` under ``workload`` in the JSON file at ``path``."""
    bench = {"workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
    bench["workloads"][workload] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in ``checkout``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True,
        timeout=4 * seconds + 600)
    return json.loads(child.stdout.strip().splitlines()[-1])


def _saved(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def load_pairs(path: str) -> list:
    """(parent result, change result) of every complete pair saved by ``--save``."""
    by_pair: dict[int, dict] = {}
    for entry in _saved(path):
        by_pair.setdefault(entry["pair"], {})[entry["side"]] = entry["result"]
    return [(p["parent"], p["change"]) for _, p in sorted(by_pair.items()) if len(p) == 2]


def load_context(path: str) -> dict:
    """The workload, seed and each side's commit saved by ``--save``; None
    for what a file saved without them does not hold."""
    entries = _saved(path)
    first = entries[0] if entries else {}
    return {"workload": first.get("workload"), "seed": first.get("seed"),
            "commits": {side: next((e.get("commit") for e in entries if e["side"] == side),
                                   None) for side in SIDES}}


def run_pairs(args, save, commits) -> list:
    """Run ``args.pairs`` alternating pairs; writes each result line to ``save``."""
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
            results[side] = run_once(checkouts[side], args.workload, args.seed,
                                     args.seconds, args.trace)
            if save is not None:
                save.write(json.dumps({"pair": i, "side": side, "first": side == order[0],
                                       "workload": args.workload, "seed": args.seed,
                                       "commit": commits[side],
                                       "result": results[side]}) + "\n")
                save.flush()
        pairs.append((results["parent"], results["change"]))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every result line here (JSON lines)")
    parser.add_argument("--load", help="summarise the result lines saved in this file")
    parser.add_argument("--bench", help="also write the summary into this JSON file")
    args = parser.parse_args(argv)

    if args.load:
        pairs = load_pairs(args.load)
        context = load_context(args.load)
        if args.bench and context["workload"] is None:
            parser.error(f"{args.load} names no workload, so --bench cannot file it")
    else:
        missing = [f"--{n}" for n in ("parent", "change", "workload", "seed")
                   if getattr(args, n) is None]
        if missing:
            parser.error(f"running pairs needs {', '.join(missing)}")
        context = {"workload": args.workload, "seed": args.seed,
                   "commits": {side: commit_of(getattr(args, side)) for side in SIDES}}
        if args.save:
            with open(args.save, "w", encoding="utf-8") as save:
                pairs = run_pairs(args, save, context["commits"])
        else:
            pairs = run_pairs(args, None, context["commits"])
    better, bounds = directions(), relative_bounds()
    print(report(pairs, better, bounds))
    if args.bench:
        write_bench(args.bench, context["workload"],
                    bench_entry(pairs, better, bounds, context["seed"], context["commits"]))
    worse = any(m.bound == "worse" for m in summarize(pairs, better, bounds))
    return 1 if worse or fails_more(pairs) else 0


if __name__ == "__main__":
    sys.exit(main())
