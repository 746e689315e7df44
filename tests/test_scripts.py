"""Smoke tests of the scripts under scripts/, which use the classifier API."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from bimodalnet.bilinear import LabelTree
from bimodalnet.data import save_model
from tests.conftest import ROOT, SCRIPTS, load_script
from tests.test_data import _model_zoo


def test_fd_sweep_runs_and_converges():
    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    child = subprocess.run([sys.executable, os.path.join(SCRIPTS, "fd_sweep.py")],
                           env=env, stdout=subprocess.PIPE, text=True, timeout=300)
    assert child.returncode == 0
    rows = dict(line.split()[:2] for line in child.stdout.splitlines()[1:])
    assert float(rows["1e-05"]) < 1e-5


def test_run_benchmark_imports():
    assert callable(load_script("run_benchmark").main)


def test_digest_quick_mode(tmp_path):
    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    script = os.path.join(SCRIPTS, "digest.py")
    workdir = tmp_path / "work"
    child = subprocess.run([sys.executable, script, "--quick", "--workdir", str(workdir)],
                           env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    lines = [line.split(" ") for line in child.stdout.splitlines()]
    assert all(len(parts) == 2 and re.fullmatch("[0-9a-f]{64}", parts[1]) for parts in lines)
    digests = dict(lines)
    assert len(digests) == len(lines)
    assert {"cli/ensemble", "cli/train/factored-shared/log", "cli/eval/fused-warm",
            "zoo/factored-shared/grad/head.w", "zoo/unimodal/loglik"} <= set(digests)
    for split in ("train", "test"):
        data = (workdir / f"{split}.data").read_bytes()
        assert digests[f"cli/synth/{split}"] == hashlib.sha256(data).hexdigest()
    # the script's zoo is the test suite's
    for tag, model in _model_zoo(LabelTree.balanced(4, 2)):
        save_model(model, tmp_path / "zoo.model")
        saved = hashlib.sha256((tmp_path / "zoo.model").read_bytes()).hexdigest()
        assert digests[f"zoo/{tag}/saved"] == saved, tag
    again = subprocess.run([sys.executable, script, "--resave", str(workdir)], env=env,
                           stdout=subprocess.PIPE, text=True, timeout=300)
    assert again.returncode == 0
    assert len(again.stdout.splitlines()) == 13  # six zoo models, seven trained
    assert all(line.endswith(" same") for line in again.stdout.splitlines())


def test_digest_check_against_a_saved_file(tmp_path):
    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    script = os.path.join(SCRIPTS, "digest.py")

    def run(*args):
        return subprocess.run([sys.executable, script, "--quick", *args], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=300)

    saved = tmp_path / "quick.txt"
    printed = run("--save", str(saved))
    assert printed.returncode == 0
    platform, *lines = saved.read_text().splitlines()
    assert platform.startswith("platform numpy ")
    assert lines == printed.stdout.splitlines()
    same = run("--check", str(saved))
    assert same.returncode == 0
    assert same.stdout.splitlines() == [f"0 of {len(lines)} digests moved"]
    item = lines[5].split(" ")[0]
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join([platform, *lines[:5], f"{item} {'0' * 64}", *lines[6:]]))
    moved = run("--check", str(tampered))
    assert moved.returncode == 1
    assert moved.stdout.splitlines() == [f"moved {item}", f"1 of {len(lines)} digests moved"]
    foreign = tmp_path / "foreign.txt"
    foreign.write_text("\n".join(["platform numpy 1.0; other-blas 1; another CPU", *lines]))
    elsewhere = run("--check", str(foreign))
    assert elsewhere.returncode == 2
    assert elsewhere.stdout == ""


def test_committed_digest_baseline_lists_the_full_mode_items():
    with open(os.path.join(SCRIPTS, "digest_baseline.txt")) as fh:
        platform, *lines = fh.read().splitlines()
    assert platform.startswith("platform numpy ")
    saved = dict(line.split(" ") for line in lines)
    assert len(saved) == len(lines) == 111
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in saved.values())
    assert {"paper/posterior/paper", "cli/ensemble/paper", "zoo/full/saved"} <= set(saved)


def test_full_mode_digests_are_the_ones_saved_before_lanes():
    # the saved file's digests predate modality lanes, so this compares the
    # code's bits with the one-lane code lanes replaced. They were saved with
    # BLAS on one thread; run here on two, they still may not move, since the
    # library's arithmetic runs on one whatever the environment says. Exit 2:
    # another platform
    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
               OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    child = subprocess.run([sys.executable, os.path.join(SCRIPTS, "digest.py"), "--check",
                            os.path.join(SCRIPTS, "digest_baseline.txt")],
                           env=env, stdout=subprocess.PIPE, text=True, timeout=600)
    if child.returncode == 2:
        pytest.skip("the digests were saved on another platform")
    assert child.returncode == 0, child.stdout
    assert child.stdout.splitlines()[-1] == "0 of 111 digests moved"


def test_rss_cycle_one_pass_of_train_small():
    for traced in (False, True):
        child = subprocess.run([sys.executable, os.path.join(SCRIPTS, "rss_cycle.py"),
                                "--workload", "train-small", "--passes", "1"]
                               + ["--traced"] * traced,
                               stdout=subprocess.PIPE, text=True, timeout=300, check=True)
        rows = [json.loads(line) for line in child.stdout.splitlines()]
        assert [r["kind"] for r in rows] == ["train"] + ["eval", "ensemble"] * 8
        assert all(r["pass"] == 0 and r["exit_code"] == 0 and r["seconds"] > 0 for r in rows)
        assert all(isinstance(r["minor_faults"], int) and r["minor_faults"] >= 0 for r in rows)
        peaks = [r["maxrss_mb"] for r in rows]
        assert peaks[0] > 0 and peaks == sorted(peaks)
        # the resident set after a command is at most the peak so far (the
        # two are rounded apart, to 0.1 MiB)
        assert all(0 < r["rss_mb"] <= r["maxrss_mb"] + 0.1 for r in rows)
        # with --traced, the bytes a command allocated are part of the peak
        assert all(("traced_peak_mb" in r) == traced for r in rows)
        if traced:
            assert all(0 < r["traced_peak_mb"] <= r["maxrss_mb"] for r in rows)


def _result(values, failed=0, attempted=20):
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def test_ab_pairs_summary_of_canned_results():
    ab = load_script("ab_pairs")
    better = {"eval": "higher", "noisy": "higher", "rss": "lower", "train": "higher",
              "wall": "lower"}
    bounds = {"eval": 0.25, "noisy": 0.25, "rss": 0.1, "wall": 0.1}  # train has none
    pairs = []
    for i in range(10):
        # train: the change wins 8 pairs by a wide margin and loses 2
        train = 150.0 + i if i < 8 else 90.0
        # noisy: the parent's runs alternate 140 and 60, a spread of 80% of its median
        noisy = 60.0 if i % 2 else 140.0
        pairs.append((_result({"eval": 100.0 + i, "noisy": noisy, "rss": 50.0,
                               "train": 100.0 + i, "wall": 10.0}),
                      _result({"eval": 150.0 + i, "noisy": 100.0 + i, "rss": 50.0,
                               "train": train, "wall": 12.0},
                              failed=1 if i == 3 else 0)))
    rows = {m.name: m for m in ab.summarize(pairs, better, bounds)}
    ev = rows["eval"]
    assert ev.parent == (104.5, 102.25, 106.75)
    assert ev.change == (154.5, 152.25, 156.75)
    assert (ev.wins, ev.pairs, ev.parent_spread) == (10, 10, 4.5)
    # the change fails 1 of 200 operations against none: no metric is a gain
    assert not ev.gain and ev.ratio == 154.5 / 104.5
    assert rows["rss"].wins == 0 and not rows["rss"].gain  # ties count for neither side
    assert rows["train"].wins == 8 and not rows["train"].gain
    assert ab.failures([c for _, c in pairs]) == (1, 200, 1)
    # the change's median is 20% worse than the parent's, past the 10% bound
    assert rows["wall"].bound == "worse"
    # the parent's spread exceeds the bound, and some parent runs beat change runs
    assert rows["noisy"].bound == "unresolved"
    assert rows["eval"].bound == rows["rss"].bound == "within"
    assert rows["train"].bound is None
    # a wide parent spread resolves when every change run beats every parent run
    assert ab.bound_check([60.0, 140.0] * 5, [141.0] * 10, "higher", 0.25) == "within"
    assert ab.relative_bounds()["peak_rss_mb"] == 0.1  # end-to-end bounds of BENCHMARK.json
    text = ab.report(pairs, better, bounds)
    lines = {line.split(" | ")[0]: line for line in text.splitlines()}
    assert lines["eval"] == ("eval | u | 104.5 [102.25, 106.75] | 154.5 [152.25, 156.75] | "
                             "1.478 | 10/10 | 4.5 | no | within")
    assert lines["wall"].endswith(" | 1.200 | 0/10 | 0 | no | worse")
    assert lines["noisy"].endswith(" | no | unresolved")
    assert lines["train"].endswith(" | no | -")
    assert text.splitlines()[-1] == ("change: 1 of 200 operations failed; 1 runs not correct; "
                                     "a larger share than the parent's, so no metric is a gain")
    # with an equal failure share the wins stand
    pairs[5] = (_result({"eval": 105.0, "rss": 50.0, "train": 105.0}, failed=1), pairs[5][1])
    assert ab.summarize(pairs, better)[0].gain
    text = ab.report(pairs, better)
    assert ("eval | u | 104.5 [102.25, 106.75] | 154.5 [152.25, 156.75] | 1.478 | 10/10 | 4.5 | "
            "yes | -") in text.splitlines()  # no bounds given
    assert text.splitlines()[-2:] == ["parent: 1 of 200 operations failed; 1 runs not correct",
                                      "change: 1 of 200 operations failed; 1 runs not correct"]


def test_ab_pairs_exit_status_of_saved_runs(tmp_path, capsys):
    ab = load_script("ab_pairs")

    def main(change_train, parent_train=lambda i: 100.0 + i, failed=0):
        """ab_pairs' exit status over 10 saved pairs, and the train row it prints."""
        saved = tmp_path / "runs.jsonl"
        with open(saved, "w", encoding="utf-8") as fh:
            for i in range(10):
                for side, train in (("parent", parent_train(i)), ("change", change_train(i))):
                    result = _result({"train_samples_per_s": train, "peak_rss_mb": 50.0},
                                     failed=failed if side == "change" else 0)
                    fh.write(json.dumps({"pair": i, "side": side, "first": side == "parent",
                                         "result": result}) + "\n")
        status = ab.main(["--load", str(saved)])
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("train_samples_per_s |"))
        return status, row.rsplit(" | ", 1)[1]

    assert main(lambda i: 101.0 + i) == (0, "within")
    assert main(lambda i: 60.0 + i) == (1, "worse")  # 40% below, past the 25% bound
    # the parent's runs alternate 140 and 60: too wide to tell, which is not a failure
    assert main(lambda i: 100.0, lambda i: 60.0 if i % 2 else 140.0) == (0, "unresolved")
    # every row within, but the change fails 1 of its 200 operations against none
    assert main(lambda i: 101.0 + i, failed=1) == (1, "within")


def test_ab_pairs_loads_saved_runs_and_directions(tmp_path):
    ab = load_script("ab_pairs")
    saved = tmp_path / "runs.jsonl"
    entries = [{"pair": 0, "side": "change", "first": True, "result": _result({"x": 2.0})},
               {"pair": 0, "side": "parent", "first": False, "result": _result({"x": 1.0})},
               {"pair": 1, "side": "parent", "first": True, "result": _result({"x": 1.0})}]
    saved.write_text("".join(json.dumps(e) + "\n" for e in entries))
    assert ab.load_pairs(str(saved)) == [(_result({"x": 1.0}), _result({"x": 2.0}))]
    better = ab.directions()
    assert better["eval_samples_per_s"] == "higher" and better["cli.self_ms"] == "lower"


def test_ab_pairs_bench_file_of_saved_runs(tmp_path, capsys):
    ab = load_script("ab_pairs")
    commits = {"parent": {"commit": "a" * 40, "dirty": False},
               "change": {"commit": "a" * 40, "dirty": True}}

    def save(path, workload, rss):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(10):
                order = ("change", "parent") if i % 2 else ("parent", "change")
                for side in order:
                    values = {"peak_rss_mb": rss(i) if side == "change" else 86.0 + i / 10,
                              "train_samples_per_s": 100.0 + i}
                    fh.write(json.dumps({
                        "pair": i, "side": side, "first": side == order[0],
                        "workload": workload, "seed": 41, "commit": commits[side],
                        "result": _result(values, failed=int(side == "change" and i == 0),
                                          attempted=30)}) + "\n")

    bench = tmp_path / "BENCH.json"
    save(tmp_path / "paper.jsonl", "train-paper", lambda i: 82.5 + i / 10 if i else 87.0)
    assert ab.main(["--load", str(tmp_path / "paper.jsonl"), "--bench", str(bench)]) == 1
    save(tmp_path / "small.jsonl", "train-small", lambda i: 86.0 + i / 10)
    assert ab.main(["--load", str(tmp_path / "small.jsonl"), "--bench", str(bench)]) == 1
    printed = capsys.readouterr().out
    written = json.loads(bench.read_text())["workloads"]
    assert sorted(written) == ["train-paper", "train-small"]  # the first run is kept
    paper = written["train-paper"]
    assert (paper["seed"], paper["pairs"], paper["commits"]) == (41, 10, commits)
    assert paper["operations"] == {
        "parent": {"failed": 0, "attempted": 300, "runs_not_correct": 0},
        "change": {"failed": 1, "attempted": 300, "runs_not_correct": 1}}
    assert paper["fails_more"]
    rss = paper["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 86.45, "q1": pytest.approx(86.225),
                             "q3": pytest.approx(86.675)}
    assert rss["change"]["median"] == pytest.approx(83.05)
    assert (rss["better"], rss["wins"], rss["pairs"], rss["bound"]) == ("lower", 9, 10,
                                                                       "within")
    assert not rss["gain"]  # 9/10 wins, but the change fails a larger share
    assert "peak_rss_mb | u | 86.45 [86.225, 86.675] | 83.05 [" in printed
    small = written["train-small"]["metrics"]
    assert small["peak_rss_mb"]["wins"] == 0 and small["peak_rss_mb"]["bound"] == "within"
    train = small["train_samples_per_s"]
    assert (train["wins"], train["gain"], train["bound"]) == (0, False, "within")
    assert ab.commit_of(str(tmp_path)) == {"commit": None, "dirty": None}


def test_ab_pairs_bench_needs_a_workload(tmp_path, capsys):
    ab = load_script("ab_pairs")
    saved = tmp_path / "runs.jsonl"
    saved.write_text("".join(
        json.dumps({"pair": 0, "side": side, "first": side == "parent",
                    "result": _result({"x": 1.0})}) + "\n" for side in ("parent", "change")))
    with pytest.raises(SystemExit):
        ab.main(["--load", str(saved), "--bench", str(tmp_path / "BENCH.json")])
    assert "names no workload" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()
