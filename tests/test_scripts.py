"""Smoke tests of the scripts under scripts/, which use the classifier API."""

import hashlib
import os
import re
import subprocess
import sys

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
