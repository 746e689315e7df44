"""Smoke tests of the scripts under scripts/, which use the classifier API."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def test_fd_sweep_runs_and_converges():
    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    child = subprocess.run([sys.executable, os.path.join(SCRIPTS, "fd_sweep.py")],
                           env=env, stdout=subprocess.PIPE, text=True, timeout=300)
    assert child.returncode == 0
    rows = dict(line.split()[:2] for line in child.stdout.splitlines()[1:])
    assert float(rows["1e-05"]) < 1e-5


def test_run_benchmark_imports():
    spec = importlib.util.spec_from_file_location(
        "run_benchmark", os.path.join(SCRIPTS, "run_benchmark.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
