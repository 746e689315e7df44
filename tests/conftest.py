import importlib.util
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def finite_difference(objective, arrays, h=1e-5):
    """Central finite differences of a scalar objective over named arrays.

    Independent of the library's own gradient code: only perturbs entries in
    place and re-runs the forward objective.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            e_plus = objective()
            arr[idx] = orig - h
            e_minus = objective()
            arr[idx] = orig
            g[idx] = (e_plus - e_minus) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in numeric:
        a = np.asarray(analytic[name])
        f = np.asarray(numeric[name])
        rel = np.abs(a - f) / np.maximum(1.0, np.abs(f))
        worst = max(worst, float(rel.max()))
    return worst


def load_script(name):
    """Import ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
