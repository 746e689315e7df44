import contextlib
import gc
import importlib.util
import os
import sys
import warnings

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


@contextlib.contextmanager
def no_unclosed_files():
    """Fail when a file opened in the block is left for the collector to close.

    ResourceWarning is an error inside the block; an unclosed file raises it
    from its finaliser, where Python hands it to ``sys.unraisablehook``,
    which collects it here.
    """
    unraisable = []
    saved = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield
            gc.collect()
    finally:
        sys.unraisablehook = saved
    assert not unraisable, [str(u.exc_value) for u in unraisable]
