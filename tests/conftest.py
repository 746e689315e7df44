import contextlib
import ctypes
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


@pytest.fixture
def one_lane(monkeypatch):
    """Lanes stay closed in the test, as on one CPU: a read runs its blocks
    one at a time, so its traced peak does not depend on when two threads
    reach theirs."""
    from bimodalnet import linalg
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def two_lanes(monkeypatch):
    """Lanes open in the test wherever the work is worth it, as on two CPUs,
    whatever the machine has. The list returned names each job handed to
    the lane worker (the second of ``linalg.both``), in order. Skipped where
    OpenBLAS's thread count cannot be set, as lanes then stay closed."""
    from bimodalnet import linalg
    if linalg._openblas("openblas_set_num_threads", None, (ctypes.c_int,)) is None:
        pytest.skip("lanes stay closed without an OpenBLAS handle")
    real = linalg.both
    handed = []

    def both(first, first_args, second, second_args):
        handed.append(second.__name__)
        return real(first, first_args, second, second_args)

    monkeypatch.setattr(linalg, "both", both)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1})
    return handed


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
