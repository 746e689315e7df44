"""The perfbench tracer leaves the package's classes as it found them."""

import importlib.util
import inspect
import os
import sys

import bimodalnet.cli  # noqa: F401  loads every bimodalnet module
from tests.conftest import ROOT


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _class_dicts():
    """vars() of every class bound in a loaded bimodalnet module, copied."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "bimodalnet" or mod_name.startswith("bimodalnet."):
            for value in vars(mod).values():
                if inspect.isclass(value):
                    found[value] = dict(vars(value))
    return found


def test_tracer_restores_every_class_dict():
    spans = _load_spans()
    before = _class_dicts()
    with spans.Tracer():
        pass
    after = _class_dicts()
    assert after.keys() == before.keys()
    for cls, names in before.items():
        assert after[cls].keys() == names.keys(), cls
        assert all(after[cls][k] is v for k, v in names.items()), cls
