"""The public surface: what ``coarse_lab`` exports, and the traced layers the
benchmark's per-layer metrics name."""

import inspect
import json
import os
import types

import coarse_lab
from coarse_lab import cli

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def test_every_export_is_bound_and_not_a_module():
    for name in coarse_lab.__all__:
        assert hasattr(coarse_lab, name), name
        assert not isinstance(getattr(coarse_lab, name), types.ModuleType), name


def test_traced_functions_are_exported():
    # the tracer finds its spans through __all__ and the public functions of
    # cli, so an export list that drops one of these loses a traced layer
    exported = {(f.__module__, f.__name__)
                for f in (getattr(coarse_lab, n) for n in coarse_lab.__all__)
                if inspect.isfunction(f)}
    exported |= {(f.__module__, f.__name__) for n, f in vars(cli).items()
                 if not n.startswith("_") and inspect.isfunction(f)
                 and f.__module__ == cli.__name__}
    with open(BENCHMARK) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    traced = [name.split(".")[:2] for name in names
              if name.endswith(".self_s") and name.count(".") == 2]
    assert traced
    for layer, function in traced:
        assert ("coarse_lab." + layer, function) in exported, (layer, function)
