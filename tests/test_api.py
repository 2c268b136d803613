"""The public surface: what ``coarse_lab`` exports, the traced layers the
benchmark's per-layer metrics name, and no import that a module never uses."""

import ast
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


def test_every_module_uses_its_imports():
    # __init__ imports to re-export; every other module imports only what it reads
    src = os.path.dirname(coarse_lab.__file__)
    unused = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += ["%s:%d %s" % (fname, node.lineno, alias.name) for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
