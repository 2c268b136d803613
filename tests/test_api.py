"""The public surface: what ``coarse_lab`` exports, the traced layers the
benchmark's per-layer metrics name, no export that nothing reads, no
private module-level name that no module reads, no import that a module
never uses, no parameter that its function never reads, and no write to
another object's private attribute; no reference oracle in
``tests/oracles.py`` that no test or benchmark module reads; and no builder
handing its matrix to ``FiniteMetricSpace._of`` that the integral-fact test
does not build."""

import ast
import inspect
import json
import os
import types

import coarse_lab
from coarse_lab import cli
from test_space import OF_CALLERS

TESTS = os.path.dirname(__file__)
BENCHMARK = os.path.join(TESTS, os.pardir, "BENCHMARK.json")


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


def _module_trees():
    """(file name, AST) of every module of the package but ``__init__``."""
    src = os.path.dirname(coarse_lab.__file__)
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                yield fname, ast.parse(fh.read(), fname)


def test_every_exported_function_and_class_is_read():
    # an export that no module reads is dead API, unless the benchmark times it
    read = set()
    for _, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    with open(BENCHMARK) as fh:
        timed = {name.split(".")[1] for name in (m["name"] for m in json.load(fh)["per_layer"])
                 if name.count(".") == 2}
    dead = [name for name in coarse_lab.__all__
            if (inspect.isfunction(getattr(coarse_lab, name))
                or inspect.isclass(getattr(coarse_lab, name)))
            and name not in read and name not in timed]
    assert dead == []


def test_every_module_uses_its_imports():
    # __init__ imports to re-export; every other module imports only what it reads
    unused = []
    for fname, tree in _module_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += ["%s:%d %s" % (fname, node.lineno, alias.name) for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_no_module_writes_another_objects_private_attribute():
    # an object's private state is set by its own methods only, so a witness,
    # a space or a kernel cannot change after construction
    writes = []
    for fname, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            while targets:
                t = targets.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets += t.elts
                elif isinstance(t, ast.Starred):
                    targets.append(t.value)
                elif isinstance(t, ast.Attribute) and t.attr.startswith("_") and \
                        not (isinstance(t.value, ast.Name) and t.value.id in ("self", "cls")):
                    writes.append("%s:%d %s" % (fname, node.lineno, ast.unparse(t)))
    assert writes == []


def test_every_private_module_name_is_read():
    # a private helper, class or constant that no module reads is dead code,
    # even when a test still imports it
    trees = list(_module_trees())
    read = {node.id for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for fname, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += ["%s:%d %s" % (fname, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


def test_every_parameter_is_read():
    # a parameter that its function never reads is dead API; lambdas are left
    # out, since a predicate may ignore its argument
    unread = []
    for fname, tree in _module_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += ["%s:%d %s(%s)" % (fname, node.lineno, node.name, p.arg) for p in params
                       if p.arg not in ("self", "cls") and p.arg not in read]
    assert unread == []


def test_every_oracle_is_read():
    # a reference that nothing checks against is dead; a helper read by another
    # oracle counts as read
    read = set()
    for folder in (TESTS, os.path.join(TESTS, os.pardir, "bench")):
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py"):
                with open(os.path.join(folder, fname), encoding="utf-8") as fh:
                    for node in ast.walk(ast.parse(fh.read(), fname)):
                        if isinstance(node, ast.Name):
                            read.add(node.id)
                        elif isinstance(node, ast.Attribute):
                            read.add(node.attr)
                        elif isinstance(node, ast.alias):
                            read.add(node.name)
    with open(os.path.join(TESTS, "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    unread = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in read]
    assert unread == []


def test_every_of_caller_is_checked_for_its_integral_fact():
    # FiniteMetricSpace._of records every distance as an integer, so each
    # function that calls it must be one whose spaces test_space checks
    callers = {func.name for _, tree in _module_trees() for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "FiniteMetricSpace._of"}
    assert callers == set(OF_CALLERS)
