"""Spans around calls into coarse_lab's public functions, recorded from outside.

``Tracer.install`` replaces every public entry point of the layer modules with
a timing wrapper in every ``coarse_lab`` module namespace that holds it, since
``cli``, ``construct`` and ``group`` import names directly. ``remove`` puts the
originals back. Nothing inside ``src/`` is changed.

A span is ``{"id", "parent", "name", "scenario", "start", "end", "error"}``:
``name`` is ``<module>.<function>``, ``parent`` the id of the enclosing span
(or null), ``scenario`` the id of the scenario being run, ``start``/``end``
seconds on the tracer's clock and ``error`` the exception class that left the
call, or null. The tracer's clock stops while the benchmark computes counts
from call arguments, so counting adds to no span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("space", "cover", "partition", "witness", "construct", "group", "jsonio", "cli")

SPAN_FIELDS = ("id", "parent", "name", "scenario", "start", "end", "error")


def entry_points():
    """(module, name, function) for the package's public functions.

    The public functions are those exported by ``coarse_lab`` itself plus the
    public functions of ``coarse_lab.cli``; classes are left alone so that
    ``isinstance`` checks keep working.
    """
    import coarse_lab
    import coarse_lab.cli as cli

    found = {}
    candidates = [getattr(coarse_lab, n) for n in coarse_lab.__all__]
    candidates += [v for n, v in vars(cli).items()
                   if not n.startswith("_") and getattr(v, "__module__", None) == cli.__name__]
    for fn in candidates:
        if not inspect.isfunction(fn):
            continue
        module = fn.__module__.rpartition(".")[2]
        if fn.__module__.startswith("coarse_lab.") and module in LAYERS:
            found[(module, fn.__name__)] = fn
    return [(m, n, f) for (m, n), f in sorted(found.items())]


def _pairs_within(D, radii):
    """Unordered pairs of distinct points with d <= max radius + 1e-12."""
    radii = list(radii)
    if not radii:
        return 0
    n = D.shape[0]
    return (int(np.count_nonzero(D <= max(float(r) for r in radii) + 1e-12)) - n) // 2


def _swept(n):
    return n * (n - 1) // 2


def _count_variation(counts, witness, radii):
    n = len(witness.space)
    counts["witness.pairs_swept"] += _swept(n)
    counts["witness.pairs_useful"] += _pairs_within(witness.space.D, radii)
    counts["witness.nnz"] += sum(len(v) for v in witness.vectors.values())


def _count_partition_variation(counts, partition, radii):
    counts["partition.pairs_swept"] += _swept(len(partition.space))
    counts["partition.pairs_useful"] += _pairs_within(partition.space.D, radii)


def _count_glue(counts, glue_input, tail_radii=None):
    space = glue_input.partition.space
    member = np.zeros((len(glue_input.partition.cover.pieces), len(space)), dtype=np.int32)
    for i, piece in enumerate(glue_input.partition.cover.pieces):
        member[i, space.indices(piece)] = 1
    shared = member.T @ member
    counts["construct.glue_pairs"] += _swept(len(space))
    counts["construct.glue_pairs_shared"] += (int(np.count_nonzero(shared)) - len(space)) // 2


def _count_quasi_action(counts, group, space, maps, *args, **kwargs):
    counts["group.mult_entries"] += len(group.mult)
    counts["group.elements"] += len(group.elements)


def _count_matrix(counts, points, matrix, structure=None):
    counts["space.matrix_points"] += len(points)


def _count_graph(counts, points, edges, structure=None):
    counts["space.graph_edges"] += len(edges)


# counters run on the arguments before the call; result counters on the result
ARG_COUNTERS = {
    "witness.variation_profile": _count_variation,
    "partition.partition_variation_profile": _count_partition_variation,
    "construct.glue_with_report": _count_glue,
    "group.certify_quasi_action": _count_quasi_action,
    "space.space_from_matrix": _count_matrix,
    "space.space_from_graph": _count_graph,
}


def _count_cert_bytes(counts, text):
    counts["jsonio.cert_bytes"] += len(text.encode("utf-8"))


RESULT_COUNTERS = {"jsonio.dumps_deterministic": _count_cert_bytes}

COUNT_NAMES = ("witness.pairs_swept", "witness.pairs_useful", "witness.nnz",
               "partition.pairs_swept", "partition.pairs_useful",
               "construct.glue_pairs", "construct.glue_pairs_shared",
               "group.mult_entries", "group.elements", "space.matrix_points",
               "space.graph_edges", "jsonio.cert_bytes")


class Tracer:
    """Keeps spans and counts in memory; one tracer per traced run."""

    def __init__(self):
        self.spans = []          # lists in SPAN_FIELDS order
        self.counts = Counter()
        self.scenario = None
        self._stack = []
        self._paused = 0.0
        self._patched = []       # (module, attribute, original)

    def now(self):
        return time.perf_counter() - self._paused

    def _count(self, counter, *args, **kwargs):
        t = time.perf_counter()
        counter(self.counts, *args, **kwargs)
        self._paused += time.perf_counter() - t

    def _wrap(self, name, fn):
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_counter is not None:
                self._count(arg_counter, *args, **kwargs)
            rec = [len(spans), stack[-1] if stack else None, name, self.scenario,
                   self.now(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[5] = self.now()
                stack.pop()
            if result_counter is not None:
                self._count(result_counter, result)
            return result

        return traced

    def install(self):
        originals = {fn: "%s.%s" % (m, n) for m, n, fn in entry_points()}
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "coarse_lab" and not mod_name.startswith("coarse_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def reset_counts(self):
        self.counts = Counter()

    def span_dicts(self, first=0):
        return [dict(zip(SPAN_FIELDS, rec)) for rec in self.spans[first:]]


def self_times(spans):
    """Per span name: summed span time minus the time of its direct children."""
    child = Counter()
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = Counter()
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
    return out


def layer_summary(spans):
    """Per layer: self time, call count and errors leaving its entry points."""
    selfs = self_times(spans)
    out = {m: {"self_s": 0.0, "calls": 0, "errors": 0} for m in LAYERS}
    for name, t in selfs.items():
        out[name.split(".")[0]]["self_s"] += t
    for s in spans:
        layer = out[s["name"].split(".")[0]]
        layer["calls"] += 1
        layer["errors"] += s["error"] is not None
    return out, selfs
