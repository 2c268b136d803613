"""JSON ingestion and emission.

Point ids arriving as JSON arrays (grid coordinates) are normalized to
tuples so they can key dicts; emission converts them back to lists. All
float output goes through a deterministic 17-significant-digit formatter so
re-runs are byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError
from .group import GroupModel, cyclic_group, free_group_ball, product_of_cyclic, z_ball
from .cover import Cover
from .space import (FiniteMetricSpace, cycle, grid, space_from_graph,
                    space_from_matrix, z2_ball, z_interval)
from .witness import Witness, dirac_witness, uniform_ball_witness


def norm_id(v):
    if isinstance(v, list):
        return tuple(norm_id(x) for x in v)
    return v


def _as_jsonable(v):
    if isinstance(v, tuple):
        return [_as_jsonable(x) for x in v]
    return v


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _object(value, what):
    if not isinstance(value, dict):
        raise ValidationError("%s must be a JSON object, not %s"
                              % (what, type(value).__name__))
    return value


def _need(obj, key, where):
    if key not in _object(obj, where):
        raise ValidationError("%s is missing field %r" % (where, key))
    return obj[key]


def load_space(obj) -> FiniteMetricSpace:
    metric = _need(obj, "metric", "space document")
    kind = _need(metric, "type", "space metric")
    if kind == "matrix":
        points = [norm_id(p) for p in _need(obj, "points", "space document")]
        return space_from_matrix(points, _need(metric, "d", "matrix metric"))
    if kind == "graph":
        points = [norm_id(p) for p in _need(obj, "points", "space document")]
        edges = [(norm_id(a), norm_id(b))
                 for a, b in _need(metric, "edges", "graph metric")]
        return space_from_graph(points, edges)
    if kind == "z_interval":
        return z_interval(_need(metric, "lo", "z_interval"), _need(metric, "hi", "z_interval"))
    if kind == "cycle":
        return cycle(_need(metric, "n", "cycle"))
    if kind == "grid":
        return grid(_need(metric, "dims", "grid"), norm=metric.get("norm", "l1"))
    if kind == "z2_ball":
        return z2_ball(_need(metric, "radius", "z2_ball"), norm=metric.get("norm", "l1"))
    raise ValidationError("unknown space metric type %r" % (kind,))


def load_cover(obj, space: FiniteMetricSpace) -> Cover:
    pieces = [[norm_id(p) for p in piece]
              for piece in _need(obj, "pieces", "cover document")]
    return Cover(space, pieces, coloring=obj.get("coloring"))


def load_witness(obj, space: FiniteMetricSpace) -> Witness:
    """A builtin spec ({"builtin": "dirac" | "uniform_ball", "radius": r})
    or explicit vectors, on ``space``."""
    if "builtin" in _object(obj, "witness document"):
        name = obj["builtin"]
        if name == "dirac":
            return dirac_witness(space)
        if name == "uniform_ball":
            return uniform_ball_witness(space, _need(obj, "radius", "uniform_ball witness"))
        raise ValidationError("unknown builtin witness %r" % (name,))
    vectors = {}
    for row in _need(obj, "vectors", "witness document"):
        x = norm_id(_need(row, "point", "witness vector"))
        vec = {}
        for e in _need(row, "entries", "witness vector"):
            c = _need(e, "c", "witness entry")
            if not _is_number(c):
                raise ValidationError("witness entry coefficient must be a number, not %r"
                                      % (c,))
            tag = norm_id(e["tag"]) if "tag" in e else None
            vec[(tag, norm_id(_need(e, "at", "witness entry")))] = float(c)
        vectors[x] = vec
    return Witness(space, vectors)


def witness_to_json(witness: Witness) -> dict:
    rows = []
    for x in witness.space.point_ids:
        entries = []
        for (tag, p), c in sorted(witness.vectors[x].items(),
                                  key=lambda kv: (witness.space.index(kv[0][1]),
                                                  repr(kv[0][0]))):
            e = {"at": _as_jsonable(p), "c": c}
            if tag is not None:
                e["tag"] = _as_jsonable(tag)
            entries.append(e)
        rows.append({"point": _as_jsonable(x), "entries": entries})
    return {"vectors": rows}


def partition_to_json(partition) -> dict:
    rows = []
    for i, vals in enumerate(partition.values):
        for x in partition.space.sorted_ids(vals):
            rows.append({"piece": i, "point": _as_jsonable(x), "value": vals[x]})
    return {"values": rows}


def load_group(obj) -> GroupModel:
    kind = _need(obj, "type", "group document")
    if kind == "cyclic":
        return cyclic_group(_need(obj, "n", "cyclic group"))
    if kind == "product":
        return product_of_cyclic(_need(obj, "factors", "product group"))
    if kind == "ball":
        family = obj.get("group", "z")
        if family == "z":
            return z_ball(_need(obj, "radius", "group ball"))
        if family == "free":
            return free_group_ball(_need(obj, "rank", "free group ball"),
                                   _need(obj, "radius", "group ball"))
        raise ValidationError("unknown ball family %r" % (family,))
    raise ValidationError("unknown group type %r" % (kind,))


def _int_points(space, what):
    if not all(isinstance(p, int) for p in space.point_ids):
        raise ValidationError("%s needs integer point ids" % (what,))


def _rule_maps(rule, group: GroupModel, space: FiniteMetricSpace, perturb=None):
    """Translation-style action rules on integer-pointed spaces.

    cyclic_mod: x -> (x + g + p) mod |X|; translation_clamp: x -> x + g + p
    clamped to the stored interval. p is the optional perturbation value.
    """
    _int_points(space, "action rule %r" % (rule,))
    if not all(isinstance(g, int) for g in group.elements):
        raise ValidationError("action rule %r needs an integer group" % (rule,))
    pts = sorted(space.point_ids)
    lo, hi = pts[0], pts[-1]
    n = len(pts)
    if pts != list(range(lo, hi + 1)):
        raise ValidationError("action rule %r needs contiguous integer points" % (rule,))
    if rule == "cyclic_mod" and lo != 0:
        raise ValidationError("cyclic_mod needs points 0..n-1")
    maps = {}
    for g in group.elements:
        m = {}
        for x in space.point_ids:
            p = perturb(g, x) if perturb is not None else 0
            if rule == "cyclic_mod":
                y = (x + g + p) % n
            elif rule == "translation_clamp":
                y = min(max(x + g + p, lo), hi)
            else:
                raise ValidationError("unknown action rule %r" % (rule,))
            m[x] = y
        maps[g] = m
    return maps


def load_action_maps(obj, group: GroupModel, space: FiniteMetricSpace):
    """Build the per-element self-maps; certification happens separately."""
    kind = _need(obj, "type", "action document")
    if kind == "isometric_hom":
        return _rule_maps(_need(obj, "rule", "action document"), group, space)
    if kind == "perturbed":
        ga = int(_need(obj, "ga", "perturbed action"))
        xa = int(_need(obj, "xa", "perturbed action"))
        mod = int(_need(obj, "mod", "perturbed action"))
        shift = int(_need(obj, "shift", "perturbed action"))
        if mod < 1:
            raise ValidationError("perturbation modulus must be >= 1")

        def perturb(g, x):
            return (ga * g + xa * x) % mod - shift

        return _rule_maps(_need(obj, "base", "perturbed action"), group, space, perturb)
    if kind == "table":
        maps = {}
        for row in _need(obj, "maps", "table action"):
            g = norm_id(_need(row, "g", "table action row"))
            maps[g] = {norm_id(a): norm_id(b)
                       for a, b in _need(row, "map", "table action row")}
        return maps
    raise ValidationError("unknown action type %r" % (kind,))


def load_chain_stages(obj, ambient: FiniteMetricSpace):
    kind = _need(obj, "type", "chain document")
    if kind == "z_intervals":
        _int_points(ambient, "z_intervals chain")
        radii = sorted(int(r) for r in _need(obj, "radii", "chain document"))
        return [frozenset(p for p in ambient.point_ids if abs(p) <= r) for r in radii]
    if kind == "explicit":
        return [frozenset(norm_id(p) for p in stage)
                for stage in _need(obj, "stages", "chain document")]
    raise ValidationError("unknown chain type %r" % (kind,))


def load_map_assignment(obj, source: FiniteMetricSpace, target: FiniteMetricSpace):
    kind = _need(obj, "type", "map document")
    if kind == "proj0":
        out = {}
        for p in source.point_ids:
            if not (isinstance(p, tuple) and p):
                raise ValidationError("proj0 needs tuple point ids")
            out[p] = p[0]
        return out
    if kind == "pairs":
        return {norm_id(a): norm_id(b) for a, b in _need(obj, "pairs", "map document")}
    raise ValidationError("unknown map type %r" % (kind,))


# ------------------------------------------------------- deterministic dump

def _fmt_float(v: float) -> str:
    if math.isnan(v):
        raise ValidationError("refusing to serialize NaN")
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    if v == int(v) and abs(v) < 1e16:
        return "%.1f" % v
    return "%.17g" % v


def dumps_deterministic(obj) -> str:
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if not isinstance(k, str):
                raise ValidationError("JSON object keys must be strings, got %r" % (k,))
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(obj[k], out)
        out.append("}")
    elif isinstance(obj, np.integer):
        out.append(str(int(obj)))
    elif isinstance(obj, np.floating):
        out.append(_fmt_float(float(obj)))
    else:
        raise ValidationError("cannot serialize %r" % (type(obj),))
