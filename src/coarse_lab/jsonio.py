"""JSON ingestion and emission.

Point ids arriving as JSON arrays (grid coordinates) are normalized to
tuples so they can key dicts; emission converts them back to lists.
Certificates are written by the stdlib encoder with sorted keys, so re-runs
are byte-identical.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import ValidationError
from .group import GroupModel, cyclic_group, free_group_ball, product_of_cyclic, z_ball
from .cover import ChainOfSubspaces, Cover
from .space import (FiniteMetricSpace, cycle, grid, space_from_graph,
                    space_from_matrix, z2_ball, z_interval)
from .witness import Witness, dirac_witness, uniform_ball_witness


def norm_id(v, null=False):
    """A JSON id of numbers and strings (and nulls if ``null``), lists as tuples."""
    if type(v) in (str, int, float) or (null and v is None):  # not bool
        return v
    if isinstance(v, list):
        return tuple([norm_id(x, null) for x in v])
    raise ValidationError("ids must be numbers, strings or lists of them, not %r" % (v,))


def parse_json(text, source="JSON text"):
    """The JSON document in ``text``, read from ``source``. Lists in this format
    hold no booleans, but numpy reads one in a matrix as 0 or 1, so a text
    with a ``true`` or ``false`` token has its lists checked entry by entry."""
    doc = json.loads(text)
    # one-letter scans run at memchr speed, and a matrix file's keys hold no u or l
    todo = [("", doc)] if ("u" in text and "true" in text) or \
        ("l" in text and "false" in text) else []
    for where, value in todo:  # breadth first: the list grows as it is walked
        if isinstance(value, dict):
            todo += [("%s.%s" % (where, k) if where else k, v) for k, v in value.items()]
        elif isinstance(value, list):
            for i, v in enumerate(value):
                if isinstance(v, bool):
                    raise ValidationError("%s: %s[%d] is %s; lists hold no booleans"
                                          % (source, where, i, json.dumps(v)))
                if isinstance(v, (dict, list)):
                    todo.append(("%s[%d]" % (where, i), v))
    return doc


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


_KINDS = {int: "an integer", float: "a number", list: "a JSON list"}


def _check(value, kind, what):
    """value, if it is of the kind (int, float for any number, or list);
    booleans are not numbers."""
    ok = {int: isinstance(value, int) and not isinstance(value, bool),
          float: _is_number(value), list: isinstance(value, list)}[kind]
    if not ok:
        raise ValidationError("%s must be %s, not %r" % (what, _KINDS[kind], value))
    return value


def _finite(values, what):
    """Reject NaN, the infinities and integers past the float range in ``values``."""
    if not all(abs(v) <= sys.float_info.max for v in values):
        raise ValidationError("%s must be finite, not NaN or infinite" % what)


def _need(obj, key, where, kind=None):
    if key not in _object(obj, where):
        raise ValidationError("%s is missing field %r" % (where, key))
    if kind is None:
        return obj[key]
    return _check(obj[key], kind, "%s field %r" % (where, key))


def _pair(value, rule):
    """The two ids of a two-element JSON list; ``rule`` says what it must be."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError("%s, not %r" % (rule, value))
    return norm_id(value[0]), norm_id(value[1])


def _keyed(items, what, known=None):
    """The (key, value) pairs as a dict. A key listed twice, or one not in
    ``known``, is an input error naming it: no entry silently replaces another."""
    out = {}
    for k, v in items:
        if k in out or (known is not None and k not in known):
            raise ValidationError("%s %r is %s"
                                  % (what, k, "listed twice" if k in out else "unknown"))
        out[k] = v
    return out


def load_space(obj) -> FiniteMetricSpace:
    metric = _need(obj, "metric", "space document")
    kind = _need(metric, "type", "space metric")
    if kind == "matrix":
        points = [norm_id(p) for p in _need(obj, "points", "space document", list)]
        return space_from_matrix(points, _need(metric, "d", "matrix metric"))
    if kind == "graph":
        points = [norm_id(p) for p in _need(obj, "points", "space document", list)]
        edges = [_pair(e, "graph edges must be [point, point] pairs")
                 for e in _need(metric, "edges", "graph metric", list)]
        return space_from_graph(points, edges)
    if kind == "z_interval":
        return z_interval(_need(metric, "lo", "z_interval", int),
                          _need(metric, "hi", "z_interval", int))
    if kind == "cycle":
        return cycle(_need(metric, "n", "cycle", int))
    if kind == "grid":
        return grid([_check(d, int, "grid dimension")
                     for d in _need(metric, "dims", "grid", list)],
                    norm=metric.get("norm", "l1"))
    if kind == "z2_ball":
        return z2_ball(_need(metric, "radius", "z2_ball", int), norm=metric.get("norm", "l1"))
    raise ValidationError("unknown space metric type %r" % (kind,))


def load_cover(obj, space: FiniteMetricSpace) -> Cover:
    pieces = [[norm_id(p) for p in _check(piece, list, "cover piece")]
              for piece in _need(obj, "pieces", "cover document", list)]
    coloring = obj.get("coloring")
    if coloring is not None:
        coloring = [_check(c, int, "cover color")
                    for c in _need(obj, "coloring", "cover document", list)]
    return Cover(space, pieces, coloring=coloring)


def load_witness(obj, space: FiniteMetricSpace) -> Witness:
    """A builtin spec ({"builtin": "dirac" | "uniform_ball", "radius": r})
    or explicit vectors, on ``space``."""
    if "builtin" in _object(obj, "witness document"):
        name = obj["builtin"]
        if name == "dirac":
            return dirac_witness(space)
        if name == "uniform_ball":
            radius = _need(obj, "radius", "uniform_ball witness", float)
            _finite([radius], "uniform_ball witness field 'radius'")
            return uniform_ball_witness(space, radius)
        raise ValidationError("unknown builtin witness %r" % (name,))

    def entry(e):
        c = _need(e, "c", "witness entry")
        if not _is_number(c):
            raise ValidationError("witness entry coefficient must be a number, not %r" % (c,))
        tag = norm_id(e["tag"], null=True) if "tag" in e else None
        return (tag, norm_id(_need(e, "at", "witness entry"))), float(c)

    def vector(row):
        x = norm_id(_need(row, "point", "witness vector"))
        return x, _keyed(map(entry, _need(row, "entries", "witness vector", list)),
                         "witness vector at %r: (tag, point) entry" % (x,))

    return Witness(space, _keyed(map(vector, _need(obj, "vectors", "witness document", list)),
                                 "witness document: point"))


def partition_to_json(partition) -> dict:
    ids = partition.space.point_ids
    piece, point = np.nonzero(partition.phi)
    return {"values": [{"piece": i, "point": _as_jsonable(ids[a]), "value": v}
                       for i, a, v in zip(piece.tolist(), point.tolist(),
                                          partition.phi[piece, point].tolist())]}


def load_group(obj) -> GroupModel:
    kind = _need(obj, "type", "group document")
    if kind == "cyclic":
        return cyclic_group(_need(obj, "n", "cyclic group", int))
    if kind == "product":
        return product_of_cyclic([_check(m, int, "product group factor")
                                  for m in _need(obj, "factors", "product group", list)])
    if kind == "ball":
        family = obj.get("group", "z")
        if family == "z":
            return z_ball(_need(obj, "radius", "group ball", int))
        if family == "free":
            return free_group_ball(_need(obj, "rank", "free group ball", int),
                                   _need(obj, "radius", "group ball", int))
        raise ValidationError("unknown ball family %r" % (family,))
    raise ValidationError("unknown group type %r" % (kind,))


def _int_points(space, what):
    if not all(isinstance(p, int) for p in space.point_ids):
        raise ValidationError("%s needs integer point ids" % (what,))


def _rule_maps(rule, group: GroupModel, space: FiniteMetricSpace, perturb=(0, 0, 1, 0)):
    """Translation-style action rules on integer-pointed spaces, as the (|G|, n)
    array of image point indices: cyclic_mod x -> (x + g + p) mod |X|,
    translation_clamp x -> x + g + p clamped to the stored interval, where
    p = (ga g + xa x) mod m - shift for perturb = (ga, xa, m, shift), computed
    on Python ints so that any JSON integer gives the exact image.
    """
    _int_points(space, "action rule %r" % (rule,))
    if not all(isinstance(g, int) for g in group.elements):
        raise ValidationError("action rule %r needs an integer group" % (rule,))
    pts = sorted(space.point_ids)
    lo, hi, n = pts[0], pts[-1], len(pts)
    if pts != list(range(lo, hi + 1)):
        raise ValidationError("action rule %r needs contiguous integer points" % (rule,))
    if rule == "cyclic_mod" and lo != 0:
        raise ValidationError("cyclic_mod needs points 0..n-1")
    if rule not in ("cyclic_mod", "translation_clamp"):
        raise ValidationError("unknown action rule %r" % (rule,))
    ga, xa, mod, shift = perturb
    g = np.array(group.elements, dtype=object)[:, None]
    x = np.array(space.point_ids, dtype=object)
    y = x + g + (ga * g + xa * x) % mod - shift
    y = y % n if rule == "cyclic_mod" else np.minimum(np.maximum(y, lo), hi)
    at = np.empty(n, dtype=np.int64)
    at[(x - lo).astype(np.int64)] = np.arange(n)
    return at[(y - lo).astype(np.int64)]


def load_action_maps(obj, group: GroupModel, space: FiniteMetricSpace):
    """The (|G|, n) array of image point indices; certification is separate."""
    kind = _need(obj, "type", "action document")
    if kind == "isometric_hom":
        return _rule_maps(_need(obj, "rule", "action document"), group, space)
    if kind == "perturbed":
        perturb = tuple(_need(obj, key, "perturbed action", int)
                        for key in ("ga", "xa", "mod", "shift"))
        if perturb[2] < 1:
            raise ValidationError("perturbation modulus must be >= 1")
        return _rule_maps(_need(obj, "base", "perturbed action"), group, space, perturb)
    if kind == "table":
        def row_map(row):
            g = norm_id(_need(row, "g", "table action row"))
            return g, _keyed((_pair(p, "table action map entries must be [point, image] pairs")
                              for p in _need(row, "map", "table action row", list)),
                             "map of %r: point" % (g,), space)

        maps = _keyed(map(row_map, _need(obj, "maps", "table action", list)),
                      "table action: group element", set(group.elements))
        for g in group.elements:
            if g not in maps:
                raise ValidationError("no map for group element %r" % (g,))
            for x in space.point_ids:
                if x not in maps[g]:
                    raise ValidationError("map of %r is not total, missing %r" % (g, x))
                if maps[g][x] not in space:
                    raise ValidationError("map of %r sends %r outside the space" % (g, x))
        return np.array([space.indices([maps[g][x] for x in space.point_ids])
                         for g in group.elements])
    raise ValidationError("unknown action type %r" % (kind,))


def load_chain(obj, ambient: FiniteMetricSpace) -> ChainOfSubspaces:
    kind = _need(obj, "type", "chain document")
    if kind == "z_intervals":
        _int_points(ambient, "z_intervals chain")
        radii = sorted(_check(r, int, "chain radius")
                       for r in _need(obj, "radii", "chain document", list))
        # stage k holds the points with |p| <= radii[k]: rank is the first such k
        return ChainOfSubspaces._of(ambient, np.searchsorted(radii, np.abs(ambient.point_ids)),
                                    len(radii))
    if kind == "explicit":
        return ChainOfSubspaces(ambient, [[norm_id(p) for p in _check(s, list, "chain stage")]
                                          for s in _need(obj, "stages", "chain document", list)])
    raise ValidationError("unknown chain type %r" % (kind,))


def load_map_assignment(obj, source: FiniteMetricSpace, target: FiniteMetricSpace):
    """The (n,) array of the target index of each source point's image."""
    kind = _need(obj, "type", "map document")
    if kind == "proj0":
        if not all(isinstance(p, tuple) and p for p in source.point_ids):
            raise ValidationError("proj0 needs tuple point ids")
        m = {p: p[0] for p in source.point_ids}
    elif kind == "pairs":
        m = _keyed((_pair(pair, "map pairs must be [point, image] pairs")
                    for pair in _need(obj, "pairs", "map document", list)),
                   "map pairs: source point", source)
        missing = [p for p in source.point_ids if p not in m]
        if missing:
            raise ValidationError("assignment is not total, missing %r" % (missing[0],))
    else:
        raise ValidationError("unknown map type %r" % (kind,))
    return np.array(target.indices([m[p] for p in source.point_ids]))


# ------------------------------------------------------- deterministic dump

def dumps_deterministic(obj) -> str:
    """``obj`` as JSON, keys sorted, floats shortest round-trip, NaN refused."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError("refusing to serialize NaN or an infinity: %s" % exc) from exc
