"""JSON ingestion and emission.

Every input document is read against its row of one table, ``_FIELDS``: the
keys it may hold, which of them are optional, and the JSON kind of each.
Point ids arriving as JSON arrays (grid coordinates) are normalized to
tuples so they can key dicts; emission converts them back to lists.
Certificates are written by the stdlib encoder with sorted keys, so re-runs
are byte-identical.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple

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


# What a value of each kind must be, and the test of one (None where _value
# tests it): "number" is finite, "doc" an inline document or its file path.
_KINDS_OF = {
    "int": ("an integer", lambda v: type(v) is int),
    "number": ("a finite number", None),
    "id": ("an id (a number, a string or a list of them)", None),
    "tag": ("an id or null", None),
    "bool": ("true or false", lambda v: type(v) is bool),
    "list": ("a JSON list", lambda v: isinstance(v, list)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "doc": ("a JSON object or a file path", lambda v: isinstance(v, (dict, str))),
    # a scenario name, as a file name stem inside the output directory
    "name": ("a plain file name", lambda v: str(v) not in ("", ".", "..")
             and not any(c in str(v) for c in "/\\\0")),
    "any": ("anything", lambda v: True),
}


def _value(kind, v):
    """``v`` read as a value of ``kind``, ids as tuples, or a ValueError saying what
    it must be; "[kind]" is a list of that kind."""
    if kind == "number":  # v - v is 0.0 for a finite float only
        if type(v) is float and v - v == 0.0 or type(v) is int and abs(v) <= sys.float_info.max:
            return v
    elif kind == "id" or kind == "tag":
        if type(v) in (str, int, float):  # most ids, without a call
            return v
        try:
            return norm_id(v, null=kind == "tag")
        except ValidationError:
            pass
    elif kind[0] == "[":
        if isinstance(v, list):
            item, out = kind[1:-1], []
            try:
                for x in v:
                    out.append(_value(item, x))
            except ValueError as exc:  # name the item
                raise ValueError("[%d]%s" % (len(out), exc)) from None
            return out
        kind = "list"
    elif _KINDS_OF[kind][1](v):
        return v
    raise ValueError(" must be %s, not %r" % (_KINDS_OF[kind][0], v))


_Family = namedtuple("_Family", "field called noun absent")

# Every input document's row: its fields as key:kind, "?" marking an optional
# one, with the kinds of _KINDS_OF and "[kind]" for a list of that kind; "+row"
# adds the fields of that row. A row paired with a builder is built by calling
# it with the fields. A family's document is read by the row its field names:
# "<value> <noun>", or ``absent`` without the field; an unknown value is an
# unknown ``called``.
_FIELDS = {
    "scenario": "?name:name pipeline:any ?inputs:object ?parameters:object",
    # each pipeline's inputs and parameters; "profile" is what the witness profiles read
    "profile": "?R:number ?S0:number ?epsilon:number ?delta:number ?radii:[number] "
               "?tail_radii:[number]",
    "verify-cover inputs": "space:doc cover:doc",
    "verify-cover parameters": "?L:number",
    "bell inputs": "space:doc cover:doc",
    "bell parameters": "?require_lebesgue:bool ?radii:[number]",
    "glue inputs": "space:doc cover:doc ?pieces:doc",
    "glue parameters": "+profile ?require_lebesgue:bool",
    "subspace inputs": "space:doc witness:doc",
    "subspace parameters": "+profile subspace:[id]",
    "net inputs": "space:doc witness:doc",
    "net parameters": "+profile net:[id] ?c:number",
    "direct-limit inputs": "space:doc chain:doc",
    "direct-limit parameters": "+profile L:number",
    "fibering inputs": "space:doc target_space:doc map:doc cover:doc ?pieces:doc",
    "fibering parameters": "+profile ?require_lebesgue:bool",
    "separated inputs": "space:doc cover:doc ?pieces:doc",
    "separated parameters": "+profile L:number sigma:number R:number epsilon:number",
    "group-pipeline inputs": "group:doc space:doc action:doc cover:doc ?provider:doc",
    "group-pipeline parameters": "+profile x0:id R:number ?A_ceiling:number ?B_ceiling:number",
    # a space document lists its points with a matrix or a graph metric only
    "space document": "metric:object ?points:[id]",
    "space metric": _Family("type", "space metric type", "metric", None),
    "matrix metric": "d:list",
    "graph metric": "edges:list",
    "z_interval metric": (z_interval, "lo:int hi:int"),
    "cycle metric": (cycle, "n:int"),
    "grid metric": (grid, "dims:[int] ?norm:any"),
    "z2_ball metric": (z2_ball, "radius:int ?norm:any"),
    "cover document": "pieces:[[id]] ?coloring:[int]",
    "chain document": _Family("type", "chain type", "chain", None),
    "z_intervals chain": "radii:[int]",
    "explicit chain": "stages:[[id]]",
    "group document": _Family("type", "group type", "group", None),
    "cyclic group": (cyclic_group, "n:int"),
    "product group": (product_of_cyclic, "factors:[int]"),
    "ball group": _Family("group", "ball family", "group ball", "z group ball"),
    "z group ball": (z_ball, "radius:int"),
    "free group ball": (free_group_ball, "rank:int radius:int"),
    "action document": _Family("type", "action type", "action", None),
    "isometric_hom action": "rule:any",
    "perturbed action": "base:any ga:int xa:int mod:int shift:int",
    "table action": "maps:list",
    "table action row": "g:id map:list",
    "map document": _Family("type", "map type", "map", None),
    "proj0 map": "",
    "pairs map": "pairs:list",
    "witness": _Family("builtin", "builtin witness", "witness", "witness document"),
    "dirac witness": (dirac_witness, ""),
    "uniform_ball witness": (uniform_ball_witness, "radius:number"),
    "witness document": "vectors:list",
    "witness vector": "point:id entries:list",
    "witness entry": "at:id c:number ?tag:tag",
    "pieces list": "list:list",   # one explicit witness document per cover piece
}


def _row(spec):
    """(builder or None, {key: kind}, required keys) of a row of _FIELDS."""
    build, spec = spec if isinstance(spec, tuple) else (None, spec)
    fields, required = {}, []
    for token in spec.split():
        if token[0] == "+":  # that row's fields, which the tokens after it may redeclare
            fields.update(_row(_FIELDS[token[1:]])[1])
            continue
        key, kind = token.lstrip("?").split(":")
        fields[key] = kind
        if token[0] != "?":
            required.append(key)
    return build, fields, tuple(required)


_FAMILIES = {what: spec for what, spec in _FIELDS.items() if isinstance(spec, _Family)}
_ROWS = {what: _row(spec) for what, spec in _FIELDS.items() if what not in _FAMILIES}


def _read(doc, what):
    """The row read and the fields of ``doc``, a ``what`` document, by key, each
    value read by its kind. A missing key, an unknown key or a value of another
    kind is an input error naming the document and the key."""
    if not isinstance(doc, dict):
        raise ValidationError("%s must be a JSON object, not %s" % (what, type(doc).__name__))
    picked = ()
    while what in _FAMILIES:
        key, called, noun, absent = _FAMILIES[what]
        row = "%s %s" % (doc[key], noun) if key in doc else absent
        if row is None:
            raise ValidationError("%s is missing field %r" % (what, key))
        if row == what or row not in _ROWS and row not in _FAMILIES:
            raise ValidationError("unknown %s %r" % (called, doc[key]))
        picked += (key,)
        what = row
    _, fields, required = _ROWS[what]
    for key in required:
        if key not in doc:
            raise ValidationError("%s is missing field %r" % (what, key))
    out = {}
    for key, value in doc.items():
        kind = fields.get(key)
        if kind is not None:
            try:
                out[key] = _value(kind, value)
            except ValueError as exc:
                raise ValidationError("%s field %r%s" % (what, key, exc)) from None
        elif key not in picked:
            raise ValidationError("%s has unknown field %r; it reads %s"
                                  % (what, key, ", ".join(picked + tuple(fields))))
    return what, out


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
    doc = _read(obj, "space document")[1]
    row, metric = _read(doc["metric"], "space metric")
    build = _ROWS[row][0]
    if build is not None:
        if "points" in doc:
            raise ValidationError("space document with a %s has unknown field 'points'" % row)
        return build(**metric)
    if "points" not in doc:
        raise ValidationError("space document is missing field 'points'")
    if row == "matrix metric":
        return space_from_matrix(doc["points"], metric["d"])
    edges = [_pair(e, "graph edges must be [point, point] pairs") for e in metric["edges"]]
    return space_from_graph(doc["points"], edges)


def load_cover(obj, space: FiniteMetricSpace) -> Cover:
    return Cover(space, **_read(obj, "cover document")[1])


def load_witness(obj, space: FiniteMetricSpace) -> Witness:
    """A builtin spec ({"builtin": "dirac" | "uniform_ball", "radius": r})
    or explicit vectors, on ``space``."""
    row, fields = _read(obj, "witness")
    build = _ROWS[row][0]
    if build is not None:
        return build(space, **fields)

    def entry(e):
        f = _read(e, "witness entry")[1]
        return (f.get("tag"), f["at"]), float(f["c"])

    def vector(doc):
        f = _read(doc, "witness vector")[1]
        x = f["point"]
        return x, _keyed(map(entry, f["entries"]),
                         "witness vector at %r: (tag, point) entry" % (x,))

    return Witness(space, _keyed(map(vector, fields["vectors"]), "witness document: point"))


def partition_to_json(partition) -> dict:
    ids = partition.space.point_ids
    piece, point = np.nonzero(partition.phi)
    return {"values": [{"piece": i, "point": _as_jsonable(ids[a]), "value": v}
                       for i, a, v in zip(piece.tolist(), point.tolist(),
                                          partition.phi[piece, point].tolist())]}


def load_group(obj) -> GroupModel:
    row, fields = _read(obj, "group document")
    return _ROWS[row][0](**fields)


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
    row, fields = _read(obj, "action document")
    if row == "isometric_hom action":
        return _rule_maps(fields["rule"], group, space)
    if row == "perturbed action":
        perturb = tuple(fields[key] for key in ("ga", "xa", "mod", "shift"))
        if perturb[2] < 1:
            raise ValidationError("perturbation modulus must be >= 1")
        return _rule_maps(fields["base"], group, space, perturb)

    def row_map(doc):
        f = _read(doc, "table action row")[1]
        g = f["g"]
        return g, _keyed((_pair(p, "table action map entries must be [point, image] pairs")
                          for p in f["map"]), "map of %r: point" % (g,), space)

    maps = _keyed(map(row_map, fields["maps"]), "table action: group element",
                  set(group.elements))
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


def load_chain(obj, ambient: FiniteMetricSpace) -> ChainOfSubspaces:
    row, fields = _read(obj, "chain document")
    if row == "z_intervals chain":
        _int_points(ambient, "z_intervals chain")
        radii = sorted(fields["radii"])
        # stage k holds the points with |p| <= radii[k]: rank is the first such k
        return ChainOfSubspaces._of(ambient, np.searchsorted(radii, np.abs(ambient.point_ids)),
                                    len(radii))
    return ChainOfSubspaces(ambient, fields["stages"])


def load_map_assignment(obj, source: FiniteMetricSpace, target: FiniteMetricSpace):
    """The (n,) array of the target index of each source point's image."""
    row, fields = _read(obj, "map document")
    if row == "proj0 map":
        if not all(isinstance(p, tuple) and p for p in source.point_ids):
            raise ValidationError("proj0 needs tuple point ids")
        m = {p: p[0] for p in source.point_ids}
    else:
        m = _keyed((_pair(pair, "map pairs must be [point, image] pairs")
                    for pair in fields["pairs"]), "map pairs: source point", source)
        missing = [p for p in source.point_ids if p not in m]
        if missing:
            raise ValidationError("assignment is not total, missing %r" % (missing[0],))
    return np.array(target.indices([m[p] for p in source.point_ids]))


# ------------------------------------------------------- deterministic dump

def dumps_deterministic(obj) -> str:
    """``obj`` as JSON, keys sorted, floats shortest round-trip, NaN refused."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError("refusing to serialize NaN or an infinity: %s" % exc) from exc
