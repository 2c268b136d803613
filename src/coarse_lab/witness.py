"""Witnesses: per-point unit vectors in a sparse sequence space over a
finite metric space, with variation profiles, tail profiles, collapse and
transport.

An index entry is a pair (tag, point); bare entries use tag None. The
entry's point is its projection into the underlying space, and the tail of
a vector past radius S is the squared mass sitting on entries whose
projection lies outside the closed S-ball of the base point.

A witness is stored as flat entry arrays. Entry k belongs to the vector at
stored point ``row[k]``; it sits at point index ``at[k]`` and has tag
``tags[tag[k]]`` and coefficient ``coef[k]``. Rows ascend, and each vector
keeps its insertion order, which is the order the pair kernel sums in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .space import FiniteMetricSpace, _pair_sweep, _SparseRows

_NORM_TOL = 1e-9


def _gather(ptr, rows):
    """Entry indices of the given rows, concatenated in the given order, and
    for each entry its position in ``rows``; ``ptr`` is the row pointer."""
    rows = np.asarray(rows, dtype=np.int64)
    start = ptr[rows]
    lens = ptr[rows + 1] - start
    pos = np.repeat(np.arange(len(rows)), lens)
    return np.arange(len(pos)) + (start - (np.cumsum(lens) - lens))[pos], pos


def _row_norms(n, row, coef):
    """Per row, sqrt of the squares summed in entry order."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.bincount(row, weights=coef * coef, minlength=n))


class Witness:
    """A unit vector for every point of the space.

    ``Witness(space, vectors)`` takes point -> {(tag, point): coefficient}.
    Vectors are either all bare (every tag None) or all tagged; mixing is
    rejected so collapse and gluing stay unambiguous. Zero coefficients are
    dropped. ``vectors`` and the pair ``kernel`` are built on first use and kept.
    """

    def __init__(self, space: FiniteMetricSpace, vectors):
        vectors = dict(vectors)
        for x in vectors:
            if x not in space:
                raise ValidationError("witness defined at unknown point %r" % (x,))
        missing = [p for p in space.point_ids if p not in vectors]
        if missing:
            raise ValidationError("witness is missing a vector at %r" % (missing[0],))
        # the entries in stored point order: the first that is no (tag, point)
        # pair, or projects off the space, is named
        vectors = [vectors[x] for x in space.point_ids]
        entries = [e for v in vectors for e in v]
        row = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
        ok = [isinstance(e, tuple) and len(e) == 2 and e[1] in space for e in entries]
        if not all(ok):
            k = ok.index(False)
            e = entries[k]
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValidationError("entry %r must be a (tag, point) pair" % (e,))
            raise ValidationError("entry of vector at %r projects to unknown point %r"
                                  % (space.point_ids[row[k]], e[1]))
        tags = {}
        tag = [tags.setdefault(t, len(tags)) for t, _ in entries]
        self._store(space, row, space.indices([p for _, p in entries]), tag, tuple(tags),
                    [float(c) for v in vectors for c in v.values()])

    @classmethod
    def _of(cls, space, row, at, tag, tags, coef):
        """A witness from entry arrays (rows ascending), validated as above."""
        w = cls.__new__(cls)
        w._store(space, row, at, tag, tags, coef)
        return w

    def _store(self, space, row, at, tag, tags, coef):
        row, at, tag = (np.asarray(v, dtype=np.int64) for v in (row, at, tag))
        coef = np.asarray(coef, dtype=np.float64)
        ids = space.point_ids
        bad = np.flatnonzero(~np.isfinite(coef))
        if bad.size:
            k = bad[0]
            raise ValidationError("vector at %r has non-finite coefficient %r at %r"
                                  % (ids[row[k]], float(coef[k]), (tags[tag[k]], ids[at[k]])))
        bare = {tags[t] is None for t in np.unique(tag).tolist()}
        if len(bare) > 1:
            raise ValidationError("witness mixes bare and tagged entries")
        keep = coef != 0.0
        row, at, tag, coef = row[keep], at[keep], tag[keep], coef[keep]
        norms = _row_norms(len(space), row, coef)
        bad = np.flatnonzero(np.abs(norms - 1.0) > _NORM_TOL)
        if bad.size:
            raise ValidationError("vector at %r has norm %r, expected 1"
                                  % (ids[bad[0]], float(norms[bad[0]])))
        for v in (row, at, tag, coef):
            v.setflags(write=False)
        self.space = space
        self.row, self.at, self.tag, self.tags, self.coef = row, at, tag, tuple(tags), coef
        self.tagged = bare == {False}
        self._ptr = np.searchsorted(row, np.arange(len(space) + 1))

    @cached_property
    def vectors(self):
        """Read-only view point -> {(tag, point): coefficient}, in stored point
        order and entry order."""
        ids, tags = self.space.point_ids, self.tags
        items = list(zip([(tags[t], ids[p]) for t, p in
                          zip(self.tag.tolist(), self.at.tolist())], self.coef.tolist()))
        ptr = self._ptr.tolist()
        return MappingProxyType({x: MappingProxyType(dict(items[lo:hi]))
                                 for x, lo, hi in zip(ids, ptr, ptr[1:])})

    @cached_property
    def kernel(self):
        """The pair kernel over all the vectors, keyed by (tag, point)."""
        n = len(self.space)
        return _SparseRows(n, self.row, self.tag * n + self.at, self.coef)


@dataclass(frozen=True)
class DecayProfile:
    """Sampled tail values (S, value); non-increasing, within [0, 1]."""

    samples: tuple

    def __post_init__(self):
        prev = None
        for s, v in self.samples:
            if v < -1e-12 or v > 1.0 + _NORM_TOL:
                raise ValidationError("tail value %r out of range at S=%r" % (v, s))
            if prev is not None and v > prev + 1e-12:
                raise ValidationError("tail profile must be non-increasing")
            prev = v

    def __iter__(self):
        return iter(self.samples)

    def value_at(self, S) -> float:
        for s, v in self.samples:
            if s >= S - 1e-12:
                return v
        return self.samples[-1][1] if self.samples else 0.0


def dirac_witness(space: FiniteMetricSpace) -> Witness:
    idx = np.arange(len(space))
    return Witness._of(space, idx, idx, np.zeros_like(idx), (None,), np.ones(len(space)))


def uniform_ball_witness(space: FiniteMetricSpace, radius) -> Witness:
    """Vector of x spread uniformly over the closed ball around x."""
    if not radius >= 0:
        raise ValidationError("ball radius must be >= 0")
    inside = space.D <= float(radius)
    row, at = np.nonzero(inside)
    c = 1.0 / np.sqrt(inside.sum(axis=1))
    return Witness._of(space, row, at, np.zeros_like(row), (None,), c[row])


def variation_profile(witness: Witness, radii):
    """For each R, max of ||xi_x - xi_y|| over pairs with d(x, y) <= R."""
    return [(r, v) for r, v, _ in _pair_sweep(
        witness.space, radii, lambda a, b: np.sqrt(witness.kernel.sq_dist(a, b)))]


def tail_profile(witness: Witness, radii) -> DecayProfile:
    """For each S, max over x of the squared mass projecting outside B(x, S).

    One sort orders the entries by (row, distance, mass), and each carries
    the suffix sum of its row's masses, added from the far end. Suffix sums
    shrink towards the far end, so the tail past S is the largest suffix sum
    at an entry farther than S.
    """
    radii = sorted(float(s) for s in radii)
    if not all(s >= 0.0 for s in radii):
        raise ValidationError("tail radii must be >= 0 and not NaN")
    w = witness
    dist = w.space.D[w.row, w.at]
    mass = w.coef * w.coef
    order = np.lexsort((mass, dist, w.row))
    # rows keep their sizes, so entry k of the order sits at slot k - ptr[row];
    # the zeros right of each row add nothing to its sums
    slot = np.arange(len(order)) - w._ptr[w.row]
    grid = np.zeros((len(w.space), int(np.diff(w._ptr).max())))
    grid[w.row, slot] = mass[order]
    suffix = np.cumsum(grid[:, ::-1], axis=1)[:, ::-1][w.row, slot]
    # beyond[j]: the largest suffix at an entry farther than exactly j radii
    beyond = np.zeros(len(radii) + 1)
    np.maximum.at(beyond, np.searchsorted(np.array(radii) + 1e-12, dist[order]), suffix)
    tails = np.maximum.accumulate(beyond[::-1])[::-1]
    return DecayProfile(tuple(zip(radii, tails[1:].tolist())))


def collapse(witness: Witness) -> Witness:
    """Group a tagged witness by projected point, taking root-sum-squares.

    Norms are preserved exactly and tails are unchanged, because grouping
    keeps every entry at its projection. Groups keep the order of their first
    entries, and each sums its squares in entry order.
    """
    if not witness.tagged:
        raise ValidationError("collapse needs a tagged witness")
    code = witness.row * len(witness.space) + witness.at
    _, first, group = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    mass = np.bincount(rank[group], weights=witness.coef * witness.coef)
    return Witness._of(witness.space, witness.row[first], witness.at[first],
                       np.zeros_like(first), (None,), np.sqrt(mass))


def transport(witness: Witness, img, target: FiniteMetricSpace) -> Witness:
    """Push a witness forward along a bijective isometry onto the target;
    ``img[a]`` is the target index of the a-th source point's image."""
    src = witness.space
    img = np.asarray(img)
    if img.shape != (len(src),) or not np.issubdtype(img.dtype, np.integer) \
            or not np.array_equal(np.sort(img), np.arange(len(target))):
        raise ValidationError("transport map must be a bijection onto the target")
    off = np.argwhere(np.abs(src.D - target.D[np.ix_(img, img)]) > _NORM_TOL)
    if off.size:
        a, b = (int(v) for v in off[0])
        raise ValidationError("transport map is not isometric at pair (%r, %r)"
                              % (src.point_ids[a], src.point_ids[b]))
    order = np.argsort(img[witness.row], kind="stable")
    return Witness._of(target, img[witness.row[order]], img[witness.at[order]],
                       witness.tag[order], witness.tags, witness.coef[order])
