"""Witnesses: per-point unit vectors in a sparse sequence space over a
finite metric space, with variation profiles, tail profiles, collapse and
transport.

An index entry is a pair (tag, point); bare entries use tag None. The
entry's point is its projection into the underlying space, and the tail of
a vector past radius S is the squared mass sitting on entries whose
projection lies outside the closed S-ball of the base point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .space import FiniteMetricSpace, _pair_sweep, _SparseRows

_NORM_TOL = 1e-9


def sparse_norm(vec) -> float:
    return math.sqrt(sum(c * c for c in vec.values()))


class Witness:
    """A unit vector for every point of the space.

    ``vectors`` maps point -> {(tag, point): coefficient}. Vectors are either
    all bare (every tag None) or all tagged; mixing is rejected so collapse
    and gluing stay unambiguous.
    """

    def __init__(self, space: FiniteMetricSpace, vectors):
        vecs = {}
        tag_states = set()
        for x, vec in dict(vectors).items():
            if x not in space:
                raise ValidationError("witness defined at unknown point %r" % (x,))
            clean = {}
            for entry, c in vec.items():
                if not (isinstance(entry, tuple) and len(entry) == 2):
                    raise ValidationError("entry %r must be a (tag, point) pair" % (entry,))
                tag, p = entry
                if p not in space:
                    raise ValidationError(
                        "entry of vector at %r projects to unknown point %r" % (x, p)
                    )
                tag_states.add(tag is None)
                c = float(c)
                if not math.isfinite(c):
                    raise ValidationError(
                        "vector at %r has non-finite coefficient %r at %r" % (x, c, entry)
                    )
                if c != 0.0:
                    clean[(tag, p)] = c
            nrm = sparse_norm(clean)
            if abs(nrm - 1.0) > _NORM_TOL:
                raise ValidationError(
                    "vector at %r has norm %r, expected 1" % (x, nrm)
                )
            vecs[x] = clean
        missing = [p for p in space.point_ids if p not in vecs]
        if missing:
            raise ValidationError("witness is missing a vector at %r" % (missing[0],))
        if len(tag_states) > 1:
            raise ValidationError("witness mixes bare and tagged entries")
        self.space = space
        self.vectors = vecs
        self.tagged = tag_states == {False}

    def vector(self, x):
        try:
            return self.vectors[x]
        except KeyError:
            raise ValidationError("no vector at %r" % (x,)) from None


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


@dataclass(frozen=True)
class WitnessFamily:
    """Several witnesses sharing one variation certification, if any."""

    members: tuple
    certified_variation: tuple | None = None  # (R, epsilon)


def dirac_witness(space: FiniteMetricSpace) -> Witness:
    return Witness(space, {x: {(None, x): 1.0} for x in space.point_ids})


def uniform_ball_witness(space: FiniteMetricSpace, radius) -> Witness:
    """Vector of x spread uniformly over the closed ball around x."""
    vectors = {}
    for x in space.point_ids:
        ball = space.sorted_ids(space.ball(x, radius))
        c = 1.0 / math.sqrt(len(ball))
        vectors[x] = {(None, p): c for p in ball}
    return Witness(space, vectors)


def variation_profile(witness: Witness, radii):
    """For each R, max of ||xi_x - xi_y|| over pairs with d(x, y) <= R."""
    rows = _SparseRows(witness.vectors[x] for x in witness.space.point_ids)
    return [(r, v) for r, v, _ in _pair_sweep(
        witness.space, radii, lambda a, b: np.sqrt(rows.sq_dist(a, b)))]


def tail_profile(witness: Witness, radii) -> DecayProfile:
    """For each S, max over x of the squared mass projecting outside B(x, S)."""
    space = witness.space
    per_point = []
    for x in space.point_ids:
        row = space.D[space.index(x)]
        items = sorted(
            (float(row[space.index(p)]), c * c) for (_, p), c in witness.vectors[x].items()
        )
        ds = [d for d, _ in items]
        suffix = np.cumsum([m for _, m in items][::-1])[::-1]
        per_point.append((ds, suffix))
    radii = sorted(float(s) for s in radii)
    if any(math.isnan(s) for s in radii):
        raise ValidationError("tail radii must not be NaN")
    samples = []
    for s in radii:
        worst = 0.0
        for ds, suffix in per_point:
            pos = bisect_right(ds, s + 1e-12)
            if pos < len(ds):
                worst = max(worst, float(suffix[pos]))
        samples.append((s, worst))
    return DecayProfile(tuple(samples))


def equi_profiles(family: WitnessFamily, variation_radii, tail_radii):
    """Pointwise max of the members' profiles: the family-level certification."""
    if not family.members:
        raise ValidationError("empty witness family")
    var_acc = None
    tail_acc = None
    for w in family.members:
        vp = variation_profile(w, variation_radii)
        tp = tail_profile(w, tail_radii)
        if var_acc is None:
            var_acc = [v for _, v in vp]
            tail_acc = [v for _, v in tp]
        else:
            var_acc = [max(a, v) for a, (_, v) in zip(var_acc, vp)]
            tail_acc = [max(a, v) for a, (_, v) in zip(tail_acc, tp)]
    var_out = list(zip(sorted(float(r) for r in variation_radii), var_acc or []))
    tail_out = DecayProfile(tuple(zip(sorted(float(s) for s in tail_radii), tail_acc or [])))
    return var_out, tail_out


def collapse(witness: Witness) -> Witness:
    """Group a tagged witness by projected point, taking root-sum-squares.

    Norms are preserved exactly and tails are unchanged, because grouping
    keeps every entry at its projection.
    """
    if not witness.tagged:
        raise ValidationError("collapse needs a tagged witness")
    vectors = {}
    for x, vec in witness.vectors.items():
        acc = {}
        for (_, p), c in vec.items():
            acc[p] = acc.get(p, 0.0) + c * c
        vectors[x] = {(None, p): math.sqrt(m) for p, m in acc.items()}
    return Witness(witness.space, vectors)


def transport(witness: Witness, mapping, target: FiniteMetricSpace) -> Witness:
    """Push a witness forward along a bijective isometry onto the target."""
    mapping = dict(mapping)
    src = witness.space
    if set(mapping) != set(src.point_ids):
        raise ValidationError("transport map must be defined on every source point")
    images = list(mapping.values())
    if len(set(images)) != len(images) or set(images) != set(target.point_ids):
        raise ValidationError("transport map must be a bijection onto the target")
    src_idx = [src.index(p) for p in src.point_ids]
    tgt_idx = [target.index(mapping[p]) for p in src.point_ids]
    if not np.allclose(src.D[np.ix_(src_idx, src_idx)],
                       target.D[np.ix_(tgt_idx, tgt_idx)], atol=_NORM_TOL, rtol=0.0):
        diff = np.abs(src.D[np.ix_(src_idx, src_idx)] -
                      target.D[np.ix_(tgt_idx, tgt_idx)])
        a, b = (int(v) for v in np.argwhere(diff > _NORM_TOL)[0])
        raise ValidationError(
            "transport map is not isometric at pair (%r, %r)"
            % (src.point_ids[a], src.point_ids[b])
        )
    vectors = {}
    for x, vec in witness.vectors.items():
        vectors[mapping[x]] = {(tag, mapping[p]): c for (tag, p), c in vec.items()}
    return Witness(target, vectors)
