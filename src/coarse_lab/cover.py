"""Cover calculus: multiplicity, Lebesgue number, separation, enlargement,
finite-scale dimension cover search, and the chain-limit cover construction."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolationError,
    PreconditionError,
    SearchInconclusiveError,
    ValidationError,
)
from .space import FiniteMetricSpace


class Cover:
    """Finitely many nonempty pieces whose union is the whole space.

    ``coloring`` optionally assigns each piece a family index 0..k, used by
    the separation checks.
    """

    def __init__(self, space: FiniteMetricSpace, pieces, coloring=None):
        pieces = tuple(frozenset(p) for p in pieces)
        if not pieces:
            raise ValidationError("a cover needs at least one piece")
        seen = set()
        for i, p in enumerate(pieces):
            if not p:
                raise ValidationError("piece %d is empty" % i)
            for x in p:
                if x not in space:
                    raise ValidationError("piece %d contains unknown point %r" % (i, x))
            seen |= p
        if seen != set(space.point_ids):
            missing = space.sorted_ids(set(space.point_ids) - seen)[0]
            raise ValidationError("pieces do not cover the space: %r uncovered" % (missing,))
        if coloring is not None:
            coloring = tuple(int(c) for c in coloring)
            if len(coloring) != len(pieces):
                raise ValidationError("coloring length does not match piece count")
            if any(c < 0 for c in coloring):
                raise ValidationError("colors must be >= 0")
        self.space = space
        self.pieces = pieces
        self.coloring = coloring
        self._complement = None

    def piece_indices(self):
        """Stored-order index arrays, one per piece."""
        return [np.array(self.space.indices(self.space.sorted_ids(p))) for p in self.pieces]


def multiplicity(cover: Cover) -> int:
    counts = np.zeros(len(cover.space), dtype=int)
    for idx in cover.piece_indices():
        counts[idx] += 1
    return int(counts.max())


def r_multiplicity(cover: Cover, radius) -> int:
    """Max number of pieces meeting a closed ball of the given radius."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    counts = np.zeros(len(cover.space), dtype=int)
    for idx in cover.piece_indices():
        counts += _near(cover.space, idx, radius)
    return int(counts.max())


def _near(space: FiniteMetricSpace, idx, radius):
    """Mask of the points within closed distance ``radius`` of the points ``idx``."""
    return space.D[:, idx].min(axis=1) <= float(radius)


def _neighborhood(space: FiniteMetricSpace, members, radius) -> frozenset:
    near = _near(space, space.indices(members), radius)
    return frozenset(space.point_ids[i] for i in np.flatnonzero(near))


def _complement_distances(cover: Cover):
    """(pieces, points) array: d(x, complement of piece i) at row i, column x.

    A point outside piece i is its own nearest outside point and gets 0.0, so
    only the piece's own rows are searched. A piece equal to the whole space
    has an empty complement and gets +inf. Computed once per cover, read-only.
    """
    if cover._complement is not None:
        return cover._complement
    space = cover.space
    out = np.zeros((len(cover.pieces), len(space)))
    for i, idx in enumerate(cover.piece_indices()):
        outside = np.ones(len(space), dtype=bool)
        outside[idx] = False
        if outside.any():
            out[i, idx] = space.D[np.ix_(idx, outside)].min(axis=1)
        else:
            out[i] = math.inf
    out.setflags(write=False)
    cover._complement = out
    return out


def _fit_radii(cover: Cover):
    """Per point, the sup of radii whose closed ball fits inside some piece.

    A ball B(x, r) sits inside piece U exactly when r < d(x, complement of U).
    """
    return _complement_distances(cover).max(axis=0)


def lebesgue_report(cover: Cover):
    """(Lebesgue number on the realized grid, smallest failing radius or None)."""
    t = float(_fit_radii(cover).min())
    realized = cover.space.realized_distances()
    i = bisect_left(realized, t)
    L = realized[i - 1] if i > 0 else 0.0
    failing = realized[i] if i < len(realized) else None
    return float(L), failing


def lebesgue_number(cover: Cover) -> float:
    """Largest realized L such that every closed L-ball fits in some piece."""
    return lebesgue_report(cover)[0]


def has_lebesgue_at_least(cover: Cover, L) -> bool:
    """Every closed L-ball fits inside some piece (L need not be realized)."""
    return bool(_fit_radii(cover).min() > float(L))


def set_distance(space: FiniteMetricSpace, U, V) -> float:
    iu = space.indices(U)
    iv = space.indices(V)
    if not iu or not iv:
        raise ValidationError("set distance needs nonempty sets")
    return float(space.D[np.ix_(iu, iv)].min())


def is_l_separated(space: FiniteMetricSpace, piece_family, L) -> bool:
    """Pairwise set distance strictly greater than L within the family."""
    return _separation(space, [frozenset(p) for p in piece_family]) > float(L)


def _separation(space: FiniteMetricSpace, fam) -> float:
    """Smallest set distance between two members of the family (+inf if < 2)."""
    return min((set_distance(space, fam[i], fam[j])
                for i in range(len(fam)) for j in range(i + 1, len(fam))),
               default=math.inf)


def check_kl_separated(cover: Cover, k, L) -> bool:
    """The coloring splits the pieces into <= k+1 families, each L-separated."""
    return family_separation(cover, k) > float(L)


def family_separation(cover: Cover, k) -> float:
    """Smallest set distance between two pieces of one color (+inf if no color
    has two pieces); the coloring must use at most k+1 families."""
    if cover.coloring is None:
        raise ValidationError("cover carries no coloring")
    if max(cover.coloring) > int(k):
        raise ValidationError(
            "coloring uses %d families, more than k+1=%d"
            % (max(cover.coloring) + 1, int(k) + 1)
        )
    return min(_separation(cover.space, [p for p, col in zip(cover.pieces, cover.coloring)
                                         if col == c])
               for c in sorted(set(cover.coloring)))


def enlarge(cover: Cover, L) -> Cover:
    """Replace each piece U by its closed L-neighborhood. Coloring carries over."""
    if L < 0:
        raise ValidationError("enlargement radius must be >= 0")
    return Cover(cover.space, [_neighborhood(cover.space, p, L) for p in cover.pieces],
                 coloring=cover.coloring)


def piece_diameter(space: FiniteMetricSpace, piece) -> float:
    idx = space.indices(piece)
    return float(space.D[np.ix_(idx, idx)].max())


@dataclass(frozen=True)
class AsdimSearchResult:
    cover: Cover
    max_piece_diameter: float
    strategy: str


def _partition_by_key(space, key):
    groups = {}
    for p in space.point_ids:
        groups.setdefault(key(p), []).append(p)
    return [frozenset(g) for _, g in sorted(groups.items())]


def _candidate_partitions(space: FiniteMetricSpace, L, k_max):
    """Partitions whose L-multiplicity should stay small; enlargement does the rest."""
    kind = space.structure[0] if space.structure else None
    W = 4.0 * float(L)
    if kind == "z_interval" and k_max >= 1:
        lo = space.structure[1]
        yield "blocks-1d", _partition_by_key(space, lambda p: math.floor((p - lo) / W))
    if kind == "cycle" and k_max >= 1:
        n = space.structure[1]
        m = int(n // W)
        if m >= 2:
            yield "arcs", _partition_by_key(space, lambda p: min(int(p * m // n), m - 1))
    if kind in ("grid", "z2_ball") and k_max >= 2:
        def brick(p):
            a, b = p[0], p[1]
            row = math.floor(a / W)
            off = (W / 2.0) if row % 2 else 0.0
            return (row, math.floor((b + off) / W))
        yield "bricks-2d", _partition_by_key(space, brick)
    if kind in ("grid", "z2_ball") and k_max >= 3:
        yield "cells-2d", _partition_by_key(
            space, lambda p: (math.floor(p[0] / W), math.floor(p[1] / W)))
    # general fallback: greedy 2L-separated net, then its nearest-point cells
    centers = []
    for p in space.point_ids:
        if all(space.d(p, c) > 2.0 * float(L) for c in centers):
            centers.append(p)
    yield "greedy-net", _partition_by_key(space, lambda p: space.nearest_point(p, centers))


def asdim_cover_search(space: FiniteMetricSpace, L, k_max) -> AsdimSearchResult:
    """Search for a cover with Lebesgue number >= L and multiplicity <= k_max+1.

    Strategies are tried in a fixed order: structured block partitions where
    the space advertises one, then a greedy net partition; each candidate
    partition is enlarged by L and the postconditions are verified directly.
    Failure is a search limit, never a certificate that no cover exists.
    """
    if L < 0 or k_max < 0:
        raise ValidationError("need L >= 0 and k_max >= 0")
    if float(L) == 0.0:
        cov = Cover(space, [frozenset([p]) for p in space.point_ids])
        return AsdimSearchResult(cov, 0.0, "singletons")
    if float(L) >= space.diameter:
        cov = Cover(space, [frozenset(space.point_ids)])
        return AsdimSearchResult(cov, space.diameter, "whole-space")
    for strategy, parts in _candidate_partitions(space, L, k_max):
        cand = enlarge(Cover(space, parts), L)
        if multiplicity(cand) <= int(k_max) + 1 and has_lebesgue_at_least(cand, L):
            diam = max(piece_diameter(space, p) for p in cand.pieces)
            return AsdimSearchResult(cand, diam, strategy)
    raise SearchInconclusiveError(
        "no strategy produced a cover with Lebesgue >= %s and multiplicity <= %d; "
        "inconclusive" % (L, int(k_max) + 1)
    )


class ChainOfSubspaces:
    """Increasing subsets X_1 <= ... <= X_N of one ambient space, X_N = ambient."""

    def __init__(self, ambient: FiniteMetricSpace, stages):
        stages = tuple(frozenset(s) for s in stages)
        if not stages:
            raise ValidationError("a chain needs at least one stage")
        for i, s in enumerate(stages):
            if not s:
                raise ValidationError("stage %d is empty" % (i + 1,))
            for x in s:
                if x not in ambient:
                    raise ValidationError("stage %d contains unknown point %r" % (i + 1, x))
        for i in range(len(stages) - 1):
            if not stages[i] <= stages[i + 1]:
                raise ValidationError("stage %d is not contained in stage %d" % (i + 1, i + 2))
        if stages[-1] != set(ambient.point_ids):
            raise ValidationError("the final stage must equal the ambient space")
        self.ambient = ambient
        self.stages = stages


@dataclass(frozen=True)
class DirectLimitResult:
    indices: tuple      # chosen stage numbers, 1-based
    cover: Cover
    truncation_flags: tuple


def direct_limit_cover(chain: ChainOfSubspaces, L) -> DirectLimitResult:
    """Cover the ambient space with L-neighborhoods of consecutive stage differences.

    A greedy minimal subsequence n_1 < n_2 < ... is chosen so that the closed
    3L-neighborhood of each selected stage is contained in the next selected
    stage; the pieces are the L-neighborhoods of the successive differences,
    plus the L-neighborhood of the first selected stage so the result covers
    everything. Multiplicity <= 2 and Lebesgue number >= L are re-verified on
    the output.
    """
    if L <= 0:
        raise ValidationError("need L > 0")
    space = chain.ambient
    stages = chain.stages
    subseq = [0]
    while subseq[-1] < len(stages) - 1:
        need = _neighborhood(space, stages[subseq[-1]], 3.0 * float(L))
        nxt = None
        for m in range(subseq[-1] + 1, len(stages)):
            if need <= stages[m]:
                nxt = m
                break
        if nxt is None:
            raise PreconditionError(
                "chain too short: no stage contains the 3L-neighborhood of stage %d"
                % (subseq[-1] + 1,)
            )
        subseq.append(nxt)
    pieces = [_neighborhood(space, stages[subseq[0]], L)]
    for a, b in zip(subseq, subseq[1:]):
        diff = stages[b] - stages[a]
        if diff:
            pieces.append(_neighborhood(space, diff, L))
    cover = Cover(space, pieces)
    if multiplicity(cover) > 2:
        raise BoundViolationError("chain-limit cover exceeded multiplicity 2")
    if not has_lebesgue_at_least(cover, L):
        raise BoundViolationError("chain-limit cover lost Lebesgue number L")
    flags = ("piece %d is built from the final truncation stage" % (len(pieces) - 1),)
    return DirectLimitResult(tuple(i + 1 for i in subseq), cover, flags)
