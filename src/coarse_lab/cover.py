"""Cover calculus on index arrays and membership masks: multiplicity, Lebesgue
number, separation, enlargement, and the chain-limit cover of a rank-array chain."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundViolationError, ValidationError
from .space import FiniteMetricSpace


def _index_arrays(space: FiniteMetricSpace, lists, noun, first):
    """One sorted index array per point list; the first empty list or unknown
    point, in the order given, is named as ``noun`` number i, counted from ``first``."""
    out = []
    for i, members in enumerate(lists, first):
        if not members:
            raise ValidationError("%s %d is empty" % (noun, i))
        for x in members:
            if x not in space:
                raise ValidationError("%s %d contains unknown point %r" % (noun, i, x))
        out.append(np.unique(space.indices(members)))
    return out


class Cover:
    """Finitely many nonempty pieces whose union is the whole space.

    ``indices`` holds one sorted index array per piece and ``mask`` the
    (pieces, points) membership, both read-only; ``pieces`` (point ids) and the
    ``distance`` and ``complement`` tables are derived on first read and kept.
    ``coloring`` optionally gives each piece a family index 0..k for separation.
    """

    def __init__(self, space: FiniteMetricSpace, pieces, coloring=None):
        self._store(space, _index_arrays(space, [tuple(p) for p in pieces], "piece", 0),
                    coloring)

    @classmethod
    def _of(cls, space: FiniteMetricSpace, indices, coloring=None):
        """A cover from sorted index arrays, one per piece, validated as above."""
        cover = cls.__new__(cls)
        cover._store(space, list(indices), coloring)
        return cover

    def _store(self, space, indices, coloring):
        if not indices:
            raise ValidationError("a cover needs at least one piece")
        mask = np.zeros((len(indices), len(space)), dtype=bool)
        for i, idx in enumerate(indices):
            if not idx.size:
                raise ValidationError("piece %d is empty" % i)
            mask[i, idx] = True
            idx.setflags(write=False)
        missing = np.flatnonzero(~mask.any(axis=0))
        if missing.size:
            raise ValidationError("pieces do not cover the space: %r uncovered"
                                  % (space.point_ids[missing[0]],))
        if coloring is not None:
            coloring = tuple(int(c) for c in coloring)
            if len(coloring) != len(indices):
                raise ValidationError("coloring length does not match piece count")
            if any(c < 0 for c in coloring):
                raise ValidationError("colors must be >= 0")
        mask.setflags(write=False)
        self.space = space
        self.indices = tuple(indices)
        self.mask = mask
        self.coloring = coloring

    @cached_property
    def pieces(self):
        """The pieces as frozensets of point ids."""
        ids = self.space.point_ids
        return tuple(frozenset(ids[a] for a in idx.tolist()) for idx in self.indices)

    @cached_property
    def distance(self):
        """(pieces, points) array: d(x, piece i) at row i, column x. Read-only."""
        out = np.array([self.space.D[idx].min(axis=0) for idx in self.indices])
        out.setflags(write=False)
        return out

    @cached_property
    def complement(self):
        """(pieces, points) array: d(x, complement of piece i) at row i, column x.

        A point outside piece i is its own nearest outside point and gets 0.0, so
        only the piece's own rows are searched, with the piece's own columns set
        to +inf: a piece equal to the whole space has an empty complement and
        gets +inf. Read-only.
        """
        out = np.zeros(self.mask.shape)
        for i, idx in enumerate(self.indices):
            rows = self.space.D[idx]
            rows[:, idx] = math.inf
            out[i, idx] = rows.min(axis=1)
        out.setflags(write=False)
        return out

    @property
    def fit_radius(self) -> float:
        """Sup of the radii r whose every closed r-ball fits inside some piece:
        B(x, r) lies in piece U exactly when r < d(x, complement of U)."""
        return float(self.complement.max(axis=0).min())


def multiplicity(cover: Cover) -> int:
    return int(cover.mask.sum(axis=0).max())


def r_multiplicity(cover: Cover, radius) -> int:
    """Max number of pieces meeting a closed ball of the given radius."""
    if not radius >= 0:
        raise ValidationError("radius must be >= 0")
    return int((cover.distance <= float(radius)).sum(axis=0).max())


def lebesgue_report(cover: Cover):
    """(Lebesgue number on the realized grid, smallest failing radius or None):
    the realized distances just below and at or above ``cover.fit_radius``."""
    realized = cover.space._realized
    i = int(np.searchsorted(realized, cover.fit_radius))
    return (float(realized[i - 1]) if i > 0 else 0.0,
            float(realized[i]) if i < len(realized) else None)


def set_distance(space: FiniteMetricSpace, U, V) -> float:
    iu = space.indices(U)
    iv = space.indices(V)
    if not iu or not iv:
        raise ValidationError("set distance needs nonempty sets")
    return float(space.D[np.ix_(iu, iv)].min())


def _piece_distances(cover: Cover):
    """(pieces, pieces) array of the set distances between the pieces."""
    return np.stack([cover.distance[:, idx].min(axis=1) for idx in cover.indices], axis=1)


def check_kl_separated(cover: Cover, k, L) -> bool:
    """The coloring splits the pieces into <= k+1 families, each L-separated."""
    return family_separation(cover, k) > float(L)


def family_separation(cover: Cover, k) -> float:
    """Smallest set distance between two pieces of one color (+inf if no color
    has two pieces); the coloring must use at most k+1 families."""
    if cover.coloring is None:
        raise ValidationError("cover carries no coloring")
    if max(cover.coloring) > int(k):
        raise ValidationError("coloring uses %d families, more than k+1=%d"
                              % (max(cover.coloring) + 1, int(k) + 1))
    colors = np.array(cover.coloring)
    same = np.triu(colors[:, None] == colors, 1)
    return float(_piece_distances(cover)[same].min(initial=math.inf))


def enlarge(cover: Cover, L) -> Cover:
    """Replace each piece U by its closed L-neighborhood. Coloring carries over."""
    if not L >= 0:
        raise ValidationError("enlargement radius must be >= 0")
    return Cover._of(cover.space, [np.flatnonzero(row <= float(L)) for row in cover.distance],
                     cover.coloring)


class ChainOfSubspaces:
    """Increasing subsets X_1 <= ... <= X_N of one ambient space, X_N = ambient,
    held as ``count`` = N and the read-only ``rank``: stage k (from 0) is ``rank <= k``."""

    def __init__(self, ambient: FiniteMetricSpace, stages):
        indices = _index_arrays(ambient, [tuple(s) for s in stages], "stage", 1)
        for k in range(len(indices) - 1):
            if not np.isin(indices[k], indices[k + 1]).all():
                raise ValidationError("stage %d is not contained in stage %d" % (k + 1, k + 2))
        rank = np.full(len(ambient), len(indices))
        for k in reversed(range(len(indices))):
            rank[indices[k]] = k
        self._store(ambient, rank, len(indices))

    @classmethod
    def _of(cls, ambient: FiniteMetricSpace, rank, count):
        """A chain from its rank array and stage count, validated as above."""
        chain = cls.__new__(cls)
        chain._store(ambient, rank, count)
        return chain

    def _store(self, ambient, rank, count):
        if count < 1:
            raise ValidationError("a chain needs at least one stage")
        if not (rank == 0).any():
            raise ValidationError("stage 1 is empty")
        if (rank >= count).any():
            raise ValidationError("the final stage must equal the ambient space")
        rank.setflags(write=False)
        self.ambient, self.rank, self.count = ambient, rank, count


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
    if not L > 0:
        raise ValidationError("need L > 0")
    space, rank = chain.ambient, chain.rank
    # stage k is order[:ends[k]]; run[:, j] is the distance to order[:j + 1]
    order = np.argsort(rank, kind="stable")
    ends = np.searchsorted(rank[order], np.arange(chain.count), side="right")
    run = space.D[:, order]
    np.minimum.accumulate(run, axis=1, out=run)
    subseq = [0]
    while subseq[-1] < chain.count - 1:
        need = run[:, ends[subseq[-1]] - 1] <= 3.0 * float(L)
        subseq.append(max(subseq[-1] + 1, int(rank[need].max())))
    # the first selected stage, then each nonempty later difference, ascending for _of
    parts = [np.sort(p) for p in np.split(order, np.unique(ends[subseq])[:-1])]
    cover = enlarge(Cover._of(space, parts), L)
    if multiplicity(cover) > 2:
        raise BoundViolationError("chain-limit cover exceeded multiplicity 2")
    if not cover.fit_radius > L:
        raise BoundViolationError("chain-limit cover lost Lebesgue number L")
    flags = ("piece %d is built from the final truncation stage" % (len(parts) - 1),)
    return DirectLimitResult(tuple(i + 1 for i in subseq), cover, flags)
