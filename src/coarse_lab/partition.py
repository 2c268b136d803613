"""Partitions of unity subordinated to covers, with variation measurements."""

from __future__ import annotations

import numpy as np

from .cover import (Cover, _complement_distances, _lebesgue_from_fit, lebesgue_report,
                    multiplicity)
from .errors import BoundViolationError, PreconditionError, ValidationError
from .report import check_le
from .space import (CoarseMapCert, _pair_chunks, _pair_sweep, _SparseRows,
                    _worst_pair)

_SUM_TOL = 1e-9


class PartitionOfUnity:
    """Nonnegative functions, one per cover piece, summing to 1 at every point.

    Values are stored sparsely: piece i keeps a dict of the points where it
    is strictly positive, and positivity is only allowed inside piece i
    (subordination).
    """

    def __init__(self, space, cover: Cover, values):
        values = tuple(dict(v) for v in values)
        if cover.space is not space:
            raise ValidationError("partition space must be the cover's space")
        if len(values) != len(cover.pieces):
            raise ValidationError("need one value map per cover piece")
        sums = {p: 0.0 for p in space.point_ids}
        for i, (piece, vals) in enumerate(zip(cover.pieces, values)):
            for x, v in vals.items():
                if x not in space:
                    raise ValidationError("piece %d carries unknown point %r" % (i, x))
                if x not in piece:
                    raise ValidationError(
                        "subordination fails: piece %d positive at %r outside the piece"
                        % (i, x)
                    )
                if not (0.0 < v <= 1.0 + _SUM_TOL):
                    raise ValidationError(
                        "value %r for piece %d at %r is outside (0, 1]" % (v, i, x)
                    )
                sums[x] += v
        for x, s in sums.items():
            if abs(s - 1.0) > _SUM_TOL:
                raise ValidationError("values at %r sum to %r, not 1" % (x, s))
        self.space = space
        self.cover = cover
        self.values = values
        self._masses = None

    def value(self, i, x) -> float:
        return self.values[i].get(x, 0.0)

    def masses(self):
        """Per point, the dict piece index -> positive value."""
        if self._masses is None:
            masses = {p: {} for p in self.space.point_ids}
            for i, vals in enumerate(self.values):
                for x, v in vals.items():
                    masses[x][i] = v
            self._masses = masses
        return self._masses


def bell_partition(cover: Cover, require_lebesgue=True) -> PartitionOfUnity:
    """Proximity-weighted partition of unity subordinated to the cover.

    phi_i(x) is the distance from x to the complement of piece i, normalized
    over all pieces; a piece equal to the whole space contributes the
    sentinel diameter+1. For a cover with multiplicity k and Lebesgue number
    L > 0 the total variation is Lipschitz with constant (2k+2)(2k+3)/L,
    which callers verify via partition_variation. Covers with Lebesgue
    number 0 make that bound vacuous and are rejected unless
    require_lebesgue=False.
    """
    space = cover.space
    mat = _complement_distances(cover)
    L, _ = _lebesgue_from_fit(space, mat.max(axis=0))
    if require_lebesgue and L <= 0.0:
        raise PreconditionError(
            "cover has Lebesgue number 0; the variation bound is vacuous"
        )
    mat[np.isinf(mat)] = space.diameter + 1.0
    denom = mat.sum(axis=0)
    floor = L if require_lebesgue else 0.0
    if denom.min() < max(floor, 0.0) - 1e-12 or denom.min() <= 0.0:
        raise BoundViolationError("normalizer fell below the Lebesgue number")
    mat = mat / denom
    values = []
    for i in range(len(cover.pieces)):
        row = mat[i]
        values.append({space.point_ids[j]: float(row[j])
                       for j in np.flatnonzero(row > 0.0)})
    return PartitionOfUnity(space, cover, values)


def bell_lipschitz_constant(cover: Cover) -> float:
    """(2k+2)(2k+3)/L from the cover's realized multiplicity and Lebesgue number."""
    k = multiplicity(cover)
    L = lebesgue_report(cover)[0]
    if L <= 0.0:
        raise PreconditionError("Lebesgue number 0 gives no finite constant")
    return (2.0 * k + 2.0) * (2.0 * k + 3.0) / L


def pullback_partition(cert: CoarseMapCert, partition: PartitionOfUnity):
    """Pull a partition on the target back along a certified map.

    Returns (partition on the source over the preimage cover, index map);
    pieces with empty preimage are dropped and the index map records which
    original piece each kept piece came from.
    """
    if partition.space is not cert.target:
        raise ValidationError("partition must live on the map's target")
    source = cert.source
    kept = []
    pieces = []
    values = []
    for i, piece in enumerate(partition.cover.pieces):
        pre = frozenset(x for x in source.point_ids if cert.assignment[x] in piece)
        if not pre:
            continue
        kept.append(i)
        pieces.append(pre)
        vals = {}
        for x in source.point_ids:
            v = partition.value(i, cert.assignment[x])
            if v > 0.0:
                vals[x] = v
        values.append(vals)
    cover = Cover(source, pieces)
    return PartitionOfUnity(source, cover, values), tuple(kept)


def partition_variation_profile(partition: PartitionOfUnity, radii):
    """For each R, the max of sum_i |phi_i(x) - phi_i(y)| over pairs with d <= R,
    with the first pair attaining it (None when the max is 0)."""
    return _pair_sweep(partition.space, radii, _mass_rows(partition).l1_dist)


def _mass_rows(partition: PartitionOfUnity):
    """The masses {piece: phi_piece(x)} per point, in stored point order."""
    masses = partition.masses()
    return _SparseRows(masses[x] for x in partition.space.point_ids)


def _bell_lipschitz_check(partition: PartitionOfUnity, C):
    """Record for sum_i |phi_i(x) - phi_i(y)| <= C d(x, y) at the pair with the
    largest excess (first in row-major order); None on a one-point space."""
    space = partition.space
    rows = _mass_rows(partition)
    worst = _worst_pair((a, b, rows.l1_dist(a, b), C * space.D[a, b])
                        for a, b in _pair_chunks(len(space)))
    if worst is None:
        return None
    s, bound, a, b = worst
    return check_le("bell_lipschitz_bound", s, bound, tol=1e-9,
                    witness=(space.point_ids[a], space.point_ids[b]))


def partition_variation_with_pair(partition: PartitionOfUnity, R):
    entry = partition_variation_profile(partition, [R])[0]
    return entry[1], entry[2]


def partition_variation(partition: PartitionOfUnity, R) -> float:
    return partition_variation_with_pair(partition, R)[0]
