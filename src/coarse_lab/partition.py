"""Partitions of unity subordinated to covers, with variation measurements."""

from __future__ import annotations

import numpy as np

from .cover import Cover, _complement_distances, lebesgue_report, multiplicity
from .errors import BoundViolationError, PreconditionError, ValidationError
from .report import check_le
from .space import (CoarseMapCert, _fold, _pair_chunks, _pair_sweep, _SparseRows,
                    _worst_pair)

_SUM_TOL = 1e-9


class PartitionOfUnity:
    """Nonnegative functions, one per cover piece, summing to 1 at every point.

    ``phi`` is a read-only (pieces, points) float64 array: ``phi[i, a]`` is
    piece i's value at the stored point a. Every entry is 0 or in (0, 1], and
    positivity is only allowed inside piece i (subordination).
    """

    def __init__(self, space, cover: Cover, phi):
        phi = np.array(phi, dtype=np.float64)
        if cover.space is not space:
            raise ValidationError("partition space must be the cover's space")
        shape = (len(cover.pieces), len(space))
        if phi.shape != shape:
            raise ValidationError("partition values must have shape %r, not %r"
                                  % (shape, phi.shape))
        inside = cover.mask
        bad = np.argwhere((phi != 0.0) & ~(inside & (phi > 0.0) & (phi <= 1.0 + _SUM_TOL)))
        if bad.size:
            i, a = (int(v) for v in bad[0])
            if not inside[i, a]:
                raise ValidationError(
                    "subordination fails: piece %d positive at %r outside the piece"
                    % (i, space.point_ids[a]))
            raise ValidationError("value %r for piece %d at %r is outside (0, 1]"
                                  % (float(phi[i, a]), i, space.point_ids[a]))
        # per point, added piece by piece in piece order: the sums of a scalar loop
        sums = _fold(phi.T, np.zeros(len(space)))
        off = np.flatnonzero(np.abs(sums - 1.0) > _SUM_TOL)
        if off.size:
            raise ValidationError("values at %r sum to %r, not 1"
                                  % (space.point_ids[off[0]], float(sums[off[0]])))
        phi.setflags(write=False)
        self.space = space
        self.cover = cover
        self.phi = phi

    def value(self, i, x) -> float:
        return float(self.phi[i, self.space.index(x)])

    def entries(self):
        """(point index, piece, value) arrays of the positive values, by point
        and then by piece, as in ``masses``."""
        point, piece = np.nonzero(self.phi.T)
        return point, piece, self.phi[piece, point]

    def masses(self):
        """Per point, the dict piece index -> positive value, pieces ascending."""
        ids = self.space.point_ids
        masses = {p: {} for p in ids}
        for a, i, v in zip(*(e.tolist() for e in self.entries())):
            masses[ids[a]][i] = v
        return masses


def bell_partition(cover: Cover, require_lebesgue=True) -> PartitionOfUnity:
    """Proximity-weighted partition of unity subordinated to the cover.

    phi_i(x) is the distance from x to the complement of piece i, normalized
    over all pieces; a piece equal to the whole space contributes the
    sentinel diameter+1. For a cover with multiplicity k and Lebesgue number
    L > 0 the total variation is Lipschitz with constant (2k+2)(2k+3)/L,
    which callers verify via partition_variation_profile. Covers with Lebesgue
    number 0 make that bound vacuous and are rejected unless
    require_lebesgue=False.
    """
    space = cover.space
    mat = _complement_distances(cover)
    L = lebesgue_report(cover)[0]
    if require_lebesgue and L <= 0.0:
        raise PreconditionError(
            "cover has Lebesgue number 0; the variation bound is vacuous"
        )
    mat = np.where(np.isinf(mat), space.diameter + 1.0, mat)
    denom = mat.sum(axis=0)
    floor = L if require_lebesgue else 0.0
    if denom.min() < max(floor, 0.0) - 1e-12 or denom.min() <= 0.0:
        raise BoundViolationError("normalizer fell below the Lebesgue number")
    return PartitionOfUnity(space, cover, mat / denom)


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
    source, img = cert.source, cert.img
    pre = partition.cover.mask[:, img]
    kept = np.flatnonzero(pre.any(axis=1))
    pieces = [[source.point_ids[a] for a in np.flatnonzero(row)] for row in pre[kept]]
    phi = partition.phi[kept][:, img]
    return PartitionOfUnity(source, Cover(source, pieces), phi), tuple(kept.tolist())


def partition_variation_profile(partition: PartitionOfUnity, radii):
    """For each R, the max of sum_i |phi_i(x) - phi_i(y)| over pairs with d <= R,
    with the first pair attaining it (None when the max is 0)."""
    rows = _SparseRows(len(partition.space), *partition.entries())
    return _pair_sweep(partition.space, radii, rows.l1_dist)


def _bell_lipschitz_check(partition: PartitionOfUnity, C):
    """Record for sum_i |phi_i(x) - phi_i(y)| <= C d(x, y) at the pair with the
    largest excess (first in row-major order); None on a one-point space."""
    space = partition.space
    rows = _SparseRows(len(space), *partition.entries())
    worst = _worst_pair((a, b, rows.l1_dist(a, b), C * space.D[a, b])
                        for a, b in _pair_chunks(len(space)))
    if worst is None:
        return None
    s, bound, a, b = worst
    return check_le("bell_lipschitz_bound", s, bound, tol=1e-9,
                    witness=(space.point_ids[a], space.point_ids[b]))

