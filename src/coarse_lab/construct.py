"""Witness constructions: subspace restriction, net extension, gluing along a
partition of unity, pullback along a certified map, and the separated-cover
pipeline.

A subspace is given as ascending point indices into the witness's space, a
net as the witness's own space, and a cover piece by its index array; point
ids are read only to relate one space's points to another's and to name a
point in a message or a record.

Every construction returns the built witness together with InequalityRecords
for the bounds it is supposed to satisfy. Bounds that are provable for the
implemented formulas are asserted (a violation raises BoundViolationError,
meaning a bug, not a falsified instance); the one empirical tail check is
recorded but never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cover import Cover, enlarge, family_separation, multiplicity
from .errors import BoundViolationError, PreconditionError, ValidationError
from .partition import (PartitionOfUnity, bell_partition,
                        partition_variation_profile, pullback_partition)
from .report import check_le
from .space import (CoarseMapCert, FiniteMetricSpace, _DistanceMax, _pair_blocks, _row_pairs,
                    _worst_pair)
from .witness import (DecayProfile, Witness, _gather, _row_norms, collapse, tail_profile,
                      variation_profile)

_ID_TOL = 1e-9


def _require(records, kind=BoundViolationError):
    for rec in records:
        if not rec.passed:
            raise kind("%s failed: %r > %r at %r" % (rec.name, rec.lhs, rec.rhs, rec.witness))


def _radii(space: FiniteMetricSpace, radii, cap=24):
    """The radii as sorted floats, or for None up to ``cap`` realized distances, both ends."""
    if radii is not None:
        return sorted(float(r) for r in radii)
    grid = space.realized_distances()
    if len(grid) <= cap:
        return grid
    keep = np.unique(np.linspace(0, len(grid) - 1, cap).astype(int))
    return [grid[i] for i in keep]


# ---------------------------------------------------------------- subspace

@dataclass(frozen=True)
class SubspaceWitnessResult:
    subspace: FiniteMetricSpace
    tagged: Witness       # xi over (ambient source, nearest member) entries
    collapsed: Witness    # eta, grouped by nearest member
    nearest: np.ndarray   # per ambient point, the subspace index of its nearest member
    checks: tuple         # exact identities, asserted
    tail_checks: tuple    # empirical S/3 control, recorded only
    variation: _DistanceMax   # eta's variation sweep, fed by the identity checks


def subspace_construction(witness: Witness, idx, tail_radii=None) -> SubspaceWitnessResult:
    """Restrict a bare witness on X to the subspace Y on the ascending point
    indices ``idx`` of X, along p: X -> Y, the nearest member (earliest stored on ties).

    xi_y carries beta_y's coefficient at ambient point s on the entry
    (tag=s, point=p(s)); eta collapses by p(s). Norms and pair distances of
    xi match beta exactly because entries stay keyed by s.
    """
    if witness.tagged:
        raise ValidationError("subspace construction starts from a bare witness")
    ambient = witness.space
    idx = np.asarray(idx)
    if idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu" or idx[0] < 0 \
            or idx[-1] >= len(ambient) or (idx[1:] <= idx[:-1]).any():
        raise ValidationError("a subspace must be a nonempty ascending array of point "
                              "indices in 0..%d" % (len(ambient) - 1))
    sub = ambient._sub(idx)
    # first minimum over the members in stored order: earliest-stored tie-break
    nearest = np.argmin(ambient.D[:, idx], axis=1)
    nearest.setflags(write=False)
    # beta's entry at ambient index s becomes the entry (tag s, point p(s))
    k, row = _gather(witness._ptr, idx)
    src = witness.at[k]
    tagged = Witness._of(sub, row, nearest[src], src, ambient.point_ids, witness.coef[k])
    eta = collapse(tagged)

    norm_dev = float(np.abs(_row_norms(len(sub), tagged.row, tagged.coef) - 1.0).max())
    match_dev = 0.0
    contraction = 0.0
    variation = _DistanceMax(sub)
    for a, b in _pair_blocks(sub):
        dxi = np.sqrt(tagged.kernel.sq_dist(a, b))
        dbeta = np.sqrt(witness.kernel.sq_dist(idx[a], idx[b]))
        deta = np.sqrt(eta.kernel.sq_dist(a, b))
        variation.add(a, b, deta)
        match_dev = max(match_dev, float(np.abs(dxi - dbeta).max()))
        contraction = max(contraction, float((deta - dxi).max()))
    checks = (
        check_le("subspace_xi_unit_norm_dev", norm_dev, 0.0, tol=_ID_TOL),
        check_le("subspace_xi_matches_beta_dev", match_dev, 0.0, tol=_ID_TOL),
        check_le("subspace_eta_nonexpansive_excess", contraction, 0.0, tol=1e-12),
    )
    _require(checks)

    tail_radii = _radii(sub, tail_radii)
    eta_tail = tail_profile(eta, tail_radii)
    beta_tail_all = tail_profile(witness, sorted({float(math.floor(s / 3.0)) for s in tail_radii}
                                                 | {float(s) for s in tail_radii}))
    tail_checks = []
    for s, lhs in eta_tail:
        rhs = beta_tail_all.value_at(math.floor(s / 3.0)) + beta_tail_all.value_at(s)
        tail_checks.append(check_le("subspace_tail_S=%g" % s, lhs, rhs, tol=1e-12,
                                    note="empirical check, not an assumed theorem"))
    return SubspaceWitnessResult(sub, tagged, eta, nearest, checks, tuple(tail_checks),
                                 variation)


# --------------------------------------------------------------------- net

@dataclass(frozen=True)
class NetWitnessResult:
    witness: Witness
    c: float
    checks: tuple         # variation/tail transfer bounds, asserted


def net_construction(ambient: FiniteMetricSpace, witness: Witness,
                     c=None, radii=None, tail_radii=None) -> NetWitnessResult:
    """Extend a witness on a c-net, its space, to the ambient space by
    xi_x = beta_{q(x)}, q(x) the nearest net point (the earliest stored on ties)."""
    if witness.tagged:
        raise ValidationError("net construction starts from a bare witness")
    # the net's ambient indices, and the witness rows listed in ambient order
    on = np.array(ambient.indices(witness.space.point_ids))
    order = np.argsort(on)
    near = ambient.D[:, on[order]]
    first = near.argmin(axis=1)
    covering = float(near[np.arange(len(ambient)), first].max())
    c = covering if c is None else float(c)
    if not covering <= c:
        raise PreconditionError(
            "net condition fails: covering radius %r exceeds c=%r" % (covering, c))
    # xi_x is beta's vector at q(x), its entries moved to ambient indices
    k, row = _gather(witness._ptr, order[first])
    out = Witness._of(ambient, row, on[witness.at[k]], witness.tag[k], witness.tags,
                      witness.coef[k])

    radii = _radii(ambient, radii)
    out_var = variation_profile(out, radii)
    base_var = variation_profile(witness, [r + 2.0 * c for r in radii])
    checks = [check_le("net_variation_R=%g" % r, lv, bv[1], tol=1e-12)
              for (r, lv), bv in zip(out_var, base_var)]

    tail_radii = [s for s in _radii(ambient, tail_radii) if s > c]
    if tail_radii:
        out_tail = tail_profile(out, tail_radii)
        base_tail = tail_profile(witness, [s - c for s in tail_radii])
        for (s, lv), (_, bv) in zip(out_tail, base_tail):
            checks.append(check_le("net_tail_S=%g" % s, lv, bv, tol=1e-12))
    _require(checks)
    return NetWitnessResult(out, c, tuple(checks))


# -------------------------------------------------------------------- glue

@dataclass(frozen=True)
class GlueInput:
    """A partition of unity plus one piece witness per cover piece, or None
    for the Dirac witness of every piece.

    Piece witness i must live on exactly U_i with the restricted metric;
    this keeps the variation check's two-sided/one-sided case split honest.
    """

    partition: PartitionOfUnity
    pieces: tuple = None

    def __post_init__(self):
        if self.pieces is None:
            return
        cover = self.partition.cover
        if len(self.pieces) != len(cover.indices):
            raise ValidationError("need one piece witness per cover piece")
        space = self.partition.space
        for i, (piece, w) in enumerate(zip(cover.indices, self.pieces)):
            if not isinstance(w, Witness):
                raise ValidationError("piece %d is not a witness" % i)
            idx = space.indices(w.space.point_ids)
            have = np.sort(idx)
            if not np.array_equal(have, piece):
                # the first piece point the witness lacks, else its first extra point
                missing = np.setdiff1d(piece, have)
                if missing.size:
                    raise ValidationError("piece %d witness does not cover point %r of the piece"
                                          % (i, space.point_ids[missing[0]]))
                raise ValidationError("piece %d witness has point %r outside the piece"
                                      % (i, space.point_ids[np.setdiff1d(have, piece)[0]]))
            sub = space.D[np.ix_(idx, idx)]
            if not np.array_equal(w.space.D, sub) and \
                    not np.allclose(w.space.D, sub, atol=1e-12, rtol=0.0):
                raise ValidationError(
                    "piece %d witness metric is not the restricted metric" % i)


@dataclass(frozen=True)
class GlueResult:
    witness: Witness
    partition: PartitionOfUnity
    checks: tuple
    glued_tail: DecayProfile
    equi_tail: DecayProfile
    variation: _DistanceMax   # the glued witness's variation sweep, fed by the glue


def glue_with_report(glue_input: GlueInput, tail_radii=None) -> GlueResult:
    """Glue piece witnesses: xi_x((i, tag), u) = sqrt(phi_i(x)) * beta^i_x(tag, u).

    Asserts the combination bound
        ||xi_x - xi_y||^2 <= 2 sum_i |phi_i(x) - phi_i(y)| + 2 max_i ||beta^i_x - beta^i_y||^2
    (max over pieces containing both points) and tail domination by the piece
    family's equi-tail on a sampled grid.
    """
    partition = glue_input.partition
    space = partition.space
    # xi_x: sqrt(phi_i(x)) times piece i's vector at x, with tags (i, tag), over
    # x's pieces in order (a zero phi drops the entry)
    if glue_input.pieces is None:
        # Dirac pieces: distinct points' Dirac vectors have disjoint supports, so
        # a piece kernel's closed form is exactly 1.0 + 1.0 on every pair of the
        # piece, and every entry sits at its own point, so the equi-tail is zero.
        # Piece i gives the entries (row x, at x, tag (i, None), sqrt(phi_i(x))).
        piece, on = np.nonzero(partition.cover.mask)
        parts = [(on, on, piece, np.sqrt(partition.phi[piece, on]))]
        tags = [(i, None) for i in range(len(partition.cover.indices))]
        # per point, its pieces as bits in whole 64-bit words: one gather per word
        bits = np.packbits(partition.cover.mask, axis=0)
        member = np.ascontiguousarray(np.pad(bits, ((0, -len(bits) % 8), (0, 0))).T).view(np.uint64)

        def common(a, b):
            shared = (member.take(a, axis=0) & member.take(b, axis=0)).any(axis=1)
            return np.where(shared, 2.0, 0.0)
    else:
        # members[i] is piece i's points ascending, with the rows of piece i's vectors at them
        members, parts, tags = [], [], []
        for i, w in enumerate(glue_input.pieces):
            on = np.array(space.indices(w.space.point_ids))
            rows = np.argsort(on)
            members.append((on[rows], rows))
            parts.append((on[w.row], on[w.at], w.tag + len(tags),
                          np.sqrt(partition.phi[i, on[w.row]]) * w.coef))
            tags.extend((i, t) for t in w.tags)

        def common(a, b):
            # out[p - a0, q]: the piece term of the pair (p, q) of the rows [a0, a1)
            a0, a1 = int(a[0]), int(a[-1]) + 1
            out = np.zeros((a1 - a0, len(space)))
            for w, (on, rows) in zip(glue_input.pieces, members):
                # the pairs (p, q) of piece points with p in the block: p = on[j],
                # q = on[k] for j < k, listed from the piece's own index array
                j, k = _row_pairs(*np.searchsorted(on, [a0, a1]), len(on))
                p, q = on[j] - a0, on[k]
                # one kernel per piece: lookup tables grow with the piece, not the cover
                out[p, q] = np.maximum(out[p, q], w.kernel.sq_dist(rows[j], rows[k]))
            return out[a - a0, b]
    row, at, tag, coef = (np.concatenate(v) for v in zip(*parts))
    order = np.argsort(row, kind="stable")
    glued = Witness._of(space, row[order], at[order], tag[order], tuple(tags), coef[order])

    def sides(a, b):
        lhs = glued.kernel.sq_dist(a, b)
        # every pair passes here once: the glued witness's variation sweep too
        variation.add(a, b, np.sqrt(lhs))
        return lhs, 2.0 * partition.kernel.l1_dist(a, b) + 2.0 * common(a, b)

    variation = _DistanceMax(space)
    variation_rec = _worst_pair("glue_variation_bound", space, sides, _ID_TOL) or \
        check_le("glue_variation_bound", 0.0, 0.0, tol=_ID_TOL,
                 note="single-point space, no pairs")

    tail_radii = _radii(space, tail_radii) or [0.0]
    glued_tail = tail_profile(glued, tail_radii)
    equi = np.zeros(len(tail_radii)) if glue_input.pieces is None else np.max(
        [[v for _, v in tail_profile(w, tail_radii)] for w in glue_input.pieces], axis=0)
    equi_tail = DecayProfile(tuple(zip(tail_radii, equi.tolist())))
    lhs = [v for _, v in glued_tail]
    j = int(np.argmax(lhs - equi))     # the first radius with the largest excess
    tail_rec = check_le("glue_tail_domination", lhs[j], float(equi[j]), tol=_ID_TOL,
                        witness=tail_radii[j])
    checks = (variation_rec, tail_rec)
    _require(checks)
    return GlueResult(glued, partition, checks, glued_tail, equi_tail, variation)


# ---------------------------------------------------------------- fibering

@dataclass(frozen=True)
class FiberingResult:
    witness: Witness
    pullback: PartitionOfUnity
    kept_pieces: tuple    # original piece index per kept preimage piece
    checks: tuple
    glue: GlueResult


def fibering_pipeline(cert: CoarseMapCert, partition: PartitionOfUnity,
                      pieces=None, radii=None, tail_radii=None) -> FiberingResult:
    """Pull a target partition back along a certified map, then glue the
    witnesses ``pieces(cover)`` over the preimage cover (Dirac ones for None).

    The pullback's variation at R is bounded by the target partition's
    variation at modulus(R); asserted on the sampled radii.
    """
    pulled, kept = pullback_partition(cert, partition)
    glued = glue_with_report(GlueInput(pulled, None if pieces is None else pieces(pulled.cover)),
                             tail_radii=tail_radii)

    radii = _radii(cert.source, radii)
    src_var = partition_variation_profile(pulled, radii)
    tgt_var = partition_variation_profile(partition, [cert.modulus(r) for r in radii])
    chain = tuple(
        check_le("fibering_variation_R=%g" % r, lv, tv[1], tol=1e-12, witness=pair)
        for (r, lv, pair), tv in zip(src_var, tgt_var))
    _require(chain)
    return FiberingResult(glued.witness, pulled, kept, chain + glued.checks, glued)


# --------------------------------------------------------------- separated

@dataclass(frozen=True)
class SeparatedResult:
    witness: Witness
    partition: PartitionOfUnity
    k: int
    L: float
    checks: tuple        # required: the end inequality variation(R) <= epsilon
    info: tuple          # the paper-side constant bookkeeping, informational
    glue: GlueResult


def separated_cover_pipeline(cover: Cover, L, sigma, R, epsilon, pieces=None,
                             tail_radii=None) -> SeparatedResult:
    """Separated-cover route: enlarge a (k,2L)-separated cover, Bell, glue the
    witnesses ``pieces(enlarged)`` (Dirac ones for None).

    k is the coloring's family count minus one. Preconditions (separation and
    k^2+1 <= L*sigma) raise; the end inequality (partition variation at R is
    at most epsilon) is recorded and, when it fails, falsifies the run
    without raising.
    """
    if cover.coloring is None:
        raise PreconditionError("separated pipeline needs a colored cover")
    k = len(set(cover.coloring)) - 1
    L, sigma, R, epsilon = float(L), float(sigma), float(R), float(epsilon)
    if L <= 0 or sigma <= 0:
        raise PreconditionError("need L > 0 and sigma > 0")
    if not family_separation(cover, k) > 2.0 * L:
        raise PreconditionError("cover is not (%d, %g)-separated" % (k, 2.0 * L))
    if k * k + 1 > L * sigma + 1e-12:
        raise PreconditionError(
            "hypothesis fails: k^2+1 = %g > L*sigma = %g" % (k * k + 1, L * sigma))

    enlarged = enlarge(cover, L)
    if multiplicity(enlarged) > k + 1:
        raise BoundViolationError("enlarged cover multiplicity exceeded k+1")
    partition = bell_partition(enlarged)
    glued = glue_with_report(GlueInput(partition, None if pieces is None else pieces(enlarged)),
                             tail_radii=tail_radii)

    var, pair = partition_variation_profile(partition, [R])[0][1:]
    end_rec = check_le("separated_variation_at_R", var, epsilon, witness=pair)
    info = (
        check_le("info_sigma_below_1_over_20R", sigma, 1.0 / (20.0 * R) if R > 0 else math.inf,
                 note="informational"),
        check_le("info_k2p1_ge_2(2k+2)(2k+3)Rsigma",
                 2.0 * (2 * k + 2) * (2 * k + 3) * R * sigma, k * k + 1.0,
                 note="informational"),
        check_le("info_k2p1_le_2Lsigmaeps", k * k + 1.0, 2.0 * L * sigma * epsilon,
                 note="informational"),
    )
    return SeparatedResult(glued.witness, partition, k, L,
                           (end_rec,) + glued.checks, info, glued)
