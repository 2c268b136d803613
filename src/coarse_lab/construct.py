"""Witness constructions: subspace restriction, net extension, gluing along a
partition of unity, pullback along a certified map, and the separated-cover
pipeline.

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

from .cover import Cover, check_kl_separated, enlarge, lebesgue_number, multiplicity
from .errors import BoundViolationError, PreconditionError, ValidationError
from .partition import (PartitionOfUnity, _mass_entries, bell_partition,
                        partition_variation_profile, pullback_partition)
from .report import check_le
from .space import (CoarseMapCert, FiniteMetricSpace, _pair_chunks, _SparseRows,
                    _worst_pair, is_c_net)
from .witness import (DecayProfile, Witness, _gather, _row_norms, collapse, dirac_witness,
                      tail_profile, uniform_ball_witness, variation_profile)

_ID_TOL = 1e-9


def _require(records, kind=BoundViolationError):
    for rec in records:
        if not rec.passed:
            raise kind("%s failed: %r > %r at %r" % (rec.name, rec.lhs, rec.rhs, rec.witness))


def _sample_grid(space: FiniteMetricSpace, cap=24):
    """Deterministic subsample of the realized distances, ends included."""
    grid = space.realized_distances()
    if len(grid) <= cap:
        return grid
    keep = np.unique(np.linspace(0, len(grid) - 1, cap).astype(int))
    return [grid[i] for i in keep]


# ---------------------------------------------------------------- subspace

@dataclass(frozen=True)
class SubspaceWitnessResult:
    subspace: FiniteMetricSpace
    tagged: Witness       # xi over (ambient source, retraction image) entries
    collapsed: Witness    # eta, grouped by retraction image
    retraction: dict      # ambient point -> nearest subspace point
    checks: tuple         # exact identities, asserted
    tail_checks: tuple    # empirical S/3 control, recorded only


def subspace_construction(witness: Witness, members, tail_radii=None) -> SubspaceWitnessResult:
    """Restrict a bare witness on X to a subspace Y via nearest-point retraction.

    xi_y carries beta_y's coefficient at ambient point s on the entry
    (tag=s, point=p(s)); eta collapses by the retraction image. Norms and
    pair distances of xi match beta exactly because entries stay keyed by s.
    """
    if witness.tagged:
        raise ValidationError("subspace construction starts from a bare witness")
    ambient = witness.space
    members = ambient.sorted_ids(frozenset(members))
    if not members:
        raise ValidationError("subspace must be nonempty")
    sub = ambient.restrict(members)
    idx = ambient.indices(members)
    # first minimum over the members in stored order: earliest-stored tie-break
    nearest = np.argmin(ambient.D[:, idx], axis=1)
    retraction = {s: members[i] for s, i in zip(ambient.point_ids, nearest.tolist())}
    # beta's entry at ambient index s becomes the entry (tag s, point p(s))
    k, row = _gather(witness._ptr, idx)
    src = witness.at[k]
    tagged = Witness._of(sub, row, nearest[src], src, ambient.point_ids, witness.coef[k])
    eta = collapse(tagged)

    norm_dev = float(np.abs(_row_norms(len(sub), tagged.row, tagged.coef) - 1.0).max())
    xi_rows, beta_rows, eta_rows = tagged._kernel(), witness._kernel(idx), eta._kernel()
    match_dev = 0.0
    contraction = 0.0
    for a, b in _pair_chunks(len(members)):
        dxi = np.sqrt(xi_rows.sq_dist(a, b))
        dbeta = np.sqrt(beta_rows.sq_dist(a, b))
        deta = np.sqrt(eta_rows.sq_dist(a, b))
        match_dev = max(match_dev, float(np.abs(dxi - dbeta).max()))
        contraction = max(contraction, float((deta - dxi).max()))
    checks = (
        check_le("subspace_xi_unit_norm_dev", norm_dev, 0.0, tol=_ID_TOL),
        check_le("subspace_xi_matches_beta_dev", match_dev, 0.0, tol=_ID_TOL),
        check_le("subspace_eta_nonexpansive_excess", contraction, 0.0, tol=1e-12),
    )
    _require(checks)

    if tail_radii is None:
        tail_radii = _sample_grid(sub)
    tail_radii = sorted(float(s) for s in tail_radii)
    eta_tail = tail_profile(eta, tail_radii)
    beta_tail_all = tail_profile(witness, sorted({float(math.floor(s / 3.0)) for s in tail_radii}
                                                 | {float(s) for s in tail_radii}))
    tail_checks = []
    for s, lhs in eta_tail:
        rhs = beta_tail_all.value_at(math.floor(s / 3.0)) + beta_tail_all.value_at(s)
        tail_checks.append(check_le("subspace_tail_S=%g" % s, lhs, rhs, tol=1e-12,
                                    note="empirical check, not an assumed theorem"))
    return SubspaceWitnessResult(sub, tagged, eta, retraction, checks, tuple(tail_checks))


# --------------------------------------------------------------------- net

@dataclass(frozen=True)
class NetWitnessResult:
    witness: Witness
    c: float
    assignment: dict      # ambient point -> chosen net point
    checks: tuple         # variation/tail transfer bounds, asserted


def net_construction(ambient: FiniteMetricSpace, net_members, witness: Witness,
                     c=None, radii=None, tail_radii=None) -> NetWitnessResult:
    """Extend a witness on a c-net to the ambient space by xi_x = beta_{q(x)}."""
    net_members = ambient.sorted_ids(frozenset(net_members))
    if witness.tagged:
        raise ValidationError("net construction starts from a bare witness")
    if set(witness.space.point_ids) != set(net_members):
        raise ValidationError("witness must live on the net")
    idx = ambient.indices(net_members)
    covering = float(ambient.D[:, idx].min(axis=1).max())
    if c is None:
        c = covering
    c = float(c)
    if not is_c_net(ambient, net_members, c):
        raise PreconditionError(
            "net condition fails: covering radius %r exceeds c=%r" % (covering, c))
    nearest = np.argmin(ambient.D[:, idx], axis=1)
    q = {x: net_members[i] for x, i in zip(ambient.point_ids, nearest.tolist())}
    # xi_x is beta's vector at q(x), its entries moved to ambient indices
    on = np.array(ambient.indices(witness.space.point_ids))
    k, row = _gather(witness._ptr, np.array(witness.space.indices(net_members))[nearest])
    out = Witness._of(ambient, row, on[witness.at[k]], witness.tag[k], witness.tags,
                      witness.coef[k])

    if radii is None:
        radii = _sample_grid(ambient)
    radii = sorted(float(r) for r in radii)
    out_var = variation_profile(out, radii)
    base_var = variation_profile(witness, [r + 2.0 * c for r in radii])
    checks = [check_le("net_variation_R=%g" % r, lv, bv[1], tol=1e-12)
              for (r, lv), bv in zip(out_var, base_var)]

    if tail_radii is None:
        tail_radii = _sample_grid(ambient)
    tail_radii = sorted(float(s) for s in tail_radii if s > c)
    if tail_radii:
        out_tail = tail_profile(out, tail_radii)
        base_tail = tail_profile(witness, [s - c for s in tail_radii])
        for (s, lv), (_, bv) in zip(out_tail, base_tail):
            checks.append(check_le("net_tail_S=%g" % s, lv, bv, tol=1e-12))
    _require(checks)
    return NetWitnessResult(out, c, q, tuple(checks))


# -------------------------------------------------------------------- glue

@dataclass(frozen=True)
class GlueInput:
    """A partition of unity plus one piece witness per cover piece.

    Piece witness i must live on exactly U_i with the restricted metric;
    this keeps the variation check's two-sided/one-sided case split honest.
    """

    partition: PartitionOfUnity
    pieces: tuple

    def __post_init__(self):
        cover = self.partition.cover
        if len(self.pieces) != len(cover.pieces):
            raise ValidationError("need one piece witness per cover piece")
        space = self.partition.space
        for i, (piece, w) in enumerate(zip(cover.pieces, self.pieces)):
            if not isinstance(w, Witness):
                raise ValidationError("piece %d is not a witness" % i)
            have = set(w.space.point_ids)
            if have != set(piece):
                missing = space.sorted_ids(set(piece) - have) or \
                    space.sorted_ids(have - set(piece))
                raise ValidationError(
                    "piece %d witness does not cover point %r of the piece"
                    % (i, missing[0]))
            want = space.restrict(piece)
            if not np.allclose(w.space.D, want.D, atol=1e-12, rtol=0.0):
                raise ValidationError(
                    "piece %d witness metric is not the restricted metric" % i)


def make_glue_input(partition: PartitionOfUnity, piece_witnesses) -> GlueInput:
    if isinstance(piece_witnesses, dict):
        seq = [piece_witnesses[i] for i in range(len(partition.cover.pieces))]
    else:
        seq = list(piece_witnesses)
    return GlueInput(partition, tuple(seq))


@dataclass(frozen=True)
class GlueResult:
    witness: Witness
    partition: PartitionOfUnity
    checks: tuple
    glued_tail: DecayProfile
    equi_tail: DecayProfile


def glue_with_report(glue_input: GlueInput, tail_radii=None) -> GlueResult:
    """Glue piece witnesses: xi_x((i, tag), u) = sqrt(phi_i(x)) * beta^i_x(tag, u).

    Asserts the combination bound
        ||xi_x - xi_y||^2 <= 2 sum_i |phi_i(x) - phi_i(y)| + 2 max_i ||beta^i_x - beta^i_y||^2
    (max over pieces containing both points) and tail domination by the piece
    family's equi-tail on a sampled grid.
    """
    partition = glue_input.partition
    space = partition.space
    n = len(space)
    # the piece witnesses stacked into one set of entry arrays, with tags
    # (i, tag); piece_row[i, a] is the stacked row of piece i's vector at
    # point a, or -1 off the piece
    piece_row = np.full((len(glue_input.pieces), n), -1, dtype=np.int64)
    parts, tags, n_rows = [], [], 0
    for i, w in enumerate(glue_input.pieces):
        on = np.array(space.indices(w.space.point_ids))
        piece_row[i, on] = np.arange(n_rows, n_rows + len(on))
        parts.append((w.row + n_rows, on[w.at], w.tag + len(tags), w.coef))
        tags.extend((i, t) for t in w.tags)
        n_rows += len(on)
    s_row, s_at, s_tag, s_coef = (np.concatenate(v) for v in zip(*parts))
    piece_rows = _SparseRows(n_rows, s_row, s_tag * n + s_at, s_coef)
    # xi_x: sqrt(phi_i(x)) times piece i's vector at x, over x's pieces in order
    m_row, m_piece, m_phi = _mass_entries(partition)
    k, pos = _gather(np.searchsorted(s_row, np.arange(n_rows + 1)),
                     piece_row[m_piece, m_row])
    glued = Witness._of(space, m_row[pos], s_at[k], s_tag[k], tuple(tags),
                        np.sqrt(m_phi)[pos] * s_coef[k])
    glued_rows = glued._kernel()
    mass_rows = _SparseRows(n, m_row, m_piece, m_phi)

    def bound_chunks():
        for a, b in _pair_chunks(n):
            common = np.zeros(len(a))
            # a chunk's first points are consecutive: skip the pieces missing them all
            for row in piece_row[(piece_row[:, a[0]:a[-1] + 1] >= 0).any(axis=1)]:
                ra, rb = row[a], row[b]
                both = np.flatnonzero((ra >= 0) & (rb >= 0))
                if both.size:
                    common[both] = np.maximum(common[both],
                                              piece_rows.sq_dist(ra[both], rb[both]))
            yield (a, b, glued_rows.sq_dist(a, b),
                   2.0 * mass_rows.l1_dist(a, b) + 2.0 * common)

    worst = _worst_pair(bound_chunks())
    if worst is None:
        variation_rec = check_le("glue_variation_bound", 0.0, 0.0, tol=_ID_TOL,
                                 note="single-point space, no pairs")
    else:
        lhs, rhs, a, b = worst
        variation_rec = check_le("glue_variation_bound", lhs, rhs, tol=_ID_TOL,
                                 witness=(space.point_ids[a], space.point_ids[b]))

    if tail_radii is None:
        tail_radii = _sample_grid(space)
    tail_radii = sorted(float(s) for s in tail_radii) or [0.0]
    glued_tail = tail_profile(glued, tail_radii)
    acc = [0.0] * len(tail_radii)
    for w in glue_input.pieces:
        for j, (_, v) in enumerate(tail_profile(w, tail_radii)):
            acc[j] = max(acc[j], v)
    equi_tail = DecayProfile(tuple(zip(tail_radii, acc)))
    worst_tail = None
    for (s, lv), (_, ev) in zip(glued_tail, equi_tail):
        if worst_tail is None or lv - ev > worst_tail[0]:
            worst_tail = (lv - ev, lv, ev, s)
    tail_rec = check_le("glue_tail_domination", worst_tail[1], worst_tail[2], tol=_ID_TOL,
                        witness=worst_tail[3])
    checks = (variation_rec, tail_rec)
    _require(checks)
    return GlueResult(glued, partition, checks, glued_tail, equi_tail)


def dirac_piece_family(cover: Cover):
    return {i: dirac_witness(cover.space.restrict(p)) for i, p in enumerate(cover.pieces)}


def uniform_ball_piece_family(cover: Cover, radius):
    return {i: uniform_ball_witness(cover.space.restrict(p), radius)
            for i, p in enumerate(cover.pieces)}


# ---------------------------------------------------------------- fibering

@dataclass(frozen=True)
class FiberingResult:
    witness: Witness
    pullback: PartitionOfUnity
    kept_pieces: tuple    # original piece index per kept preimage piece
    checks: tuple
    glue: GlueResult


def fibering_pipeline(cert: CoarseMapCert, partition: PartitionOfUnity,
                      pieces=dirac_piece_family, radii=None, tail_radii=None) -> FiberingResult:
    """Pull a target partition back along a certified map, then glue the
    witnesses ``pieces(cover)`` over the preimage cover.

    The pullback's variation at R is bounded by the target partition's
    variation at modulus(R); asserted on the sampled radii.
    """
    pulled, kept = pullback_partition(cert, partition)
    gi = make_glue_input(pulled, pieces(pulled.cover))
    glued = glue_with_report(gi, tail_radii=tail_radii)

    if radii is None:
        radii = _sample_grid(cert.source)
    radii = sorted(float(r) for r in radii)
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
    enlarged: Cover
    k: int
    L: float
    checks: tuple        # required: the end inequality variation(R) <= epsilon
    info: tuple          # the paper-side constant bookkeeping, informational
    glue: GlueResult


def separated_cover_pipeline(space: FiniteMetricSpace, cover: Cover, L, sigma, R,
                             epsilon, pieces=dirac_piece_family,
                             tail_radii=None) -> SeparatedResult:
    """Separated-cover route: enlarge a (k,2L)-separated cover, Bell, glue the
    witnesses ``pieces(enlarged)``.

    k is the coloring's family count minus one. Preconditions (separation and
    k^2+1 <= L*sigma) raise; the end inequality (partition variation at R is
    at most epsilon) is recorded and, when it fails, falsifies the run
    without raising.
    """
    if cover.coloring is None:
        raise PreconditionError("separated pipeline needs a colored cover")
    k = len(set(cover.coloring)) - 1
    L = float(L)
    sigma = float(sigma)
    R = float(R)
    epsilon = float(epsilon)
    if L <= 0 or sigma <= 0:
        raise PreconditionError("need L > 0 and sigma > 0")
    if not check_kl_separated(cover, k, 2.0 * L):
        raise PreconditionError("cover is not (%d, %g)-separated" % (k, 2.0 * L))
    if k * k + 1 > L * sigma + 1e-12:
        raise PreconditionError(
            "hypothesis fails: k^2+1 = %g > L*sigma = %g" % (k * k + 1, L * sigma))

    enlarged = enlarge(cover, L)
    if multiplicity(enlarged) > k + 1:
        raise BoundViolationError("enlarged cover multiplicity exceeded k+1")
    partition = bell_partition(enlarged)
    glued = glue_with_report(make_glue_input(partition, pieces(enlarged)),
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
    return SeparatedResult(glued.witness, partition, enlarged, k, L,
                           (end_rec,) + glued.checks, info, glued)
