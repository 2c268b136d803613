"""Acceptance gate: one test per shipped guarantee, each registering a
pass/fail line in the terminal summary. Instance counts, tolerances, and
time budgets are part of the contract, so they are asserted literally."""

import contextlib
import functools
import json
import math
import os
import time

import numpy as np
import pytest

from coarse_lab import (
    ChainOfSubspaces,
    Cover,
    GlueInput,
    bell_lipschitz_constant,
    bell_partition,
    certify_quasi_action,
    check_kl_separated,
    cycle,
    cyclic_group,
    direct_limit_cover,
    dirac_witness,
    enlarge,
    free_group_ball,
    glue_with_report,
    grid,
    group_pipeline,
    lebesgue_report,
    multiplicity,
    r_multiplicity,
    separated_cover_pipeline,
    set_distance,
    space_from_graph,
    space_from_matrix,
    subspace_construction,
    tail_profile,
    uniform_ball_witness,
    variation_profile,
    word_metric_space,
    z2_ball,
    z_interval,
    Witness,
)
from coarse_lab.cli import run_scenario
from conftest import SCENARIO_DIR, record_criterion
from oracles import (
    dense_partition_variation,
    dense_tail,
    dense_variation,
    dense_vector_distance,
    dirac_piece_family,
    masses,
    uniform_ball_piece_family,
)
from test_witness import random_witness


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        record_criterion(number, label, False)
        raise
    record_criterion(number, label, True)


def random_space(rng, max_points):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return z_interval(0, int(rng.integers(1, max_points)))
    if kind == 1:
        return cycle(int(rng.integers(3, max_points + 1)))
    if kind == 2:
        a = int(rng.integers(2, 7))
        b = int(rng.integers(2, max(3, max_points // a) + 1))
        return grid([a, min(b, max_points // a)], "l1")
    n = int(rng.integers(2, max_points + 1))
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return space_from_graph(list(range(n)), edges)


def test_criterion_1_subspace_exact_identities():
    with criterion(1, "subspace identities on >=100 randomized instances"):
        rng = np.random.default_rng(20260814)
        t0 = time.monotonic()
        instances = 0
        while instances < 100:
            space = random_space(rng, 40)
            if len(space) < 2:
                continue
            w = random_witness(space, rng, entries=min(3, len(space)))
            size = int(rng.integers(1, len(space) + 1))
            pick = sorted(int(i) for i in
                          rng.choice(len(space), size=size, replace=False))
            members = [space.point_ids[i] for i in pick]
            res = subspace_construction(w, np.array(pick), tail_radii=[0.0])
            ids = res.subspace.point_ids
            assert ids == tuple(members)
            for a in range(len(ids)):
                y = ids[a]
                norm = math.sqrt(sum(c * c for c in res.tagged.vectors[y].values()))
                assert abs(norm - 1.0) <= 1e-9
                for b in range(a + 1, len(ids)):
                    yp = ids[b]
                    dxi = dense_vector_distance(res.tagged.vectors[y],
                                                res.tagged.vectors[yp])
                    dbeta = dense_vector_distance(w.vectors[y], w.vectors[yp])
                    deta = dense_vector_distance(res.collapsed.vectors[y],
                                                 res.collapsed.vectors[yp])
                    assert abs(dxi - dbeta) <= 1e-9
                    assert deta <= dxi + 1e-12
            instances += 1
        assert instances >= 100
        assert time.monotonic() - t0 < 10.0


def interval_block_cover(n, width, stride):
    sp = z_interval(0, n - 1)
    pieces = []
    a = 0
    while a < n:
        pieces.append(frozenset(range(a, min(a + width, n))))
        a += stride
    return Cover(sp, tuple(pieces))


def arc_cover(n, width, step):
    sp = cycle(n)
    pieces = tuple(frozenset((a + j) % n for j in range(width))
                   for a in range(0, n, step))
    return Cover(sp, pieces)


def brick_cover(dims, width, stride):
    sp = grid(dims, "l1")
    axes = []
    for m in dims:
        starts, a = [], 0
        while a < m:
            starts.append(a)
            a += stride
        axes.append([frozenset(range(s, min(s + width, m))) for s in starts])
    pieces = []
    for bx in axes[0]:
        for by in axes[1]:
            pieces.append(frozenset((x, y) for x in bx for y in by))
    return Cover(sp, tuple(pieces))


def generated_bell_covers():
    covers = []
    for n, w, s in [(20, 6, 4), (30, 12, 6), (40, 18, 12), (60, 24, 12),
                    (80, 30, 15), (100, 40, 20), (30, 8, 3), (40, 12, 4),
                    (24, 9, 3), (50, 20, 5), (64, 16, 8), (90, 36, 18),
                    (25, 10, 5), (45, 15, 9), (70, 28, 14), (100, 25, 10)]:
        covers.append(interval_block_cover(n, w, s))
    for n, w, s in [(12, 6, 4), (24, 10, 6), (36, 12, 9), (18, 9, 3),
                    (30, 15, 5), (16, 8, 4), (20, 10, 5), (40, 16, 8),
                    (48, 24, 12), (60, 20, 10), (14, 8, 6), (28, 14, 7),
                    (32, 12, 8), (44, 22, 11), (54, 18, 6), (26, 15, 11)]:
        covers.append(arc_cover(n, w, s))
    for dims, w, s in [([6, 6], 4, 2), ([8, 8], 6, 4), ([10, 6], 6, 4),
                       ([7, 7], 5, 3), ([9, 5], 5, 3), ([10, 10], 6, 4),
                       ([5, 5], 4, 2), ([8, 6], 6, 4), ([6, 9], 4, 2),
                       ([10, 8], 6, 3), ([7, 9], 6, 4), ([9, 9], 6, 3),
                       ([8, 5], 5, 3), ([6, 4], 4, 2), ([5, 10], 4, 2),
                       ([10, 4], 6, 4), ([4, 4], 4, 2), ([9, 6], 6, 3)]:
        covers.append(brick_cover(dims, w, s))
    # keep only covers inside the contracted parameter box
    kept = [c for c in covers
            if 1 <= multiplicity(c) <= 4 and 1.0 <= lebesgue_report(c)[0] <= 20.0]
    return kept


def test_criterion_2_bell_bound_zero_violations():
    with criterion(2, "Bell Lipschitz bound on >=50 generated covers"):
        covers = generated_bell_covers()
        assert len(covers) >= 50
        violations = 0
        for cov in covers:
            part = bell_partition(cov)
            C = bell_lipschitz_constant(cov)
            sp = cov.space
            at = masses(part)
            n = len(sp)
            Phi = np.zeros((len(cov.pieces), n))
            for j, x in enumerate(sp.point_ids):
                for i, v in at[x].items():
                    Phi[i, j] = v
            S = np.abs(Phi[:, :, None] - Phi[:, None, :]).sum(axis=0)
            excess = S - C * sp.D - 1e-9
            np.fill_diagonal(excess, -1.0)
            violations += int((excess > 0).sum())
        assert violations == 0


def clustered_line(clusters, width, gap):
    """Disjoint integer blocks with the inherited |x - y| metric."""
    points = []
    for c in range(clusters):
        base = c * (width + gap)
        points.extend(range(base, base + width))
    mat = [[float(abs(p - q)) for q in points] for p in points]
    sp = space_from_matrix(points, mat)
    pieces = tuple(frozenset(range(c * (width + gap), c * (width + gap) + width))
                   for c in range(clusters))
    return sp, pieces


def separated_fact_instances():
    """(cover, k, L) triples, each (k,2L)-separated by construction."""
    out = []
    # one family of clusters; consecutive blocks sit gap+width-width = gap
    # past each other, so set distance is gap > 2L
    for clusters, w, gap, L in [(5, 20, 11, 5), (10, 6, 9, 4), (4, 25, 9, 4),
                                (20, 4, 3, 1), (9, 9, 5, 2)]:
        sp, pieces = clustered_line(clusters, w, gap)
        cov = Cover(sp, pieces, coloring=tuple(0 for _ in pieces))
        out.append((cov, 0, L))
    # two interleaved colored block families
    for n, w, L in [(100, 25, 10), (100, 10, 4), (72, 18, 8), (48, 12, 4)]:
        sp = z_interval(0, n - 1)
        pieces, colors = [], []
        for j, a in enumerate(range(0, n, w)):
            pieces.append(frozenset(range(a, min(a + w, n))))
            colors.append(j % 2)
        cov = Cover(sp, tuple(pieces), coloring=tuple(colors))
        out.append((cov, 1, L))
    # three-color arcs on a cycle
    for n, w, L in [(90, 30, 14), (60, 20, 9)]:
        pieces = tuple(frozenset((a + j) % n for j in range(w))
                       for a in range(0, n, w))
        cov = Cover(cycle(n), pieces,
                    coloring=tuple(j % 3 for j in range(len(pieces))))
        out.append((cov, 2, L))
    return out


def test_criterion_3_cover_facts_exhaustive():
    with criterion(3, "separation and enlargement facts, exhaustive on |X| <= 100"):
        instances = separated_fact_instances()
        assert any(len(c.space) == 100 for c, _, _ in instances)
        for cov, k, L in instances:
            assert len(cov.space) <= 100
            assert check_kl_separated(cov, k, 2.0 * L)
            assert r_multiplicity(cov, L) <= k + 1
        # second fact applies to any cover with L-multiplicity <= k+1,
        # separated or not
        extra = [(interval_block_cover(100, 40, 20), 2, 10.0),
                 (arc_cover(36, 12, 9), 3, 2.0)]
        checked = 0
        for cov, k, L in [(c, kk, float(ll)) for c, kk, ll in instances] + extra:
            if r_multiplicity(cov, L) <= k + 1:
                big = enlarge(cov, L)
                assert multiplicity(big) <= k + 1
                assert lebesgue_report(big)[0] >= L
                checked += 1
        assert checked >= 10


# ------------------------------------------------------- shared pipelines

def rotation_maps(n_group, n_cycle):
    return np.array([[(x + g) % n_cycle for x in range(n_cycle)] for g in range(n_group)])


def perturbed_maps(n_group, n_cycle, ga, xa, mod, shift):
    return np.array([[(x + g + ((ga * g + xa * x) % mod) - shift) % n_cycle
                      for x in range(n_cycle)] for g in range(n_group)])


@functools.lru_cache(maxsize=None)
def group_runs():
    """Isometric and |p|<=1 perturbed Z_60 actions on the 12-cycle, R=1."""
    sp = cycle(12)
    cover = Cover(sp, tuple(frozenset((a + j) % 12 for j in range(6))
                            for a in (0, 4, 8)))
    iso_act = certify_quasi_action(cyclic_group(60), sp, rotation_maps(60, 12))
    pert_act = certify_quasi_action(cyclic_group(60), sp,
                                    perturbed_maps(60, 12, 5, 1, 3, 1))
    return ((iso_act, group_pipeline(iso_act, 0, cover, R=1.0)),
            (pert_act, group_pipeline(pert_act, 0, cover, R=1.0)))


@functools.lru_cache(maxsize=None)
def separated_run():
    sp = z_interval(0, 99)
    cover = Cover(sp, (frozenset(range(0, 50)), frozenset(range(50, 100))),
                  coloring=(0, 1))
    return separated_cover_pipeline(cover, L=20, sigma=0.1, R=1.0, epsilon=0.6,
                                    tail_radii=[0.0, 1.0])


def oracle_check_glue(partition, piece_vectors, glue_result, tol=1e-9):
    """Re-verify the combination and tail bounds with plain double loops."""
    space = partition.space
    at = masses(partition)
    pieces = partition.cover.pieces
    ids = space.point_ids
    for a in range(len(ids)):
        x = ids[a]
        for b in range(a + 1, len(ids)):
            y = ids[b]
            lhs = dense_vector_distance(glue_result.witness.vectors[x],
                                        glue_result.witness.vectors[y]) ** 2
            mx, my = at[x], at[y]
            l1 = sum(abs(mx.get(i, 0.0) - my.get(i, 0.0))
                     for i in set(mx) | set(my))
            common = 0.0
            for i, piece in enumerate(pieces):
                if x in piece and y in piece:
                    common = max(common, dense_vector_distance(
                        piece_vectors[i][x], piece_vectors[i][y]) ** 2)
            assert lhs <= 2.0 * l1 + 2.0 * common + tol, (x, y)
    for s_val, lv in glue_result.glued_tail.samples:
        assert lv <= glue_result.equi_tail.value_at(s_val) + tol


def explicit_glue_corpus():
    """Glue calls with piece witnesses kept around for oracle re-checks."""
    cases = []

    def add(cover, family, require_lebesgue=True):
        part = bell_partition(cover, require_lebesgue=require_lebesgue)
        gi = GlueInput(part, family)
        res = glue_with_report(gi, tail_radii=[0.0, 1.0, 2.0])
        vectors = {i: gi.pieces[i].vectors for i in range(len(gi.pieces))}
        cases.append((part, vectors, res))

    c12 = cycle(12)
    arcs = Cover(c12, tuple(frozenset((a + j) % 12 for j in range(6))
                            for a in (0, 4, 8)))
    add(arcs, dirac_piece_family(arcs))
    add(arcs, uniform_ball_piece_family(arcs, 1))

    iv = z_interval(0, 29)
    blocks = Cover(iv, (frozenset(range(0, 18)), frozenset(range(12, 30))))
    add(blocks, dirac_piece_family(blocks))
    add(blocks, uniform_ball_piece_family(blocks, 2))

    p5 = space_from_graph(list(range(5)), [(i, i + 1) for i in range(4)])
    tight = Cover(p5, (frozenset({0, 1, 2}), frozenset({2, 3, 4})))
    add(tight, dirac_piece_family(tight), require_lebesgue=False)

    doubled = Cover(p5, (frozenset(p5.point_ids), frozenset(p5.point_ids)))
    add(doubled, dirac_piece_family(doubled), require_lebesgue=False)

    g66 = grid([6, 6], "l1")
    bricks = []
    for ax in (frozenset(range(0, 4)), frozenset(range(2, 6))):
        for ay in (frozenset(range(0, 4)), frozenset(range(2, 6))):
            bricks.append(frozenset((x, y) for x in ax for y in ay))
    add(Cover(g66, tuple(bricks)), dirac_piece_family(Cover(g66, tuple(bricks))))
    return cases


def test_criterion_4_glue_bound_on_corpus():
    with criterion(4, "glue combination and tail bounds on the full corpus"):
        for part, vectors, res in explicit_glue_corpus():
            oracle_check_glue(part, vectors, res)
        # pipeline-internal glue calls, re-checked the same way
        for act, run in group_runs():
            vectors = {pos: sr.collapsed.vectors
                       for pos, sr in enumerate(run.subspace_results)}
            oracle_check_glue(run.partition, vectors, run.glue)
        sep = separated_run()
        sep_vectors = {i: dirac_witness(sep.partition.space.restrict(p)).vectors
                       for i, p in enumerate(sep.partition.cover.pieces)}
        oracle_check_glue(sep.partition, sep_vectors, sep.glue)


def oracle_space_corpus():
    rng = np.random.default_rng(99)
    spaces = [
        z_interval(0, 59),
        cycle(60),
        grid([6, 10], "l1"),
        z2_ball(3, "linf"),
        word_metric_space(cyclic_group(60)),
        word_metric_space(free_group_ball(2, 2)),
    ]
    for _ in range(6):
        spaces.append(random_space(rng, 60))
    return [s for s in spaces if len(s) <= 60], rng


def test_criterion_5_sparse_dense_oracle_equivalence():
    with criterion(5, "sparse profiles match dense double loops to 1e-12"):
        spaces, rng = oracle_space_corpus()
        assert len(spaces) >= 10
        for sp in spaces:
            radii = sorted({0.0, 1.0, 2.0, 5.0, sp.diameter / 2.0, sp.diameter})
            witnesses = [dirac_witness(sp), uniform_ball_witness(sp, 1),
                         uniform_ball_witness(sp, 2),
                         random_witness(sp, rng, entries=min(4, len(sp))),
                         random_witness(sp, rng, tagged=True,
                                        entries=min(3, len(sp)))]
            for w in witnesses:
                var = variation_profile(w, radii)
                tail = tail_profile(w, radii)
                for (r, sv) in var:
                    assert abs(sv - dense_variation(w, r)) <= 1e-12
                for (s, tv) in tail.samples:
                    assert abs(tv - dense_tail(w, s)) <= 1e-12


def test_criterion_6_direct_limit_chain():
    with criterion(6, "truncated chain cover: multiplicity, Lebesgue, disjointness"):
        amb = z_interval(-20, 20)
        stages = [frozenset(p for p in amb.point_ids if abs(p) <= r)
                  for r in range(1, 21)]
        chain = ChainOfSubspaces(amb, stages)
        for L in (1, 2, 3):
            res = direct_limit_cover(chain, L)
            assert multiplicity(res.cover) <= 2
            assert lebesgue_report(res.cover)[0] >= float(L)
            pieces = res.cover.pieces
            for i in range(len(pieces)):
                for j in range(i + 2, len(pieces)):
                    assert not (pieces[i] & pieces[j])
                    assert set_distance(amb, pieces[i], pieces[j]) > 0.0


def test_criterion_7_group_action_end_to_end():
    with criterion(7, "order-60 rotation actions on the 12-cycle, end to end"):
        t0 = time.monotonic()
        runs = group_runs()
        (iso_act, iso), (pert_act, pert) = runs
        assert iso_act.A == 0.0 and iso_act.B == 0.0
        assert pert_act.A <= 1.0  # |p| <= 1 perturbation
        for act, run in runs:
            # epsilon chosen by the smallest-admissible-L formula
            needed = 2.0 * act.ell(run.lam) * 1.0 * (2 * run.k + 2) * (2 * run.k + 3)
            assert run.epsilon == needed / run.L
            # partition variation over ALL word-metric pairs at R=1
            assert dense_partition_variation(run.partition, 1.0) <= run.epsilon + 1e-9
            # translated preimages sit inside the quasi-stabilizer, exactly
            G = act.group
            stab_set = set(run.stabilizer.space.point_ids)
            for pos, i in enumerate(run.kept_pieces):
                inv = G.inverse[G.index(run.reps[pos])]
                for g in run.group_cover.pieces[pos]:
                    h = G.elements[G.mult[inv, G.index(g)]]
                    assert h in stab_set
                    fh0 = act.img[G.index(h), act.space.index(0)]
                    assert act.space.d(act.space.point_ids[fh0], 0) <= run.threshold + 1e-9
            vectors = {pos: sr.collapsed.vectors
                       for pos, sr in enumerate(run.subspace_results)}
            oracle_check_glue(run.partition, vectors, run.glue)
        assert time.monotonic() - t0 < 10.0


def test_criterion_8_separated_pipeline_interval():
    with criterion(8, "separated two-color pipeline on the 100-point interval"):
        res = separated_run()
        assert res.k == 1 and res.L == 20.0
        assert res.k ** 2 + 1 <= res.L * 0.1 + 1e-12  # hypothesis 2 <= 2
        assert dense_partition_variation(res.partition, 1.0) <= 0.6
        end = res.checks[0]
        assert end.name == "separated_variation_at_R" and end.passed


def test_criterion_9_certificates_are_deterministic(tmp_path):
    with criterion(9, "byte-identical certificates on scenario re-runs"):
        names = sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".json"))
        assert len(names) == 11
        for name in names:
            src = os.path.join(SCENARIO_DIR, name)
            base = name[:-len(".json")]
            pair = []
            for d in ("first", "second"):
                out = tmp_path / d / base
                out.mkdir(parents=True)
                run_scenario(src, out_dir=str(out), quiet=True)
                pair.append((out / (base + ".certificate.json")).read_bytes())
            assert pair[0] == pair[1], name
