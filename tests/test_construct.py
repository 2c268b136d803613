"""Witness constructions: subspace retraction, net expansion, gluing along a
partition of unity, fibered pullback, and the separated-cover route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    Cover,
    GlueInput,
    PreconditionError,
    ValidationError,
    Witness,
    bell_partition,
    check_coarse_map,
    cycle,
    dirac_piece_family,
    dirac_witness,
    fibering_pipeline,
    glue_with_report,
    grid,
    make_glue_input,
    net_construction,
    partition_variation_profile,
    separated_cover_pipeline,
    space_from_graph,
    subspace_construction,
    tail_profile,
    transport,
    uniform_ball_piece_family,
    uniform_ball_witness,
    variation_profile,
    z2_ball,
    z_interval,
)
from coarse_lab import space as space_module
from coarse_lab.partition import _bell_lipschitz_check
from oracles import (dense_bell_lipschitz, dense_glue_bound, dense_subspace_records,
                     dense_variation, dense_vector_distance)

SQRT2 = math.sqrt(2.0)


def path_graph(n):
    return space_from_graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


class TestSubspace:
    def test_full_subspace_is_identity(self):
        s = z_interval(0, 6)
        w = uniform_ball_witness(s, 1)
        res = subspace_construction(w, s.point_ids)
        assert res.retraction == {p: p for p in s.point_ids}
        assert res.collapsed.vectors == w.vectors

    def test_path_retraction_ties_go_to_earliest(self):
        s = path_graph(3)
        res = subspace_construction(dirac_witness(s), [0, 2])
        assert res.retraction[1] == 0
        assert res.collapsed.vectors[0] == {(None, 0): 1.0}
        assert res.collapsed.vectors[2] == {(None, 2): 1.0}

    def test_interval_endpoints_collapse_uniform_ball(self):
        s = z_interval(0, 4)
        res = subspace_construction(uniform_ball_witness(s, 1), [0, 4])
        # ball around 0 sits in {0,1}, both retract to 0
        assert res.collapsed.vectors[0] == pytest.approx({(None, 0): 1.0})
        assert res.collapsed.vectors[4] == pytest.approx({(None, 4): 1.0})

    def test_exact_identities_hold(self):
        s = z_interval(0, 9)
        w = uniform_ball_witness(s, 2)
        members = [0, 3, 4, 8, 9]
        res = subspace_construction(w, members)
        assert all(c.passed for c in res.checks)
        for y in members:
            norm = math.sqrt(sum(c * c for c in res.tagged.vectors[y].values()))
            assert norm == pytest.approx(1.0, abs=1e-9)
        for a, y in enumerate(members):
            for yp in members[a + 1:]:
                dxi = dense_vector_distance(res.tagged.vectors[y], res.tagged.vectors[yp])
                dbeta = dense_vector_distance(w.vectors[y], w.vectors[yp])
                deta = dense_vector_distance(res.collapsed.vectors[y], res.collapsed.vectors[yp])
                assert dxi == pytest.approx(dbeta, abs=1e-9)
                assert deta <= dxi + 1e-12

    def test_tail_checks_are_recorded_as_empirical(self):
        s = z_interval(0, 9)
        res = subspace_construction(uniform_ball_witness(s, 2), [0, 3, 6, 9],
                                    tail_radii=[0.0, 3.0, 6.0])
        assert len(res.tail_checks) == 3
        assert all("empirical" in c.note for c in res.tail_checks)

    def test_tagged_input_rejected(self):
        s = path_graph(3)
        w = Witness(s, {x: {("t", x): 1.0} for x in s.point_ids})
        with pytest.raises(ValidationError):
            subspace_construction(w, [0, 2])

    def test_empty_subspace_rejected(self):
        with pytest.raises(ValidationError):
            subspace_construction(dirac_witness(path_graph(3)), [])


class TestNet:
    def test_whole_space_net_is_identity(self):
        s = z_interval(0, 5)
        w = uniform_ball_witness(s, 1)
        res = net_construction(s, s.point_ids, transport(w, {p: p for p in s.point_ids}, s), c=0)
        assert res.witness.vectors == w.vectors
        assert res.assignment == {p: p for p in s.point_ids}

    def test_even_net_dirac_extension(self):
        s = z_interval(0, 10)
        net = [0, 2, 4, 6, 8, 10]
        res = net_construction(s, net, dirac_witness(s.restrict(net)), c=1,
                               radii=[1.0], tail_radii=[1.0, 2.0])
        # odd x copies the vector of the nearest even point one step away
        assert tail_profile(res.witness, [1.0]).value_at(1.0) == 0.0
        (_, v), = variation_profile(res.witness, [1.0])
        assert v == pytest.approx(SQRT2)
        # the asserted transfer compares against the net witness at R + 2c
        base = variation_profile(dirac_witness(s.restrict(net)), [3.0])[0][1]
        assert v <= base + 1e-12

    def test_covering_radius_default(self):
        s = z_interval(0, 10)
        net = [0, 2, 4, 6, 8, 10]
        res = net_construction(s, net, dirac_witness(s.restrict(net)))
        assert res.c == 1.0

    def test_net_condition_enforced(self):
        s = z_interval(0, 10)
        with pytest.raises(PreconditionError):
            net_construction(s, [0, 10], dirac_witness(s.restrict([0, 10])), c=1)

    def test_witness_must_live_on_net(self):
        s = z_interval(0, 10)
        with pytest.raises(ValidationError):
            net_construction(s, [0, 2, 4, 6, 8, 10], dirac_witness(s), c=1)


class TestGlue:
    def test_single_piece_is_tagging(self):
        s = cycle_space(5)
        cover = Cover(s, (frozenset(s.point_ids),))
        part = bell_partition(cover, require_lebesgue=False)
        res = glue_with_report(make_glue_input(part, dirac_piece_family(cover)))
        for x in s.point_ids:
            assert res.witness.vectors[x] == pytest.approx({((0, None), x): 1.0})

    def test_duplicated_piece_splits_mass_evenly(self):
        s = z_interval(0, 4)
        cover = Cover(s, (frozenset(s.point_ids), frozenset(s.point_ids)))
        part = bell_partition(cover, require_lebesgue=False)
        pieces = dirac_piece_family(cover)
        res = glue_with_report(make_glue_input(part, pieces))
        half = math.sqrt(0.5)
        assert res.witness.vectors[0] == pytest.approx(
            {((0, None), 0): half, ((1, None), 0): half})
        radii = [1.0, 2.0, 4.0]
        glued_var = variation_profile(res.witness, radii)
        base_var = variation_profile(dirac_witness(s), radii)
        for (r, gv), (_, bv) in zip(glued_var, base_var):
            assert gv == pytest.approx(bv, abs=1e-12)

    def test_path_overlap_bound(self):
        s = path_graph(5)
        cover = Cover(s, (frozenset({0, 1, 2}), frozenset({2, 3, 4})))
        part = bell_partition(cover, require_lebesgue=False)
        res = glue_with_report(make_glue_input(part, dirac_piece_family(cover)),
                               tail_radii=[0.0, 1.0])
        assert all(c.passed for c in res.checks)
        (_, v), = variation_profile(res.witness, [1.0])
        # 2 * sum|dphi| + 2 * max piece variation^2 <= 2*1 + 2*2 at R=1
        assert v * v <= 6.0 + 1e-9
        assert v == pytest.approx(dense_variation(res.witness, 1.0), abs=1e-12)

    def test_tail_dominated_by_piece_family(self):
        s = cycle_space(12)
        cover = Cover(s, tuple(frozenset((a + j) % 12 for j in range(6))
                               for a in (0, 4, 8)))
        part = bell_partition(cover, require_lebesgue=False)
        res = glue_with_report(
            make_glue_input(part, uniform_ball_piece_family(cover, 1)),
            tail_radii=[0.0, 1.0, 2.0])
        for s_val, v in res.glued_tail.samples:
            assert v <= res.equi_tail.value_at(s_val) + 1e-9

    def test_missing_point_names_point_and_piece(self):
        s = path_graph(3)
        cover = Cover(s, (frozenset({0, 1, 2}),))
        part = bell_partition(cover, require_lebesgue=False)
        wrong = dirac_witness(s.restrict([0, 1]))
        with pytest.raises(ValidationError) as exc:
            GlueInput(part, (wrong,))
        assert "piece 0" in str(exc.value)
        assert "2" in str(exc.value)

    def test_piece_metric_must_be_restricted(self):
        s = path_graph(3)
        cover = Cover(s, (frozenset({0, 2}), frozenset({0, 1, 2})))
        part = bell_partition(cover, require_lebesgue=False)
        shrunk = space_from_graph([0, 2], [(0, 2)])  # d(0,2)=1, restriction has 2
        with pytest.raises(ValidationError):
            GlueInput(part, (dirac_witness(shrunk), dirac_witness(s)))


def cycle_space(n):
    return space_from_graph(list(range(n)), [(i, (i + 1) % n) for i in range(n)])


class TestFibering:
    def test_identity_map_reduces_to_glue(self):
        s = z_interval(0, 8)
        cert = check_coarse_map(s, s, {p: p for p in s.point_ids}, [1.0, 2.0])
        cover = Cover(s, (frozenset(range(0, 6)), frozenset(range(3, 9))))
        part = bell_partition(cover)
        res = fibering_pipeline(cert, part, radii=[1.0], tail_radii=[0.0, 1.0])
        assert res.kept_pieces == (0, 1)
        assert [set(p) for p in res.pullback.cover.pieces] == [set(p) for p in cover.pieces]
        assert all(c.passed for c in res.checks)

    def test_constant_map_single_fiber(self):
        s = z_interval(0, 4)
        t = z_interval(0, 0)
        cert = check_coarse_map(s, t, {p: 0 for p in s.point_ids}, [1.0])
        cover = Cover(t, (frozenset({0}),))
        part = bell_partition(cover, require_lebesgue=False)
        res = fibering_pipeline(cert, part, radii=[1.0], tail_radii=[0.0])
        assert res.kept_pieces == (0,)
        assert set(res.pullback.cover.pieces[0]) == set(s.point_ids)

    def test_projection_pullback_end_to_end(self):
        src = z2_ball(3, "linf")
        tgt = z_interval(-3, 3)
        cert = check_coarse_map(src, tgt, {p: p[0] for p in src.point_ids},
                                [1.0, 2.0, 3.0])
        cover = Cover(tgt, (frozenset(range(-3, 1)), frozenset(range(-1, 4))))
        part = bell_partition(cover)
        res = fibering_pipeline(cert, part, radii=[1.0, 2.0], tail_radii=[0.0, 1.0])
        assert all(c.passed for c in res.checks)
        # pullback variation is controlled by target variation at modulus(R)
        src_var = partition_variation_profile(res.pullback, [1.0])[0][1]
        tgt_var = partition_variation_profile(part, [cert.modulus(1.0)])[0][1]
        assert src_var <= tgt_var + 1e-12
        (_, v), = variation_profile(res.witness, [1.0])
        assert v == pytest.approx(dense_variation(res.witness, 1.0), abs=1e-12)


class TestSeparated:
    def test_single_piece_trivial(self):
        s = z_interval(0, 9)
        cover = Cover(s, (frozenset(s.point_ids),), coloring=(0,))
        res = separated_cover_pipeline(s, cover, L=1, sigma=1.0, R=1.0, epsilon=0.5)
        assert res.k == 0
        assert all(c.passed for c in res.checks)

    def test_two_block_interval(self):
        s = z_interval(0, 99)
        cover = Cover(s, (frozenset(range(0, 50)), frozenset(range(50, 100))),
                      coloring=(0, 1))
        res = separated_cover_pipeline(s, cover, L=20, sigma=0.1, R=1.0, epsilon=0.6)
        end = res.checks[0]
        assert end.passed
        assert end.lhs == pytest.approx(2.0 / 41.0)
        assert res.k == 1
        assert len(res.info) == 3

    def test_needs_coloring(self):
        s = z_interval(0, 9)
        cover = Cover(s, (frozenset(s.point_ids),))
        with pytest.raises(PreconditionError):
            separated_cover_pipeline(s, cover, L=1, sigma=1.0, R=1.0, epsilon=0.5)

    def test_hypothesis_violation_raises(self):
        s = z_interval(0, 99)
        cover = Cover(s, (frozenset(range(0, 50)), frozenset(range(50, 100))),
                      coloring=(0, 1))
        # k=1 gives k^2+1 = 2 > L*sigma = 0.5
        with pytest.raises(PreconditionError):
            separated_cover_pipeline(s, cover, L=1, sigma=0.5, R=1.0, epsilon=0.5)

    def test_separation_violation_raises(self):
        s = z_interval(0, 9)
        cover = Cover(s, (frozenset(range(0, 5)), frozenset(range(4, 10))),
                      coloring=(0, 0))
        with pytest.raises(PreconditionError):
            separated_cover_pipeline(s, cover, L=1, sigma=2.0, R=1.0, epsilon=0.5)


# ------------------------------------------- pair records against double loops

_SPACES = {"interval": lambda n: z_interval(0, n - 1), "cycle": cycle,
           "grid": lambda n: grid([2, (n + 1) // 2])}


@st.composite
def _covers(draw, max_points=10):
    """A small space with a random cover: overlapping pieces, every point covered."""
    space = _SPACES[draw(st.sampled_from(sorted(_SPACES)))](
        draw(st.integers(1, max_points)))
    ids = space.point_ids
    pieces = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), min_size=1,
                           max_size=4))
    rest = set(ids) - set().union(*pieces)
    if rest:
        pieces.append(rest)
    return Cover(space, pieces)


def _signed_witness(space, seed):
    """Seeded unit vectors with 1-4 entries and coefficients of both signs."""
    rng = np.random.default_rng(seed)
    ids = space.point_ids
    vectors = {}
    for x in ids:
        support = rng.choice(len(ids), size=min(len(ids), int(rng.integers(1, 5))),
                             replace=False)
        vec = {(None, ids[int(s)]): float(rng.uniform(-1.0, 1.0)) for s in support}
        norm = math.sqrt(sum(c * c for c in vec.values()))
        vectors[x] = {k: c / norm for k, c in vec.items()}
    return Witness(space, vectors)


def _small_steps(mp):
    """Make every pair enumeration and kernel step a few pairs long."""
    mp.setattr(space_module, "_PAIR_CHUNK", 1)
    mp.setattr(space_module, "_SLOT_BUDGET", 3)


class TestPairRecordsAgainstDoubleLoops:
    """The kernel-backed records equal the scalar double loops exactly."""

    @settings(max_examples=40, deadline=None)
    @given(_covers(), st.sampled_from([None, 1, 2]), st.booleans())
    def test_glue_variation_record(self, cover, radius, small_steps):
        part = bell_partition(cover, require_lebesgue=False)
        family = (dirac_piece_family(cover) if radius is None
                  else uniform_ball_piece_family(cover, radius))
        gi = make_glue_input(part, family)
        with pytest.MonkeyPatch.context() as mp:
            if small_steps:
                _small_steps(mp)
            res = glue_with_report(gi)
        rec = res.checks[0]
        want = dense_glue_bound(gi, res.witness)
        if want is None:
            assert (rec.lhs, rec.rhs, rec.witness) == (0.0, 0.0, None)
        else:
            assert (rec.lhs, rec.rhs, rec.witness) == want

    @settings(max_examples=40, deadline=None)
    @given(_covers(), st.floats(0.0, 4.0), st.booleans())
    def test_bell_lipschitz_record(self, cover, C, small_steps):
        part = bell_partition(cover, require_lebesgue=False)
        with pytest.MonkeyPatch.context() as mp:
            if small_steps:
                _small_steps(mp)
            rec = _bell_lipschitz_check(part, C)
        want = dense_bell_lipschitz(part, C)
        if want is None:
            assert rec is None
        else:
            assert (rec.lhs, rec.rhs, rec.witness) == want

    @settings(max_examples=40, deadline=None)
    @given(_covers(max_points=12), st.integers(0, 2**32 - 1), st.booleans())
    def test_subspace_records_and_retraction(self, cover, seed, small_steps):
        ambient = cover.space
        witness = _signed_witness(ambient, seed)
        members = cover.pieces[0]
        with pytest.MonkeyPatch.context() as mp:
            if small_steps:
                _small_steps(mp)
            res = subspace_construction(witness, members)
        assert tuple(r.lhs for r in res.checks) == dense_subspace_records(
            witness, res.tagged, res.collapsed)
        assert res.retraction == {s: ambient.nearest_point(s, members)
                                  for s in ambient.point_ids}

    @settings(max_examples=20, deadline=None)
    @given(_covers(max_points=12))
    def test_net_assignment_is_nearest_point(self, cover):
        ambient = cover.space
        net = cover.pieces[0]
        res = net_construction(ambient, net, dirac_witness(ambient.restrict(net)))
        assert res.assignment == {x: ambient.nearest_point(x, net)
                                  for x in ambient.point_ids}
