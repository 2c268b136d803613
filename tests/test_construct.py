"""Witness constructions: subspace retraction, net expansion, gluing along a
partition of unity, fibered pullback, and the separated-cover route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    Cover,
    FiniteMetricSpace,
    GlueInput,
    PartitionOfUnity,
    PreconditionError,
    ValidationError,
    Witness,
    bell_partition,
    check_coarse_map,
    cycle,
    dirac_witness,
    fibering_pipeline,
    glue_with_report,
    grid,
    net_construction,
    partition_variation_profile,
    separated_cover_pipeline,
    space_from_graph,
    subspace_construction,
    tail_profile,
    transport,
    uniform_ball_witness,
    variation_profile,
    z2_ball,
    z_interval,
)
from coarse_lab import space as space_module
from coarse_lab.partition import _bell_lipschitz_check
from coarse_lab.space import _pair_sweep
from oracles import (dense_bell_lipschitz, dense_glue_bound, dense_subspace_records,
                     dense_variation, dense_vector_distance, dirac_piece_family,
                     nearest_point, uniform_ball_piece_family)

SQRT2 = math.sqrt(2.0)


def path_graph(n):
    return space_from_graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


class TestSubspace:
    def test_full_subspace_is_identity(self):
        s = z_interval(0, 6)
        w = uniform_ball_witness(s, 1)
        res = subspace_construction(w, np.arange(len(s)))
        assert res.nearest.tolist() == list(range(len(s)))
        assert res.collapsed.vectors == w.vectors

    def test_path_retraction_ties_go_to_earliest(self):
        s = path_graph(3)
        res = subspace_construction(dirac_witness(s), [0, 2])
        assert res.nearest.tolist() == [0, 0, 1]
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

    @pytest.mark.parametrize("idx", [[2, 0], [0, 0, 2], [-1, 2], [0, 3], [[0, 1]], [0.0, 2.0]],
                             ids=["descending", "repeated", "negative", "past-end", "2d",
                                  "float"])
    def test_index_array_must_ascend_within_the_space(self, idx):
        with pytest.raises(ValidationError, match="ascending array of point indices in 0..2"):
            subspace_construction(dirac_witness(path_graph(3)), idx)


class TestNet:
    def test_whole_space_net_is_identity(self):
        s = z_interval(0, 5)
        w = uniform_ball_witness(s, 1)
        res = net_construction(s, transport(w, np.arange(len(s)), s), c=0)
        assert res.witness.vectors == w.vectors

    def test_even_net_dirac_extension(self):
        s = z_interval(0, 10)
        net = [0, 2, 4, 6, 8, 10]
        res = net_construction(s, dirac_witness(s.restrict(net)), c=1,
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
        res = net_construction(s, dirac_witness(s.restrict(net)))
        assert res.c == 1.0

    def test_ties_go_to_the_earliest_stored_net_point(self):
        s = path_graph(5)
        # the net lists 4 before 0; point 2 is as far from both
        net = FiniteMetricSpace([4, 0], [[0.0, 4.0], [4.0, 0.0]])
        res = net_construction(s, dirac_witness(net))
        assert [dict(res.witness.vectors[x]) for x in s.point_ids] == \
            [{(None, q): 1.0} for q in (0, 0, 0, 4, 4)]

    def test_net_condition_enforced(self):
        s = z_interval(0, 10)
        with pytest.raises(PreconditionError):
            net_construction(s, dirac_witness(s.restrict([0, 10])), c=1)

    def test_witness_must_live_on_net(self):
        # the net is the witness's space, so its points must be ambient points
        s = z_interval(0, 10)
        with pytest.raises(ValidationError, match="unknown point id 11"):
            net_construction(s, dirac_witness(z_interval(0, 12)), c=1)


class TestGlue:
    def test_single_piece_is_tagging(self):
        s = cycle_space(5)
        cover = Cover(s, (frozenset(s.point_ids),))
        part = bell_partition(cover, require_lebesgue=False)
        res = glue_with_report(GlueInput(part, dirac_piece_family(cover)))
        for x in s.point_ids:
            assert res.witness.vectors[x] == pytest.approx({((0, None), x): 1.0})

    def test_duplicated_piece_splits_mass_evenly(self):
        s = z_interval(0, 4)
        cover = Cover(s, (frozenset(s.point_ids), frozenset(s.point_ids)))
        part = bell_partition(cover, require_lebesgue=False)
        pieces = dirac_piece_family(cover)
        res = glue_with_report(GlueInput(part, pieces))
        half = math.sqrt(0.5)
        assert res.witness.vectors[0] == pytest.approx(
            {((0, None), 0): half, ((1, None), 0): half})
        radii = [1.0, 2.0, 4.0]
        glued_var = variation_profile(res.witness, radii)
        base_var = variation_profile(dirac_witness(s), radii)
        for (r, gv), (_, bv) in zip(glued_var, base_var):
            assert gv == pytest.approx(bv, abs=1e-12)

    def test_kernels_are_no_larger_than_the_space(self, monkeypatch):
        # the combination bound looks pieces up one at a time: no kernel may
        # span the stacked rows of all pieces
        sizes = []
        init = space_module._SparseRows.__init__

        def record(self, n, *rest):
            sizes.append(n)
            init(self, n, *rest)

        monkeypatch.setattr(space_module._SparseRows, "__init__", record)
        s = z_interval(0, 11)
        cover = Cover(s, [frozenset(range(i, i + 6)) for i in (0, 3, 6)])
        part = bell_partition(cover, require_lebesgue=False)
        glue_with_report(GlueInput(part, dirac_piece_family(cover)))
        assert sizes and max(sizes) <= len(s)

    def test_only_pairs_sharing_an_entry_are_looked_up(self, monkeypatch):
        # one row of pairs per chunk: far fewer pairs per call than share an entry
        shares = []
        match = space_module._SparseRows._match

        def record(kernel, a, b):
            for x, y in zip(kernel.ids[a], kernel.ids[b]):
                shares.append(bool(np.intersect1d(x[x >= 0], y[y >= 0]).size))
            return match(kernel, a, b)

        monkeypatch.setattr(space_module, "_PAIR_CHUNK", 1)
        monkeypatch.setattr(space_module._SparseRows, "_match", record)
        s = z_interval(0, 23)
        cover = Cover(s, [frozenset(range(0, 10)), frozenset(range(6, 18)),
                          frozenset(range(14, 24))])
        part = bell_partition(cover, require_lebesgue=False)
        glue_with_report(GlueInput(part, uniform_ball_piece_family(cover, 1)))
        assert shares and all(shares)

    def test_zero_phi_inside_a_piece_drops_its_entries(self):
        s = z_interval(0, 5)
        cover = Cover(s, (frozenset(range(0, 4)), frozenset(range(2, 6))))
        # piece 0 holds point 3 at phi 0; the piece vectors have negative entries
        part = PartitionOfUnity(s, cover, [[1.0, 1.0, 0.5, 0.0, 0.0, 0.0],
                                           [0.0, 0.0, 0.5, 1.0, 1.0, 1.0]])
        pieces = tuple(_signed_witness(s.restrict(p), seed)
                       for seed, p in enumerate(cover.pieces))
        gi = GlueInput(part, pieces)
        res = glue_with_report(gi)
        assert res.witness.vectors == {
            x: {((i, t), u): math.sqrt(part.value(i, x)) * c
                for i, w in enumerate(pieces) if part.value(i, x) > 0.0
                for (t, u), c in w.vectors[x].items()}
            for x in s.point_ids}
        rec = res.checks[0]
        assert (rec.lhs, rec.rhs, rec.witness) == dense_glue_bound(gi, res.witness)

    def test_path_overlap_bound(self):
        s = path_graph(5)
        cover = Cover(s, (frozenset({0, 1, 2}), frozenset({2, 3, 4})))
        part = bell_partition(cover, require_lebesgue=False)
        res = glue_with_report(GlueInput(part, dirac_piece_family(cover)),
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
            GlueInput(part, uniform_ball_piece_family(cover, 1)),
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

    def test_extra_point_is_named_as_outside_the_piece(self):
        s = z_interval(0, 3)
        part = bell_partition(Cover(s, [[0, 1], [1, 2, 3]]), require_lebesgue=False)
        extra = dirac_witness(s.restrict([0, 1, 2]))
        with pytest.raises(ValidationError) as exc:
            GlueInput(part, (extra, dirac_witness(s.restrict([1, 2, 3]))))
        assert str(exc.value) == "piece 0 witness has point 2 outside the piece"

    def test_piece_metric_must_be_restricted(self):
        s = path_graph(3)
        cover = Cover(s, (frozenset({0, 2}), frozenset({0, 1, 2})))
        part = bell_partition(cover, require_lebesgue=False)
        shrunk = space_from_graph([0, 2], [(0, 2)])  # d(0,2)=1, restriction has 2
        with pytest.raises(ValidationError):
            GlueInput(part, (dirac_witness(shrunk), dirac_witness(s)))

    def test_piece_listed_out_of_stored_order_is_accepted(self):
        s = path_graph(4)
        part = bell_partition(Cover(s, [s.point_ids]))
        order = [3, 0, 2, 1]
        idx = s.indices(order)
        shuffled = FiniteMetricSpace(order, s.D[np.ix_(idx, idx)])
        res = glue_with_report(GlueInput(part, (dirac_witness(shuffled),)))
        want = glue_with_report(GlueInput(part, (dirac_witness(s),)))
        assert res.witness.vectors == want.witness.vectors
        assert res.checks == want.checks

    def test_equal_piece_metric_passes_without_allclose(self, monkeypatch):
        s = z_interval(0, 7)
        cover = Cover(s, [range(0, 5), range(3, 8)])
        part = bell_partition(cover, require_lebesgue=False)

        def refuse(*args, **kwargs):
            raise AssertionError("allclose called on an exactly equal metric")

        monkeypatch.setattr(np, "allclose", refuse)
        GlueInput(part, dirac_piece_family(cover))

    @pytest.mark.parametrize("off, passes", [(1e-13, True), (1e-9, False)])
    def test_piece_metric_tolerance(self, off, passes):
        # piece 1's metric off the restriction by ``off`` on every pair
        s = z_interval(0, 7)
        cover = Cover(s, [range(0, 5), range(3, 8)])
        part = bell_partition(cover, require_lebesgue=False)
        idx = cover.indices[1]
        D = s.D[np.ix_(idx, idx)] + off * (1.0 - np.eye(len(idx)))
        pieces = (dirac_piece_family(cover)[0],
                  dirac_witness(FiniteMetricSpace([s.point_ids[i] for i in idx], D)))
        if passes:
            GlueInput(part, pieces)
            return
        with pytest.raises(ValidationError) as exc:
            GlueInput(part, pieces)
        assert str(exc.value) == "piece 1 witness metric is not the restricted metric"

    def test_wrong_piece_metric_is_named(self):
        s = path_graph(4)
        part = bell_partition(Cover(s, [s.point_ids]))
        order = [3, 0, 2, 1]
        stretched = 2.0 * s.D[np.ix_(s.indices(order), s.indices(order))]
        with pytest.raises(ValidationError) as exc:
            GlueInput(part, (dirac_witness(FiniteMetricSpace(order, stretched)),))
        assert str(exc.value) == "piece 0 witness metric is not the restricted metric"


def cycle_space(n):
    return space_from_graph(list(range(n)), [(i, (i + 1) % n) for i in range(n)])


class TestFibering:
    def test_identity_map_reduces_to_glue(self):
        s = z_interval(0, 8)
        cert = check_coarse_map(s, s, np.arange(len(s)))
        cover = Cover(s, (frozenset(range(0, 6)), frozenset(range(3, 9))))
        part = bell_partition(cover)
        res = fibering_pipeline(cert, part, radii=[1.0], tail_radii=[0.0, 1.0])
        assert res.kept_pieces == (0, 1)
        assert [set(p) for p in res.pullback.cover.pieces] == [set(p) for p in cover.pieces]
        assert all(c.passed for c in res.checks)

    def test_constant_map_single_fiber(self):
        s = z_interval(0, 4)
        t = z_interval(0, 0)
        cert = check_coarse_map(s, t, np.zeros(len(s), dtype=int))
        cover = Cover(t, (frozenset({0}),))
        part = bell_partition(cover, require_lebesgue=False)
        res = fibering_pipeline(cert, part, radii=[1.0], tail_radii=[0.0])
        assert res.kept_pieces == (0,)
        assert set(res.pullback.cover.pieces[0]) == set(s.point_ids)

    def test_projection_pullback_end_to_end(self):
        src = z2_ball(3, "linf")
        tgt = z_interval(-3, 3)
        cert = check_coarse_map(src, tgt, tgt.indices([p[0] for p in src.point_ids]))
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
        res = separated_cover_pipeline(cover, L=1, sigma=1.0, R=1.0, epsilon=0.5)
        assert res.k == 0
        assert all(c.passed for c in res.checks)

    def test_two_block_interval(self):
        s = z_interval(0, 99)
        cover = Cover(s, (frozenset(range(0, 50)), frozenset(range(50, 100))),
                      coloring=(0, 1))
        res = separated_cover_pipeline(cover, L=20, sigma=0.1, R=1.0, epsilon=0.6)
        end = res.checks[0]
        assert end.passed
        assert end.lhs == pytest.approx(2.0 / 41.0)
        assert res.k == 1
        assert len(res.info) == 3

    def test_needs_coloring(self):
        s = z_interval(0, 9)
        cover = Cover(s, (frozenset(s.point_ids),))
        with pytest.raises(PreconditionError):
            separated_cover_pipeline(cover, L=1, sigma=1.0, R=1.0, epsilon=0.5)

    def test_hypothesis_violation_raises(self):
        s = z_interval(0, 99)
        cover = Cover(s, (frozenset(range(0, 50)), frozenset(range(50, 100))),
                      coloring=(0, 1))
        # k=1 gives k^2+1 = 2 > L*sigma = 0.5
        with pytest.raises(PreconditionError):
            separated_cover_pipeline(cover, L=1, sigma=0.5, R=1.0, epsilon=0.5)

    def test_separation_violation_raises(self):
        s = z_interval(0, 9)
        cover = Cover(s, (frozenset(range(0, 5)), frozenset(range(4, 10))),
                      coloring=(0, 0))
        with pytest.raises(PreconditionError):
            separated_cover_pipeline(cover, L=1, sigma=2.0, R=1.0, epsilon=0.5)


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


@st.composite
def _glue_inputs(draw, scale=1.0):
    """A Bell partition on 5-12 overlapping pieces with signed piece witnesses;
    one piece's witness space lists the piece's points in a drawn order. The
    space's metric is multiplied by ``scale``."""
    space = _SPACES[draw(st.sampled_from(sorted(_SPACES)))](draw(st.integers(2, 14)))
    if scale != 1.0:
        space = FiniteMetricSpace(space.point_ids, scale * space.D)
    ids = space.point_ids
    pieces = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), min_size=5,
                           max_size=12))
    pieces[-1] |= set(ids) - set().union(*pieces)
    cover = Cover(space, pieces)
    turned = draw(st.integers(0, len(pieces) - 1))
    family = []
    for i, idx in enumerate(cover.indices):
        if i == turned:
            idx = np.array(draw(st.permutations(idx.tolist())))
        on = FiniteMetricSpace([ids[a] for a in idx], space.D[np.ix_(idx, idx)])
        family.append(_signed_witness(on, draw(st.integers(0, 2**32 - 1))))
    return GlueInput(bell_partition(cover, require_lebesgue=False), tuple(family))


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
        gi = GlueInput(part, family)
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

    @pytest.mark.parametrize("chunk", [1, 7, space_module._PAIR_CHUNK])
    @settings(max_examples=30, deadline=None)
    @given(gi=_glue_inputs())
    def test_glue_variation_record_on_signed_pieces(self, gi, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space_module, "_PAIR_CHUNK", chunk)
            res = glue_with_report(gi)
        rec = res.checks[0]
        assert (rec.lhs, rec.rhs, rec.witness) == dense_glue_bound(gi, res.witness)

    @pytest.mark.parametrize("chunk", [1, 7, space_module._PAIR_CHUNK])
    @settings(max_examples=20, deadline=None)
    @given(gi=_glue_inputs())
    def test_piece_kernels_see_each_piece_pair_once(self, gi, chunk):
        calls = []
        sq_dist = space_module._SparseRows.sq_dist

        def spy(kernel, a, b):
            calls.append((kernel, np.array(a), np.array(b)))
            return sq_dist(kernel, a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space_module, "_PAIR_CHUNK", chunk)
            mp.setattr(space_module._SparseRows, "sq_dist", spy)
            glue_with_report(gi)
        space = gi.partition.space
        for w, piece in zip(gi.pieces, gi.partition.cover.indices):
            on = np.array(space.indices(w.space.point_ids))
            got = [(int(on[p]), int(on[q])) for kernel, a, b in calls if kernel is w.kernel
                   for p, q in zip(a, b)]
            # the first point of each pair comes first in the stored order
            assert sorted(got) == [(p, q) for p in piece for q in piece if p < q]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_glued_profile_from_the_table_is_the_pair_sweep(self, data):
        # the glue's per-distance table is its result's variation sweep:
        # integral narrow, integral past 2^16 and non-integral metrics
        scale = data.draw(st.sampled_from([1.0, 70000.0, 0.3]))
        gi = data.draw(_glue_inputs(scale))
        res = glue_with_report(gi)
        w = res.witness
        grid = w.space.realized_distances()
        # radii at, just inside and just outside the 1e-12 tolerance of a
        # realized distance, below the smallest distance, past the diameter
        near = st.tuples(st.sampled_from(grid), st.sampled_from([0.0, 5e-13, -5e-13, -2e-12]))
        radii = data.draw(st.lists(st.one_of(near.map(lambda t: max(0.0, t[0] + t[1])),
                                             st.floats(0.0, 2.0 * grid[-1] + 1.0),
                                             st.just(0.5 * scale)),
                                   max_size=10))
        radii += radii[:2]          # repeated radii
        plain = Witness._of(w.space, w.row, w.at, w.tag, w.tags, w.coef)
        want = _pair_sweep(w.space, radii, lambda a, b: np.sqrt(plain.kernel.sq_dist(a, b)))
        assert res.variation.profile(radii) == want
        assert variation_profile(w, radii) == [(r, v) for r, v, _ in want]

    def test_one_point_glued_profile(self):
        s = z_interval(0, 0)
        cover = Cover(s, [[0]])
        res = glue_with_report(GlueInput(bell_partition(cover, require_lebesgue=False),
                                         dirac_piece_family(cover)))
        assert res.variation.profile([0.0, 3.0, 3.0]) == [
            (0.0, 0.0, None), (3.0, 0.0, None), (3.0, 0.0, None)]
        assert variation_profile(res.witness, [0.0, 3.0, 3.0]) == [
            (0.0, 0.0), (3.0, 0.0), (3.0, 0.0)]

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_glued_profile_rejects_negative_or_nan_radius(self, bad):
        s = cycle(9)
        cover = Cover(s, [range(0, 6), [5, 6, 7, 8, 0]])
        res = glue_with_report(GlueInput(bell_partition(cover, require_lebesgue=False),
                                         dirac_piece_family(cover)))
        with pytest.raises(ValidationError, match="radii must be >= 0 and not NaN"):
            res.variation.profile([1.0, bad])

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
            res = subspace_construction(witness, cover.indices[0])
        assert tuple(r.lhs for r in res.checks) == dense_subspace_records(
            witness, res.tagged, res.collapsed)
        # the identity checks' pass is also eta's variation sweep
        grid = res.subspace.realized_distances()
        assert res.variation.profile(grid) == _pair_sweep(
            res.subspace, grid, lambda a, b: np.sqrt(res.collapsed.kernel.sq_dist(a, b)))
        assert [res.subspace.point_ids[t] for t in res.nearest] == \
            [nearest_point(ambient, s, members) for s in ambient.point_ids]

    @settings(max_examples=20, deadline=None)
    @given(_covers(max_points=12))
    def test_net_assignment_is_nearest_point(self, cover):
        ambient = cover.space
        net = cover.pieces[0]
        res = net_construction(ambient, dirac_witness(ambient.restrict(net)))
        assert res.witness.vectors == {x: {(None, nearest_point(ambient, x, net)): 1.0}
                                       for x in ambient.point_ids}


@st.composite
def _dirac_partitions(draw):
    """A partition of unity on 1-12 points over 1-8, 9-20 or 65-70 pieces (one
    byte of packed membership, several bytes of one 64-bit word, or two words),
    copies of the first drawn piece filling the lower indices so that the
    drawn ones take the highest; either Bell values or seeded weights with one
    member's value 0."""
    space = _SPACES[draw(st.sampled_from(sorted(_SPACES)))](draw(st.integers(1, 12)))
    ids = space.point_ids
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 20), st.integers(65, 70)))
    pieces = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), min_size=1,
                           max_size=min(k, 12)))
    pieces = [pieces[0]] * (k - len(pieces)) + pieces
    pieces[-1] = pieces[-1] | (set(ids) - set().union(*pieces))
    cover = Cover(space, pieces)
    if draw(st.booleans()):
        return bell_partition(cover, require_lebesgue=False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = cover.mask * rng.uniform(0.1, 1.0, cover.mask.shape)
    # a member of two pieces gets the value 0 in the first of them
    shared = np.flatnonzero(cover.mask.sum(axis=0) > 1)
    if shared.size:
        a = int(shared[draw(st.integers(0, len(shared) - 1))])
        phi[np.argmax(cover.mask[:, a]), a] = 0.0
    return PartitionOfUnity(space, cover, phi / phi.sum(axis=0))


class TestDiracFamily:
    """The glue's Dirac family (``pieces`` None) is the explicit glue of the
    Dirac witness on every piece, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_dirac_partitions(), st.sampled_from([None, [0.0], [0.0, 1.0, 2.5]]),
           st.booleans())
    def test_matches_the_explicit_per_piece_glue(self, part, tail_radii, small_steps):
        with pytest.MonkeyPatch.context() as mp:
            if small_steps:
                _small_steps(mp)
            got = glue_with_report(GlueInput(part), tail_radii=tail_radii)
            want = glue_with_report(GlueInput(part, dirac_piece_family(part.cover)),
                                    tail_radii=tail_radii)
        assert_same_glue(got, want)


def assert_same_glue(got, want):
    """Two GlueResults agree bit for bit: records, glued entry arrays and tags,
    the variation profile with its pairs on every realized distance, and
    both tails (repr tells -0.0 from 0.0)."""
    assert repr(got.checks) == repr(want.checks)
    g, w = got.witness, want.witness
    for field in ("row", "at", "tag", "coef"):
        assert getattr(g, field).dtype == getattr(w, field).dtype
        assert getattr(g, field).tobytes() == getattr(w, field).tobytes()
    assert g.tags == w.tags
    grid = g.space.realized_distances()
    assert repr(got.variation.profile(grid)) == repr(want.variation.profile(grid))
    assert repr((got.glued_tail, got.equi_tail)) == repr((want.glued_tail, want.equi_tail))
