"""Cover calculus: multiplicities, Lebesgue numbers, separation, enlargement,
and the chain-limit cover."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    ChainOfSubspaces,
    Cover,
    ValidationError,
    bell_partition,
    check_coarse_map,
    cycle,
    direct_limit_cover,
    enlarge,
    lebesgue_report,
    load_space,
    multiplicity,
    pullback_partition,
    r_multiplicity,
    set_distance,
    space_from_graph,
    space_from_matrix,
    z_interval,
)
from coarse_lab import cli
from coarse_lab.cover import family_separation
from coarse_lab.report import json_number
from oracles import (dense_complement_distances, dense_lebesgue, dense_piece_distances,
                     dict_pullback, every_ball_fits, frozenset_direct_limit, set_separation)


def path_graph(n):
    return space_from_graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


class TestCoverValidation:
    def test_pieces_must_cover(self):
        with pytest.raises(ValidationError):
            Cover(path_graph(5), [[0, 1], [3, 4]])

    def test_empty_piece_rejected(self):
        with pytest.raises(ValidationError):
            Cover(path_graph(3), [[0, 1, 2], []])

    def test_unknown_point_named_in_given_order(self):
        with pytest.raises(ValidationError, match="piece 1 contains unknown point 'zz'"):
            Cover(path_graph(3), [[0, 1, 2], [2, "zz", 7, "aa"]])

    def test_coloring_length_must_match(self):
        with pytest.raises(ValidationError):
            Cover(path_graph(3), [[0, 1], [1, 2]], coloring=[0])

    @pytest.mark.parametrize("pieces, coloring, message", [
        ([], None, "a cover needs at least one piece"),
        ([[0, 1, 2, 3], []], None, "piece 1 is empty"),
        ([[0, 1], [2]], None, "pieces do not cover the space: 3 uncovered"),
        ([[0, 1, 2, 3]], [0, 1], "coloring length does not match piece count"),
        ([[0, 1], [2, 3]], [0, -1], "colors must be >= 0"),
    ], ids=["no-piece", "empty-piece", "uncovered", "coloring-length", "negative-color"])
    def test_index_constructor_shares_the_messages(self, pieces, coloring, message):
        # on a path the point ids are the point indices
        space = path_graph(4)
        with pytest.raises(ValidationError, match="^%s$" % message):
            Cover(space, pieces, coloring=coloring)
        with pytest.raises(ValidationError, match="^%s$" % message):
            Cover._of(space, [np.array(p, dtype=np.intp) for p in pieces], coloring)


class TestMultiplicity:
    def test_two_overlapping_blocks(self):
        cov = Cover(path_graph(5), [[0, 1, 2], [2, 3, 4]])
        assert multiplicity(cov) == 2

    def test_singleton_partition(self):
        s = cycle(6)
        assert multiplicity(Cover(s, [[p] for p in s.point_ids])) == 1

    def test_three_full_copies(self):
        s = cycle(6)
        all_pts = list(s.point_ids)
        assert multiplicity(Cover(s, [all_pts, all_pts, all_pts])) == 3


class TestRMultiplicity:
    def test_radius_zero_equals_multiplicity(self):
        cov = Cover(path_graph(5), [[0, 1, 2], [2, 3, 4]])
        assert r_multiplicity(cov, 0) == multiplicity(cov)

    def test_gap_bridged_by_ball(self):
        cov = Cover(path_graph(5), [[0, 1], [3, 4], [2]])
        # B(2,1) = {1,2,3} meets all three pieces
        assert r_multiplicity(cov, 1) == 3

    def test_radius_past_diameter_counts_all_pieces(self):
        cov = Cover(path_graph(5), [[0, 1, 2], [2, 3, 4], [1, 2, 3]])
        assert r_multiplicity(cov, 10) == 3


class TestLebesgue:
    def test_whole_space_piece(self):
        s = path_graph(5)
        assert lebesgue_report(Cover(s, [list(s.point_ids)]))[0] == s.diameter

    def test_tight_overlap_gives_zero(self):
        cov = Cover(path_graph(5), [[0, 1, 2], [2, 3, 4]])
        assert lebesgue_report(cov)[0] == 0.0

    def test_wider_overlap_gives_one(self):
        cov = Cover(path_graph(5), [[0, 1, 2, 3], [2, 3, 4]])
        assert lebesgue_report(cov)[0] == 1.0

    def test_report_names_smallest_failing_radius(self):
        cov = Cover(path_graph(5), [[0, 1, 2], [2, 3, 4]])
        leb, failing = lebesgue_report(cov)
        assert leb == 0.0
        assert failing == 1.0


@st.composite
def _covers(draw):
    # distances in [1, 2] always satisfy the triangle inequality
    n = draw(st.integers(min_value=1, max_value=7))
    D = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            D[a][b] = D[b][a] = draw(st.sampled_from([1.0, 1.25, 1.5, 2.0]))
    space = space_from_matrix(["p%d" % i for i in range(n)], D)
    m = draw(st.integers(min_value=1, max_value=4))
    pieces = [set(draw(st.sets(st.sampled_from(space.point_ids)))) for _ in range(m)]
    for x in space.point_ids:
        pieces[draw(st.integers(min_value=0, max_value=m - 1))].add(x)
    if draw(st.booleans()):
        pieces.append(set(space.point_ids))
    return Cover(space, [p for p in pieces if p])


class TestComplementDistances:
    @settings(max_examples=150, deadline=None)
    @given(_covers(), st.sampled_from([("complement", dense_complement_distances),
                                       ("distance", dense_piece_distances)]))
    def test_matches_double_loop(self, cover, table):
        name, oracle = table
        assert getattr(cover, name).tolist() == oracle(cover)

    @settings(max_examples=100, deadline=None)
    @given(_covers())
    def test_enlarge_and_r_multiplicity_agree_with_double_loop(self, cover):
        ids = cover.space.point_ids
        near = dense_piece_distances(cover)
        for r in cover.space.realized_distances():
            enlarged = enlarge(cover, r)
            assert r_multiplicity(cover, r) == multiplicity(enlarged)
            assert enlarged.pieces == tuple(frozenset(x for x, d in zip(ids, row) if d <= r)
                                            for row in near)

    def test_whole_space_piece_is_infinite(self):
        s = path_graph(4)
        cov = Cover(s, [[0, 1], list(s.point_ids)])
        assert cov.complement.tolist() == [
            [2.0, 1.0, 0.0, 0.0], [math.inf] * 4]


class TestSeparation:
    def test_single_piece_vacuous(self):
        s = path_graph(5)
        cov = Cover(s, [list(s.point_ids)], coloring=[0])
        assert family_separation(cov, 0) == math.inf

    def test_separated_blocks(self):
        cov = Cover(path_graph(5), [[0, 1], [2], [3, 4]], coloring=[0, 1, 0])
        assert family_separation(cov, 1) > 1
        assert not family_separation(cov, 1) > 2  # d = 2, strict comparison

    def test_kl_separated_whole_space(self):
        s = path_graph(5)
        cov = Cover(s, [list(s.point_ids)], coloring=[0])
        assert family_separation(cov, 0) > 100

    def test_overlap_in_one_family_fails(self):
        cov = Cover(path_graph(5), [[0, 1, 2], [2, 3, 4]], coloring=[0, 0])
        assert not family_separation(cov, 1) > 1

    def test_two_color_blocks_on_interval(self):
        s = z_interval(0, 23)
        pieces = [list(range(a, a + 4)) for a in range(0, 24, 6)]
        extra = [list(range(a, a + 2)) for a in range(4, 24, 6)]
        cov = Cover(s, pieces + extra,
                    coloring=[0] * len(pieces) + [1] * len(extra))
        # same-color 4-blocks sit distance 3 apart (d(3,6) = 3): strictly
        # separated up to L=2, not at L=3
        assert family_separation(cov, 1) > 2
        assert not family_separation(cov, 1) > 3

    @settings(max_examples=150, deadline=None)
    @given(_covers(), st.data())
    def test_family_separation_matches_pairwise_loop(self, cover, data):
        m = len(cover.pieces)
        coloring = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        cov = Cover(cover.space, cover.pieces, coloring=coloring)
        expected = min(set_separation(cov.space, [p for p, c in zip(cov.pieces, coloring)
                                                  if c == color])
                       for color in set(coloring))
        assert family_separation(cov, max(coloring)) == expected

    def test_missing_coloring_rejected(self):
        cov = Cover(path_graph(3), [[0, 1], [1, 2]])
        with pytest.raises(ValidationError):
            family_separation(cov, 1) > 1


class TestEnlarge:
    def test_zero_enlargement_is_identity(self):
        cov = Cover(path_graph(5), [[0, 1, 2], [2, 3, 4]])
        assert enlarge(cov, 0).pieces == cov.pieces

    def test_single_point_grows_to_ball(self):
        cov = Cover(path_graph(5), [[2], [0, 1], [3, 4]])
        assert enlarge(cov, 1).pieces[0] == frozenset({1, 2, 3})

    def test_past_diameter_fills_space(self):
        s = path_graph(5)
        cov = Cover(s, [[2], list(s.point_ids)])
        assert enlarge(cov, 10).pieces[0] == frozenset(s.point_ids)

    def test_coloring_carried_over(self):
        cov = Cover(path_graph(5), [[0, 1], [2, 3, 4]], coloring=[0, 1])
        assert enlarge(cov, 1).coloring == (0, 1)

    def test_iterated_enlargement_within_single_step(self):
        s = cycle(11)
        cov = Cover(s, [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9, 10]])
        twice = enlarge(enlarge(cov, 1), 2)
        once = enlarge(cov, 3)
        for a, b in zip(twice.pieces, once.pieces):
            assert a <= b


class TestCoverFacts:
    """The two cover implications, exhaustively on generated instances."""

    def separated_instances(self):
        s1 = z_interval(0, 23)
        yield (Cover(s1, [list(range(a, a + 4)) for a in (0, 10, 20)]
                     + [list(range(a, a + 6)) for a in (4, 14)],
                     coloring=[0, 0, 0, 1, 1]), 1, 1.0)
        s2 = z_interval(0, 99)
        yield (Cover(s2, [list(range(0, 50)), list(range(50, 100))],
                     coloring=[0, 1]), 1, 20.0)
        s3 = cycle(30)
        yield (Cover(s3, [[p for p in range(a, a + 6)] for a in (0, 10, 20)]
                     + [[p % 30 for p in range(a, a + 4)] for a in (6, 16, 26)],
                     coloring=[0, 0, 0, 1, 1, 1]), 1, 2.0)

    def test_separation_controls_r_multiplicity(self):
        checked = 0
        for cov, k, L in self.separated_instances():
            if family_separation(cov, k) > 2 * L:
                assert r_multiplicity(cov, L) <= k + 1
                checked += 1
        assert checked == 3

    def test_enlargement_keeps_multiplicity_and_gains_lebesgue(self):
        for cov, k, L in self.separated_instances():
            kp1 = r_multiplicity(cov, L)
            enl = enlarge(cov, L)
            assert multiplicity(enl) <= kp1
            assert lebesgue_report(enl)[0] >= L


def interval_chain(radius):
    amb = z_interval(-radius, radius)
    stages = [frozenset(p for p in amb.point_ids if abs(p) <= r)
              for r in range(1, radius + 1)]
    return amb, ChainOfSubspaces(amb, stages)


class TestDirectLimit:
    def test_selected_stages_step_by_three(self):
        _, chain = interval_chain(20)
        res = direct_limit_cover(chain, 1)
        assert res.indices == (1, 4, 7, 10, 13, 16, 19, 20)
        assert multiplicity(res.cover) <= 2
        assert lebesgue_report(res.cover)[0] >= 1.0

    def test_final_piece_flagged_as_truncated(self):
        _, chain = interval_chain(20)
        res = direct_limit_cover(chain, 1)
        assert any("truncation" in f for f in res.truncation_flags)

    def test_nonadjacent_pieces_disjoint(self):
        amb, chain = interval_chain(20)
        for L in (1, 2, 3):
            res = direct_limit_cover(chain, L)
            pieces = res.cover.pieces
            for i in range(len(pieces)):
                for j in range(i + 2, len(pieces)):
                    assert not (pieces[i] & pieces[j])
                    assert set_distance(amb, pieces[i], pieces[j]) > 0

    def test_single_stage_chain(self):
        amb = z_interval(-2, 2)
        chain = ChainOfSubspaces(amb, [frozenset(amb.point_ids)])
        res = direct_limit_cover(chain, 1)
        assert res.indices == (1,)
        assert res.cover.pieces == (frozenset(amb.point_ids),)

    def test_stalled_chain_skips_duplicates(self):
        amb = z_interval(-8, 8)
        small = frozenset(p for p in amb.point_ids if abs(p) <= 1)
        mid = frozenset(p for p in amb.point_ids if abs(p) <= 4)
        chain = ChainOfSubspaces(amb, [small, small, small, mid,
                                       frozenset(amb.point_ids)])
        res = direct_limit_cover(chain, 1)
        assert res.indices[0] == 1
        assert 2 not in res.indices and 3 not in res.indices

    def test_chain_stages_must_increase(self):
        amb = z_interval(0, 4)
        with pytest.raises(ValidationError):
            ChainOfSubspaces(amb, [frozenset({0, 1}), frozenset({3, 4}),
                                   frozenset(amb.point_ids)])

    def test_chain_must_end_at_ambient(self):
        amb = z_interval(0, 4)
        with pytest.raises(ValidationError):
            ChainOfSubspaces(amb, [frozenset({0, 1})])


class TestNanRadius:
    @pytest.mark.parametrize("call, message", [
        (lambda cov, chain: r_multiplicity(cov, math.nan), "radius must be >= 0"),
        (lambda cov, chain: enlarge(cov, math.nan), "enlargement radius must be >= 0"),
        (lambda cov, chain: direct_limit_cover(chain, math.nan), "need L > 0"),
    ], ids=["r_multiplicity", "enlarge", "direct_limit_cover"])
    def test_nan_radius_rejected(self, call, message):
        amb, chain = interval_chain(3)
        with pytest.raises(ValidationError, match=message):
            call(Cover(amb, [amb.point_ids]), chain)


@st.composite
def _chains(draw):
    """(matrix space document, nested explicit stage lists, integer L >= 1).

    The points sit at 0..n-1 on a line in shuffled order, so every distance up
    to the diameter is realized and the cover's realized Lebesgue number is
    positive, as the pipeline's Bell partition needs. The stages grow along
    the line, as intervals do, with each point's stage moved by up to one; a
    stage no point enters repeats the one before it, and every stage list is
    shuffled.
    """
    n = draw(st.integers(min_value=2, max_value=16))
    at = draw(st.permutations(range(n)))
    ids = ["p%d" % i for i in range(n)]
    doc = {"points": ids, "metric": {"type": "matrix", "d": [[abs(a - b) for b in at]
                                                               for a in at]}}
    count = draw(st.integers(min_value=2, max_value=8))
    shift = st.integers(min_value=-1, max_value=1)
    rank = [min(count - 1, max(0, x * count // n + draw(shift))) for x in at]
    rank[draw(st.integers(min_value=0, max_value=len(ids) - 1))] = 0
    stages = [draw(st.permutations([p for p, r in zip(ids, rank) if r <= k]))
              for k in range(count)]
    return doc, stages, draw(st.sampled_from([1, 2]))


class TestDirectLimitReference:
    @settings(max_examples=200, deadline=None)
    @given(_chains())
    def test_matches_frozenset_greedy(self, case):
        doc, stages, L = case
        space = load_space(doc)
        indices, pieces, overlap, gap = frozenset_direct_limit(space, stages, L)
        res = direct_limit_cover(ChainOfSubspaces(space, stages), L)
        assert res.indices == indices
        assert list(res.cover.pieces) == pieces
        out = cli._run_direct_limit({"space": doc, "chain": {"type": "explicit",
                                                             "stages": stages}}, {"L": L})
        assert out.details["selected_stages"] == list(indices)
        assert out.checked[2].name == "nonadjacent_piece_overlap"
        assert out.checked[2].lhs == overlap
        assert out.details["nonadjacent_min_gap"] == json_number(gap)


@st.composite
def _line_covers(draw):
    """A random cover of an interval or a cycle, colored or not."""
    n = draw(st.integers(min_value=1, max_value=12))
    space = draw(st.sampled_from([z_interval(0, n - 1), cycle(n)]))
    ids = space.point_ids
    pieces = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), min_size=1, max_size=4))
    rest = set(ids) - set().union(*pieces)
    if rest:
        pieces.append(rest)
    coloring = draw(st.none() | st.lists(st.integers(0, 2), min_size=len(pieces),
                                         max_size=len(pieces)))
    return Cover(space, pieces, coloring=coloring)


def _assert_same_cover(got, want):
    assert got.pieces == want.pieces
    assert [idx.tolist() for idx in got.indices] == [idx.tolist() for idx in want.indices]
    assert np.array_equal(got.mask, want.mask)
    assert got.coloring == want.coloring
    assert not any(idx.flags.writeable for idx in got.indices)
    assert not got.mask.flags.writeable


class TestIndexBuiltCovers:
    """Covers built from index arrays equal the covers built from the same
    pieces, given as point ids, by the public constructor."""

    @settings(max_examples=100, deadline=None)
    @given(_line_covers(), st.sampled_from([0, 1, 2.5]))
    def test_enlarge(self, cover, L):
        space = cover.space
        want = [[y for y in space.point_ids if any(space.d(x, y) <= L for x in piece)]
                for piece in cover.pieces]
        _assert_same_cover(enlarge(cover, L), Cover(space, want, coloring=cover.coloring))

    @settings(max_examples=100, deadline=None)
    @given(_line_covers(), st.data())
    def test_pullback_partition(self, cover, data):
        space = cover.space
        img = data.draw(st.lists(st.integers(0, len(space) - 1), min_size=len(space),
                                 max_size=len(space)))
        cert = check_coarse_map(space, space, np.array(img))
        partition = bell_partition(cover, require_lebesgue=False)
        pulled, kept = pullback_partition(cert, partition)
        want_kept, want_pieces, _ = dict_pullback(cert, partition)
        assert kept == want_kept
        _assert_same_cover(pulled.cover, Cover(space, want_pieces))

    @settings(max_examples=100, deadline=None)
    @given(_line_covers(), st.data(), st.sampled_from([1, 2]))
    def test_direct_limit_cover(self, cover, data, L):
        space = cover.space
        count = data.draw(st.integers(1, 4))
        rank = data.draw(st.lists(st.integers(0, count - 1), min_size=len(space),
                                  max_size=len(space)))
        rank[data.draw(st.integers(0, len(space) - 1))] = 0
        stages = [[x for x, r in zip(space.point_ids, rank) if r <= k] for k in range(count)]
        res = direct_limit_cover(ChainOfSubspaces(space, stages), L)
        _, pieces, _, _ = frozenset_direct_limit(space, stages, L)
        _assert_same_cover(res.cover, Cover(space, pieces))


class TestLebesgueOracle:
    """The fit radius and its rounding onto the realized distances, ball by ball,
    on float distances (``_covers``) and on integral ones (``_line_covers``)."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_covers(), _line_covers()))
    def test_report_and_fit_radius_match_the_balls(self, cover):
        assert lebesgue_report(cover) == dense_lebesgue(cover)
        for r in cover.space.realized_distances():
            assert (r < cover.fit_radius) == every_ball_fits(cover, r)
