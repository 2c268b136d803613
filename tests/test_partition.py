"""Partitions of unity: the distance-ratio construction and its Lipschitz
bound, pullbacks along certified maps, and the variation functional."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    Cover,
    PartitionOfUnity,
    PreconditionError,
    ValidationError,
    bell_lipschitz_constant,
    bell_partition,
    check_coarse_map,
    cycle,
    multiplicity,
    partition_to_json,
    partition_variation_profile,
    pullback_partition,
    space_from_graph,
    z2_ball,
    z_interval,
)
from oracles import (dense_partition_variation, dict_masses, dict_partition_rows,
                     dict_pullback, masses, partition_value_maps)


def path_graph(n):
    return space_from_graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def map_array(source, target, f):
    """The index array of the map x -> f(x) from source to target."""
    return target.indices([f(x) for x in source.point_ids])


def p5_cover():
    s = path_graph(5)
    return s, Cover(s, [[0, 1, 2], [2, 3, 4]])


class TestPartitionValidation:
    def test_sums_must_be_one(self):
        s = path_graph(3)
        cov = Cover(s, [[0, 1, 2]])
        with pytest.raises(ValidationError):
            PartitionOfUnity(s, cov, [[0.5, 1.0, 1.0]])

    def test_subordination_enforced(self):
        s = path_graph(3)
        cov = Cover(s, [[0, 1], [1, 2]])
        with pytest.raises(ValidationError) as err:
            PartitionOfUnity(s, cov, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert "subordination" in str(err.value)

    def test_space_identity_required(self):
        s = path_graph(3)
        other = path_graph(3)
        cov = Cover(s, [[0, 1, 2]])
        with pytest.raises(ValidationError):
            PartitionOfUnity(other, cov, [[1.0, 1.0, 1.0]])

    @pytest.mark.parametrize("pieces, phi, message", [
        ([[0, 1, 2]], [[1.5, 1.0, 1.0]], "value 1.5 for piece 0 at 0 is outside (0, 1]"),
        ([[0, 1, 2], [0, 1, 2]], [[1.0, -0.5, 1.0], [0.0, 1.5, 0.0]],
         "value -0.5 for piece 0 at 1 is outside (0, 1]"),
        ([[0, 1, 2]], [[1.0, math.nan, 1.0]], "value nan for piece 0 at 1 is outside (0, 1]"),
        ([[0, 1], [1, 2]], [[1.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
         "subordination fails: piece 0 positive at 2 outside the piece"),
        ([[0, 1], [1, 2]], [[1.0, 0.5, 0.0], [0.0, 0.25, 1.0]], "values at 1 sum to 0.75, not 1"),
        ([[0, 1, 2]], [[1.0, 1.0]], "partition values must have shape (1, 3), not (1, 2)"),
        ([[0, 1, 2]], [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
         "partition values must have shape (1, 3), not (2, 3)"),
        # several bad entries: the first in row-major order is named
        ([[0, 1, 2], [1, 2]], [[1.0, 0.5, 2.0], [0.7, 0.5, -1.0]],
         "value 2.0 for piece 0 at 2 is outside (0, 1]"),
    ])
    def test_array_input_errors(self, pieces, phi, message):
        s = path_graph(3)
        with pytest.raises(ValidationError) as err:
            PartitionOfUnity(s, Cover(s, pieces), np.array(phi))
        assert str(err.value) == message

    def test_cover_on_another_space(self):
        s = path_graph(3)
        cov = Cover(path_graph(3), [[0, 1, 2]])
        with pytest.raises(ValidationError) as err:
            PartitionOfUnity(s, cov, np.ones((1, 3)))
        assert str(err.value) == "partition space must be the cover's space"

    def test_array_is_stored_read_only(self):
        s = path_graph(3)
        phi = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        part = PartitionOfUnity(s, Cover(s, [[0, 1], [1, 2]]), phi)
        phi[0, 0] = 0.0
        assert part.value(0, 0) == 1.0
        assert not part.phi.flags.writeable
        assert masses(part) == {0: {0: 1.0}, 1: {0: 0.5, 1: 0.5}, 2: {1: 1.0}}


class TestBellPartition:
    def test_single_piece_is_constant_one(self):
        s = path_graph(4)
        part = bell_partition(Cover(s, [list(s.point_ids)]))
        assert all(part.value(0, x) == 1.0 for x in s.point_ids)
        assert partition_variation_profile(part, [10.0])[0][1] == 0.0

    def test_zero_lebesgue_rejected_by_default(self):
        s, cov = p5_cover()
        with pytest.raises(PreconditionError):
            bell_partition(cov)

    def test_distance_ratio_values(self):
        # phi_0(x) = d(x, {3,4}) / (d(x, {3,4}) + d(x, {0,1}))
        s, cov = p5_cover()
        part = bell_partition(cov, require_lebesgue=False)
        assert part.value(0, 0) == 1.0
        assert part.value(0, 2) == 0.5
        assert part.value(0, 4) == 0.0

    def test_lipschitz_constant_arithmetic(self):
        # multiplicity 1, Lebesgue 100 -> 4 * 5 / 100
        s = z_interval(0, 100)
        cov = Cover(s, [list(s.point_ids)])
        assert bell_lipschitz_constant(cov) == pytest.approx(0.2)

    def test_lipschitz_bound_holds_on_generated_covers(self):
        instances = []
        s1 = z_interval(0, 29)
        instances.append(Cover(s1, [list(range(0, 18)), list(range(12, 30))]))
        s2 = cycle(12)
        instances.append(Cover(s2, [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9],
                                    [8, 9, 10, 11, 0, 1]]))
        s3 = z_interval(0, 40)
        instances.append(Cover(s3, [list(range(0, 15)), list(range(5, 30)),
                                    list(range(20, 41))]))
        for cov in instances:
            part = bell_partition(cov)
            C = bell_lipschitz_constant(cov)
            space = cov.space
            for x in space.point_ids:
                for y in space.point_ids:
                    if x == y:
                        continue
                    s = sum(abs(part.value(i, x) - part.value(i, y))
                            for i in range(len(cov.pieces)))
                    assert s <= C * space.d(x, y) + 1e-9


class TestVariation:
    def test_adjacent_pair_value(self):
        s, cov = p5_cover()
        part = bell_partition(cov, require_lebesgue=False)
        value, pair = partition_variation_profile(part, [1])[0][1:]
        assert value == pytest.approx(1.0)
        assert set(pair) in ({1, 2}, {2, 3})

    def test_below_discreteness_scale_is_zero(self):
        s, cov = p5_cover()
        part = bell_partition(cov, require_lebesgue=False)
        assert partition_variation_profile(part, [0.5])[0][1] == 0.0

    def test_matches_dense_oracle(self):
        s = z_interval(0, 20)
        cov = Cover(s, [list(range(0, 12)), list(range(6, 21))])
        part = bell_partition(cov)
        for R in (0.0, 1.0, 3.0, 7.0, 20.0):
            assert partition_variation_profile(part, [R])[0][1] == pytest.approx(
                dense_partition_variation(part, R), abs=1e-12)


class TestPullback:
    def test_identity_map_keeps_values(self):
        s, cov = p5_cover()
        part = bell_partition(cov, require_lebesgue=False)
        cert = check_coarse_map(s, s, map_array(s, s, lambda p: p))
        pulled, kept = pullback_partition(cert, part)
        assert kept == (0, 1)
        for i in range(2):
            for x in s.point_ids:
                assert pulled.value(i, x) == part.value(i, x)

    def test_constant_map_freezes_target_values(self):
        s, cov = p5_cover()
        part = bell_partition(cov, require_lebesgue=False)
        src = cycle(6)
        cert = check_coarse_map(src, s, map_array(src, s, lambda p: 1))
        pulled, kept = pullback_partition(cert, part)
        # only the piece containing the image point survives
        assert kept == (0,)
        assert all(pulled.value(0, x) == 1.0 for x in src.point_ids)

    def test_projection_chain_inequality(self):
        src = z2_ball(4)
        tgt = z_interval(-4, 4)
        cov = Cover(tgt, [list(range(-4, 1)), list(range(-1, 5))])
        part = bell_partition(cov)
        cert = check_coarse_map(src, tgt, map_array(src, tgt, lambda p: p[0]))
        pulled, _ = pullback_partition(cert, part)
        for R in (1.0, 2.0, 3.0):
            assert partition_variation_profile(pulled, [R])[0][1] <= \
                partition_variation_profile(part, [cert.modulus(R)])[0][1] + 1e-12

    def test_pullback_sums_to_one(self):
        src = z2_ball(3)
        tgt = z_interval(-3, 3)
        cov = Cover(tgt, [list(range(-3, 2)), list(range(-1, 4))])
        part = bell_partition(cov)
        cert = check_coarse_map(src, tgt, map_array(src, tgt, lambda p: p[0]))
        pulled, _ = pullback_partition(cert, part)
        for x in src.point_ids:
            total = sum(pulled.value(i, x) for i in range(len(pulled.cover.pieces)))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_wrong_space_rejected(self):
        s, cov = p5_cover()
        part = bell_partition(cov, require_lebesgue=False)
        other = path_graph(5)
        cert = check_coarse_map(other, other, map_array(other, other, lambda p: p))
        with pytest.raises(ValidationError):
            pullback_partition(cert, part)


# ------------------------------------------ pullbacks against the dict loops

def _path(n, order):
    """Path graph 0 - 1 - ... - n-1 with its points stored in ``order``."""
    return space_from_graph(order, [(i, i + 1) for i in range(n - 1)])


@st.composite
def _small_spaces(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["interval", "cycle", "path"]))
    if kind == "interval":
        lo = draw(st.integers(-3, 3))
        return z_interval(lo, lo + n - 1)
    if kind == "cycle":
        return cycle(n)
    return _path(n, draw(st.permutations(range(n))))


@st.composite
def _pullback_cases(draw):
    """A map between two small spaces and a random cover of the target."""
    source, target = draw(_small_spaces()), draw(_small_spaces())
    ids = target.point_ids
    pieces = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), min_size=1,
                           max_size=4))
    rest = set(ids) - set().union(*pieces)
    if rest:
        pieces.append(rest)
    images = draw(st.lists(st.sampled_from(ids), min_size=len(source),
                           max_size=len(source)))
    cert = check_coarse_map(source, target, target.indices(images))
    return cert, Cover(target, pieces)


def _assert_matches_dicts(part, pieces, values):
    space = part.space
    assert part.cover.pieces == pieces
    for i in range(len(pieces)):
        for x in space.point_ids:
            assert part.value(i, x) == values[i].get(x, 0.0)
    want = dict_masses(space, values)
    ids = space.point_ids
    assert [(ids[a], i, v) for a, i, v in zip(*(e.tolist() for e in part.entries()))] == \
        [(x, i, v) for x, m in want.items() for i, v in m.items()]
    assert partition_to_json(part)["values"] == dict_partition_rows(space, values)


class TestPullbackAgainstDictLoops:
    @settings(max_examples=60, deadline=None)
    @given(_pullback_cases())
    def test_pullback_values_masses_and_rows(self, case):
        cert, cover = case
        part = bell_partition(cover, require_lebesgue=False)
        _assert_matches_dicts(part, cover.pieces, partition_value_maps(part))
        pulled, kept = pullback_partition(cert, part)
        want_kept, want_pieces, want_values = dict_pullback(cert, part)
        assert kept == want_kept
        _assert_matches_dicts(pulled, want_pieces, want_values)


def test_multiplicity_of_generated_bell_cover_matches_constant():
    s = cycle(12)
    cov = Cover(s, [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9], [8, 9, 10, 11, 0, 1]])
    k = multiplicity(cov)
    assert bell_lipschitz_constant(cov) == pytest.approx(
        (2 * k + 2) * (2 * k + 3) / 1.0)
