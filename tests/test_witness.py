"""Witness layer: unit-vector families, variation/tail profiles, collapse,
and isometric transport, cross-checked against the dense oracles."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    DecayProfile,
    ValidationError,
    Witness,
    collapse,
    cycle,
    cyclic_group,
    dirac_witness,
    space_from_graph,
    tail_profile,
    transport,
    uniform_ball_witness,
    variation_profile,
    word_metric_space,
    z_interval,
)
from oracles import dense_tail, dense_variation

SQRT2 = math.sqrt(2.0)


def path_graph(n):
    return space_from_graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def random_witness(space, rng, tagged=False, entries=3):
    """Seeded random unit vectors; tags are small ints when requested."""
    vectors = {}
    pts = list(space.point_ids)
    for x in pts:
        vec = {}
        support = rng.choice(len(pts), size=min(entries, len(pts)), replace=False)
        for j, s in enumerate(support):
            key = ((j, pts[int(s)]) if tagged else (None, pts[int(s)]))
            vec[key] = float(rng.uniform(0.1, 1.0))
        norm = math.sqrt(sum(c * c for c in vec.values()))
        vectors[x] = {k: c / norm for k, c in vec.items()}
    return Witness(space, vectors)


class TestWitnessValidation:
    def test_norm_must_be_one(self):
        s = path_graph(2)
        with pytest.raises(ValidationError):
            Witness(s, {0: {(None, 0): 0.5}, 1: {(None, 1): 1.0}})

    def test_unknown_projection_rejected(self):
        s = path_graph(2)
        with pytest.raises(ValidationError):
            Witness(s, {0: {(None, 9): 1.0}, 1: {(None, 1): 1.0}})

    def test_missing_point_rejected(self):
        s = path_graph(2)
        with pytest.raises(ValidationError):
            Witness(s, {0: {(None, 0): 1.0}})

    def test_mixed_bare_and_tagged_rejected(self):
        s = path_graph(2)
        with pytest.raises(ValidationError):
            Witness(s, {0: {(None, 0): 1.0}, 1: {("t", 1): 1.0}})

    @pytest.mark.parametrize("vectors, message", [
        pytest.param({9: {(None, 0): 1.0}, 1: {(None, 1): 1.0}},
                     "witness defined at unknown point 9", id="unknown-point-first"),
        pytest.param({0: {(None, 7): 1.0}, 2: {(None, 2): 1.0}},
                     "witness is missing a vector at 1", id="missing-before-entry"),
        pytest.param({2: {(None, 8): 1.0}, 0: {(None, 0): 1.0},
                      1: {(None, 1): 1.0, (None, 7): 0.0}, 3: {(None, 3): 1.0}},
                     "entry of vector at 1 projects to unknown point 7",
                     id="first-stored-unknown-entry"),
        pytest.param({2: {"ab": 1.0}, 0: {(None, 0): 1.0},
                      1: {(None, 1): 1.0, (None, 7): 0.0}, 3: {(None, 3): 1.0}},
                     "entry of vector at 1 projects to unknown point 7",
                     id="unknown-entry-before-non-pair"),
        pytest.param({2: {(None, 8): 1.0}, 0: {(None, 0): 1.0},
                      1: {(None, 1, 2): 1.0}, 3: {(None, 3): 1.0}},
                     "entry (None, 1, 2) must be a (tag, point) pair",
                     id="non-pair-before-unknown-entry"),
    ])
    def test_first_error_in_stored_order(self, vectors, message):
        # vectors are checked in stored point order, whatever order they come in
        with pytest.raises(ValidationError) as got:
            Witness(cycle(4), vectors)
        assert str(got.value) == message

    @pytest.mark.parametrize("seed", range(4))
    def test_entry_arrays_in_stored_order(self, seed):
        # vectors listed out of stored order; tags interned in entry order
        space = cycle(7)
        rng = np.random.default_rng(seed)
        vectors = {}
        for x in rng.permutation(7).tolist():
            support = rng.choice(7, size=int(rng.integers(1, 5)), replace=False).tolist()
            coefs = rng.uniform(-1.0, 1.0, len(support))
            coefs /= math.sqrt(sum(c * c for c in coefs.tolist()))
            vectors[x] = {("uv"[int(rng.integers(2))], p): c
                          for p, c in zip(support, coefs.tolist())}
        w = Witness(space, vectors)
        tags, want = {}, []
        for x in space.point_ids:
            for (t, p), c in vectors[x].items():
                want.append((x, p, tags.setdefault(t, len(tags)), c))
        assert list(zip(w.row.tolist(), w.at.tolist(), w.tag.tolist(),
                        w.coef.tolist())) == want
        assert w.tags == tuple(tags)

    def test_zero_coefficients_dropped(self):
        s = path_graph(2)
        w = Witness(s, {0: {(None, 0): 1.0, (None, 1): 0.0}, 1: {(None, 1): 1.0}})
        assert (None, 1) not in w.vectors[0]


class TestDirac:
    def test_unit_norm_exact(self):
        w = dirac_witness(cycle(7))
        for vec in w.vectors.values():
            assert sum(c * c for c in vec.values()) == 1.0

    def test_tail_is_zero_everywhere(self):
        w = dirac_witness(cycle(7))
        assert all(v == 0.0 for _, v in tail_profile(w, [0, 1, 2, 3]))

    def test_variation_is_sqrt_two_past_discreteness(self):
        w = dirac_witness(path_graph(5))
        assert variation_profile(w, [1.0])[0][1] == pytest.approx(SQRT2)


class TestVariationProfile:
    def test_constant_witness_zero(self):
        s = path_graph(4)
        vec = {(None, 0): 0.6, (None, 3): 0.8}
        w = Witness(s, {x: dict(vec) for x in s.point_ids})
        assert all(v == 0.0 for _, v in variation_profile(w, [0, 1, 2, 3]))

    def test_uniform_ball_on_interval(self):
        s = z_interval(0, 10)
        w = uniform_ball_witness(s, 1)
        (_, value), = variation_profile(w, [1.0])
        assert 0.0 < value < SQRT2
        assert value == pytest.approx(dense_variation(w, 1.0), abs=1e-12)

    def test_nondecreasing_and_bounded(self):
        s = cycle(9)
        rng = np.random.default_rng(7)
        w = random_witness(s, rng)
        values = [v for _, v in variation_profile(w, range(10))]
        assert values == sorted(values)
        assert values[-1] <= 2.0 + 1e-9

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            variation_profile(dirac_witness(cycle(3)), [-1.0])


class TestTailProfile:
    def test_uniform_ball_values(self):
        s = z_interval(0, 10)
        w = uniform_ball_witness(s, 1)
        prof = tail_profile(w, [0.0, 1.0])
        assert prof.value_at(0.0) == pytest.approx(2.0 / 3.0)
        assert prof.value_at(1.0) == 0.0

    def test_matches_dense_oracle(self):
        s = cycle(11)
        rng = np.random.default_rng(3)
        w = random_witness(s, rng, entries=4)
        for S in (0.0, 1.0, 2.0, 5.0):
            (_, sparse), = tail_profile(w, [S])
            assert sparse == pytest.approx(dense_tail(w, S), abs=1e-12)

    def test_zero_past_diameter(self):
        s = cycle(8)
        rng = np.random.default_rng(11)
        w = random_witness(s, rng)
        assert tail_profile(w, [s.diameter]).value_at(s.diameter) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([cycle(9), z_interval(0, 7)]), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 7))
    def test_matches_scalar_loop_bit_for_bit(self, s, seed, entries):
        w = random_witness(s, np.random.default_rng(seed), entries=entries)
        radii = [0.0, 0.5, 1.0, 2.0, 3.0, 9.0]
        assert tail_profile(w, radii).samples == scalar_tail(w, radii)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([cycle(9), z_interval(0, 7), path_graph(5)]),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 7), st.booleans(), st.booleans(),
           st.data())
    def test_one_sort_matches_dense_oracle(self, s, seed, entries, ball, tagged, data):
        # ball witnesses tie whole shells: equal distances and equal masses
        w = uniform_ball_witness(s, entries % 4) if ball else \
            random_witness(s, np.random.default_rng(seed), tagged, entries)
        dists = s.realized_distances()
        grid = sorted({0.0, 0.5, float(s.diameter) + 1.0}
                      | {float(d) + e for d in dists for e in (-1e-13, 0.0, 0.5)
                         if d + e >= 0.0})
        radii = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=12))
        prof = tail_profile(w, radii)
        assert [r for r, _ in prof] == sorted(radii)
        for r, v in prof:
            assert v == pytest.approx(dense_tail(w, r), abs=1e-12)

    def test_decay_profile_validation(self):
        with pytest.raises(ValidationError):
            DecayProfile(((0.0, 0.2), (1.0, 0.5)))
        with pytest.raises(ValidationError):
            DecayProfile(((0.0, 1.5),))


class TestCollapse:
    def test_distinct_projections_take_absolute_values(self):
        s = path_graph(3)
        w = Witness(s, {
            x: {("a", 0): 0.6, ("b", 1): -0.8} for x in s.point_ids})
        c = collapse(w)
        assert c.vectors[0] == pytest.approx({(None, 0): 0.6, (None, 1): 0.8})

    def test_all_mass_on_one_projection_gives_dirac(self):
        s = path_graph(3)
        w = Witness(s, {
            x: {("a", 2): 0.6, ("b", 2): 0.8} for x in s.point_ids})
        c = collapse(w)
        for x in s.point_ids:
            assert c.vectors[x] == pytest.approx({(None, 2): 1.0})

    def test_bare_input_rejected(self):
        with pytest.raises(ValidationError):
            collapse(dirac_witness(cycle(3)))

    def test_norm_preserved_and_nonexpansive(self):
        s = cycle(8)
        rng = np.random.default_rng(23)
        w = random_witness(s, rng, tagged=True, entries=4)
        c = collapse(w)
        for x in s.point_ids:
            assert sum(v * v for v in c.vectors[x].values()) == pytest.approx(1.0)
        for x in s.point_ids:
            for y in s.point_ids:
                dxi = dense_variation_pair(w, x, y)
                deta = dense_variation_pair(c, x, y)
                assert deta <= dxi + 1e-12

    def test_tail_unchanged_by_grouping(self):
        s = cycle(9)
        rng = np.random.default_rng(29)
        w = random_witness(s, rng, tagged=True, entries=5)
        c = collapse(w)
        for S in (0.0, 1.0, 2.0, 4.0):
            assert tail_profile(c, [S]).value_at(S) == pytest.approx(
                tail_profile(w, [S]).value_at(S), abs=1e-12)


def scalar_tail(witness, radii):
    """The per-point tail loop: each vector's (distance, mass) items sorted,
    suffix sums of the masses from the far end, one bisect per radius."""
    space = witness.space
    per_point = []
    for x in space.point_ids:
        items = sorted((space.d(x, p), c * c) for (_, p), c in witness.vectors[x].items())
        suffix = np.cumsum([m for _, m in items][::-1])[::-1]
        per_point.append(([d for d, _ in items], suffix))
    out = []
    for s in sorted(radii):
        worst = 0.0
        for ds, suffix in per_point:
            pos = bisect_right(ds, s + 1e-12)
            if pos < len(ds):
                worst = max(worst, float(suffix[pos]))
        out.append((s, worst))
    return tuple(out)


def dense_variation_pair(witness, x, y):
    u, v = witness.vectors[x], witness.vectors[y]
    keys = set(u) | set(v)
    return math.sqrt(sum((u.get(k, 0.0) - v.get(k, 0.0)) ** 2 for k in keys))


class TestTransport:
    def test_identity_mapping(self):
        s = cycle(6)
        w = uniform_ball_witness(s, 1)
        t = transport(w, np.arange(len(s)), s)
        assert t.vectors == w.vectors

    def test_rotation_fixes_dirac(self):
        s = cycle(6)
        w = dirac_witness(s)
        t = transport(w, s.indices([(p + 2) % 6 for p in s.point_ids]), s)
        assert t.vectors == w.vectors

    def test_word_metric_translation_preserves_profiles(self):
        g = word_metric_space(cyclic_group(6))
        w = uniform_ball_witness(g, 1)
        t = transport(w, g.indices([(2 + h) % 6 for h in g.point_ids]), g)
        radii = [0.0, 1.0, 2.0, 3.0]
        assert variation_profile(t, radii) == variation_profile(w, radii)
        assert tail_profile(t, radii).samples == tail_profile(w, radii).samples

    def test_non_isometry_rejected(self):
        s = z_interval(0, 3)
        with pytest.raises(ValidationError, match="not isometric at pair"):
            transport(dirac_witness(s), s.indices([0, 1, 3, 2]), s)

    def test_non_bijection_rejected(self):
        s = cycle(4)
        with pytest.raises(ValidationError):
            transport(dirac_witness(s), [0] * len(s), s)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_witness_profiles_well_formed(seed):
    s = cycle(7)
    rng = np.random.default_rng(seed)
    w = random_witness(s, rng, entries=int(rng.integers(1, 5)))
    radii = [0.0, 1.0, 2.0, 3.0]
    tail = tail_profile(w, radii)
    values = [v for _, v in tail.samples]
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    var = [v for _, v in variation_profile(w, radii)]
    assert var == sorted(var)
    for S in radii:
        assert tail.value_at(S) == pytest.approx(dense_tail(w, S), abs=1e-12)
