"""Space layer: metric validation, balls, nets, retraction, coarse-map moduli."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    CoarseMapCert,
    DisconnectedGraphError,
    MetricAxiomError,
    ValidationError,
    check_coarse_map,
    cycle,
    grid,
    is_c_net,
    space_from_graph,
    space_from_matrix,
    z2_ball,
    z_interval,
)
from coarse_lab import space as space_module
from coarse_lab.space import _pair_chunks, _pair_sweep, _SparseRows
from oracles import l1_distance, sparse_diff_norm_sq


def path_graph(n):
    return space_from_graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


class TestBuildSpace:
    def test_path_graph_metric(self):
        p5 = path_graph(5)
        assert p5.d(0, 4) == 4.0
        assert p5.uniform_discreteness == 1.0

    def test_one_point_space(self):
        s = space_from_matrix(["a"], [[0.0]])
        assert s.uniform_discreteness == math.inf
        assert s.ball("a", 100.0) == frozenset(["a"])

    def test_six_cycle(self):
        c6 = cycle(6)
        assert c6.d(0, 3) == 3.0
        assert c6.bounded_geometry(1.0) == 3

    def test_asymmetric_table_rejected(self):
        with pytest.raises(MetricAxiomError):
            space_from_matrix([0, 1], [[0.0, 1.0], [2.0, 0.0]])

    def test_triangle_violation_names_points(self):
        # d(a,c) = 5 > 1 + 1
        with pytest.raises(MetricAxiomError) as err:
            space_from_matrix(
                ["a", "b", "c"],
                [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert "a" in str(err.value) and "c" in str(err.value)

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(MetricAxiomError):
            space_from_matrix([0, 1], [[0.0, 0.0], [0.0, 0.0]])

    def test_disconnected_graph_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            space_from_graph([0, 1, 2, 3], [(0, 1), (2, 3)])


class TestBalls:
    def test_interior_ball(self):
        assert path_graph(5).ball(2, 1) == frozenset({1, 2, 3})

    def test_radius_zero(self):
        assert path_graph(5).ball(4, 0) == frozenset({4})

    def test_radius_past_diameter(self):
        assert path_graph(5).ball(0, 10) == frozenset(range(5))

    def test_unknown_center(self):
        with pytest.raises(ValidationError):
            path_graph(5).ball(99, 1)

    def test_monotone_in_radius(self):
        s = cycle(9)
        for r in range(5):
            assert s.ball(0, r) <= s.ball(0, r + 1)


class TestNearestPoint:
    def test_plain_nearest(self):
        p5 = path_graph(5)
        assert p5.nearest_point(1, [0, 4]) == 0

    def test_tie_breaks_to_earliest_stored(self):
        assert path_graph(5).nearest_point(2, [0, 4]) == 0

    def test_member_maps_to_itself(self):
        p5 = path_graph(5)
        assert p5.nearest_point(4, [0, 4]) == 4

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            path_graph(5).nearest_point(0, [])


class TestNets:
    def test_whole_space_is_a_net_at_any_scale(self):
        s = cycle(7)
        assert is_c_net(s, s.point_ids, 0.0)

    def test_evens_are_a_one_net(self):
        assert is_c_net(z_interval(0, 10), [0, 2, 4, 6, 8, 10], 1)

    def test_evens_are_not_a_zero_net(self):
        assert not is_c_net(z_interval(0, 10), [0, 2, 4, 6, 8, 10], 0)


class TestCoarseMap:
    def test_identity_modulus(self):
        s = cycle(8)
        cert = check_coarse_map(s, s, {p: p for p in s.point_ids})
        for r, v in cert.modulus.samples():
            assert v == r

    def test_constant_map_modulus_zero(self):
        s = z_interval(0, 9)
        cert = check_coarse_map(s, s, {p: 0 for p in s.point_ids})
        assert all(v == 0.0 for _, v in cert.modulus.samples())

    def test_sup_metric_projection_modulus(self):
        # first-coordinate projection of the sup-metric ball contracts
        # nothing: ell(r) = r at every sampled radius
        src = z2_ball(3, norm="linf")
        tgt = z_interval(-3, 3)
        cert = check_coarse_map(src, tgt, {p: p[0] for p in src.point_ids})
        for r, v in cert.modulus.samples():
            assert v == r

    def test_modulus_tight_and_nondecreasing(self):
        src = z_interval(0, 6)
        tgt = z_interval(0, 12)
        assignment = {p: 2 * p for p in src.point_ids}
        cert = check_coarse_map(src, tgt, assignment)
        values = [v for _, v in cert.modulus.samples()]
        assert values == sorted(values)
        # every sampled value is attained by some pair
        for r, v in cert.modulus.samples():
            attained = max(
                tgt.d(assignment[x], assignment[y])
                for x in src.point_ids for y in src.point_ids
                if src.d(x, y) <= r)
            assert attained == v

    def test_partial_assignment_rejected(self):
        s = cycle(4)
        with pytest.raises(ValidationError):
            check_coarse_map(s, s, {0: 0})

    def test_certificate_is_callable(self):
        s = cycle(4)
        cert = check_coarse_map(s, s, {p: (p + 1) % 4 for p in s.point_ids})
        assert isinstance(cert, CoarseMapCert)
        assert cert(0) == 1

    def test_step_modulus_holds_between_samples(self):
        s = z_interval(0, 5)
        cert = check_coarse_map(s, s, {p: p for p in s.point_ids})
        # conservative step extension: value at 1.5 is the next sample's
        assert cert.modulus(1.5) == 2.0
        assert cert.modulus(99.0) == 5.0


class TestRestrict:
    def test_restriction_keeps_stored_order_and_metric(self):
        s = z_interval(0, 10)
        sub = s.restrict([4, 0, 8])
        assert sub.point_ids == (0, 4, 8)
        assert sub.d(0, 8) == 8.0

    def test_restriction_requires_members(self):
        with pytest.raises(ValidationError):
            z_interval(0, 3).restrict([7])


class TestBuilders:
    def test_grid_l1_distance(self):
        g = grid([3, 3])
        assert g.d((0, 0), (2, 2)) == 4.0

    def test_z2_ball_l1_point_count(self):
        # |{|a|+|b| <= r}| = 2r^2 + 2r + 1
        assert len(z2_ball(6)) == 85

    def test_unsupported_norm(self):
        with pytest.raises(ValidationError):
            grid([2, 2], norm="l7")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=7))
def test_random_path_metrics_validate(weights):
    # prefix sums along a weighted path always form a metric
    pts = list(range(len(weights) + 1))
    pos = np.cumsum([0] + weights)
    D = np.abs(pos[:, None] - pos[None, :]).astype(float)
    s = space_from_matrix(pts, D)
    assert s.diameter == float(pos[-1])
    assert s.uniform_discreteness == float(min(weights))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=6))
def test_cycle_ball_size(n, r):
    s = cycle(n)
    expected = min(n, 2 * r + 1)
    assert len(s.ball(0, r)) == expected


def _brute_sweep(space, radii, V):
    """Double loop over (a, b): the max of V over pairs within r (floor 0.0)
    and the attaining pair that comes first by (distance, a, b)."""
    out = []
    n = len(space)
    for r in sorted(radii):
        inside = [(space.D[a, b], a, b) for a in range(n) for b in range(a + 1, n)
                  if space.D[a, b] <= r + 1e-12]
        best = max([0.0] + [V[a][b] for _, a, b in inside])
        pair = None
        if best > 0.0:
            _, a, b = min(t for t in inside if V[t[1]][t[2]] == best)
            pair = (space.point_ids[a], space.point_ids[b])
        out.append((float(r), best, pair))
    return out


@st.composite
def _swept_spaces(draw):
    # distances in {1, 2} always satisfy the triangle inequality; small
    # integer values make ties in both distance and value common
    n = draw(st.integers(min_value=1, max_value=7))
    D = np.zeros((n, n))
    V = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            D[a, b] = D[b, a] = draw(st.sampled_from([1.0, 2.0]))
            V[a, b] = V[b, a] = draw(st.integers(min_value=0, max_value=3))
    radii = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                          min_size=1, max_size=4))
    return space_from_matrix(["p%d" % i for i in range(n)], D), V, radii


class TestPairSweep:
    @settings(max_examples=150, deadline=None)
    @given(_swept_spaces())
    def test_matches_brute_force(self, case):
        space, V, radii = case
        want = _brute_sweep(space, radii, V)
        assert _pair_sweep(space, radii, lambda a, b: V[a, b]) == want

    def test_one_point_space(self):
        s = space_from_matrix(["a"], [[0.0]])
        assert _pair_sweep(s, [0.0, 5.0], lambda a, b: np.ones(len(a))) == [
            (0.0, 0.0, None), (5.0, 0.0, None)]

    def test_radius_below_smallest_distance(self):
        s = z_interval(0, 4)
        assert _pair_sweep(s, [0.5], lambda a, b: np.ones(len(a))) == [(0.5, 0.0, None)]

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_negative_or_nan_radius_rejected(self, bad):
        with pytest.raises(ValidationError):
            _pair_sweep(z_interval(0, 4), [1.0, bad], lambda a, b: np.ones(len(a)))


# entry keys: bare ints and (tag, point) tuples, from a pool whose size sets
# how often two rows share entries
_KEYS = st.one_of(st.integers(0, 9),
                  st.tuples(st.sampled_from([None, 0, "t", (1, 2)]), st.integers(0, 4)))
# coefficients: simple floats, and seeded uniform draws whose last bits are
# arbitrary (where CPython's c ** 2 and c * c can differ)
_COEFS = st.one_of(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                   st.integers(0, 2**32 - 1).map(
                       lambda seed: float(np.random.default_rng(seed).uniform(-2.0, 2.0))))


def _flat(rows):
    """Dict rows as the kernel's (n, row, key, coef) entry arrays, keys interned."""
    intern = {}
    row = [r for r, vec in enumerate(rows) for _ in vec]
    key = [intern.setdefault(k, len(intern)) for vec in rows for k in vec]
    coef = [c for vec in rows for c in vec.values()]
    return (len(rows), np.array(row, dtype=np.int64), np.array(key, dtype=np.int64),
            np.array(coef, dtype=np.float64))


@st.composite
def _sparse_rows(draw):
    pool = draw(st.lists(_KEYS, min_size=1, max_size=30, unique=True))
    keys = st.sampled_from(pool)
    rows = draw(st.lists(st.dictionaries(keys, _COEFS, max_size=7), min_size=1, max_size=9))
    # one row sharing part of another row's entries, and one sharing none
    base = draw(st.sampled_from(rows))
    partial = {k: c if draw(st.booleans()) else draw(_COEFS)
               for k, c in base.items() if draw(st.booleans())}
    partial[("only", 0)] = 1.0
    fresh = {("fresh", i): draw(_COEFS) for i in range(draw(st.integers(0, 5)))}
    return rows + [partial, fresh]


class TestSparseRows:
    """The pair kernel reproduces the scalar sums bit for bit, on every pair
    and with every chunking."""

    @pytest.mark.parametrize("one_pair_per_call, slot_budget",
                             [(False, 1 << 16), (False, 3), (True, 1 << 16)])
    @settings(max_examples=40, deadline=None)
    @given(rows=_sparse_rows())
    def test_matches_scalar_sums(self, rows, one_pair_per_call, slot_budget):
        n = len(rows)
        a, b = (v.ravel() for v in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        # one pair per call looks every pair up; all pairs at once list the
        # sharing pairs first and skip the lookup for the others
        calls = ([(a[i:i + 1], b[i:i + 1]) for i in range(len(a))] if one_pair_per_call
                 else [(a, b)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space_module, "_SLOT_BUDGET", slot_budget)
            kernel = _SparseRows(*_flat(rows))
            sq = [v for ca, cb in calls for v in kernel.sq_dist(ca, cb).tolist()]
            kernel = _SparseRows(*_flat(rows))
            l1 = [v for ca, cb in calls for v in kernel.l1_dist(ca, cb).tolist()]
        pairs = list(zip(a.tolist(), b.tolist()))
        assert sq == [sparse_diff_norm_sq(rows[i], rows[j]) for i, j in pairs]
        assert l1 == [l1_distance(rows[i], rows[j]) for i, j in pairs]

    def test_squares_round_like_cpython(self):
        # differences whose CPython square d ** 2 (libm pow) is not d * d
        rng = np.random.default_rng(7)
        odd = [d for d in rng.uniform(-2.0, 2.0, 20000).tolist() if d ** 2 != d * d][:8]
        assert odd
        # one nonzero term per sum, so no rounding of a longer sum hides the
        # last bit; row len(odd) shares each entry, row len(odd) + 1 none
        rows = [{i: d} for i, d in enumerate(odd)]
        rows += [dict.fromkeys(range(len(odd)), 0.0), {"other": 0.0}]
        kernel = _SparseRows(*_flat(rows))
        a = np.arange(len(odd))
        for b in (len(odd), len(odd) + 1):
            assert kernel.sq_dist(a, np.full_like(a, b)).tolist() == [
                sparse_diff_norm_sq(rows[i], rows[b]) for i in a]
            assert kernel.sq_dist(np.full_like(a, b), a).tolist() == [
                sparse_diff_norm_sq(rows[b], rows[i]) for i in a]

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 37])
    @pytest.mark.parametrize("size", [1, 4, 1 << 15])
    def test_pair_chunks_are_row_major(self, n, size, monkeypatch):
        monkeypatch.setattr(space_module, "_PAIR_CHUNK", size)
        got = [(int(a), int(b)) for ca, cb in _pair_chunks(n) for a, b in zip(ca, cb)]
        assert got == [(a, b) for a in range(n) for b in range(a + 1, n)]
