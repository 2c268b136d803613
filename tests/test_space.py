"""Space layer: metric validation, balls, nets, retraction, coarse-map moduli."""

import functools
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
    load_map_assignment,
    space_from_graph,
    space_from_matrix,
    z2_ball,
    z_interval,
)
from coarse_lab import space as space_module
from coarse_lab.space import _pair_chunks, _pair_sweep, _SparseRows
from oracles import dense_triangle_violation, l1_distance, nearest_point, sparse_diff_norm_sq


def path_graph(n):
    return space_from_graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def map_array(source, target, f):
    """The index array of the map x -> f(x) from source to target."""
    return target.indices([f(x) for x in source.point_ids])


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

    def test_nan_radius_rejected(self):
        with pytest.raises(ValidationError, match="ball radius must be >= 0"):
            path_graph(5).ball(0, math.nan)

    def test_monotone_in_radius(self):
        s = cycle(9)
        for r in range(5):
            assert s.ball(0, r) <= s.ball(0, r + 1)


class TestNearestPoint:
    """The scalar reference for the argmins in construct."""

    def test_plain_nearest(self):
        p5 = path_graph(5)
        assert nearest_point(p5, 1, [0, 4]) == 0

    def test_tie_breaks_to_earliest_stored(self):
        assert nearest_point(path_graph(5), 2, [0, 4]) == 0

    def test_member_maps_to_itself(self):
        p5 = path_graph(5)
        assert nearest_point(p5, 4, [0, 4]) == 4

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            nearest_point(path_graph(5), 0, [])


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
        cert = check_coarse_map(s, s, map_array(s, s, lambda p: p))
        for r, v in cert.modulus.samples():
            assert v == r

    def test_constant_map_modulus_zero(self):
        s = z_interval(0, 9)
        cert = check_coarse_map(s, s, map_array(s, s, lambda p: 0))
        assert all(v == 0.0 for _, v in cert.modulus.samples())

    def test_sup_metric_projection_modulus(self):
        # first-coordinate projection of the sup-metric ball contracts
        # nothing: ell(r) = r at every sampled radius
        src = z2_ball(3, norm="linf")
        tgt = z_interval(-3, 3)
        cert = check_coarse_map(src, tgt, map_array(src, tgt, lambda p: p[0]))
        for r, v in cert.modulus.samples():
            assert v == r

    def test_modulus_tight_and_nondecreasing(self):
        src = z_interval(0, 6)
        tgt = z_interval(0, 12)
        assignment = {p: 2 * p for p in src.point_ids}
        cert = check_coarse_map(src, tgt, map_array(src, tgt, assignment.get))
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
        with pytest.raises(ValidationError, match="assignment is not total, missing 1"):
            load_map_assignment({"type": "pairs", "pairs": [[0, 0]]}, s, s)

    def test_certificate_holds_index_array(self):
        s = cycle(4)
        cert = check_coarse_map(s, s, map_array(s, s, lambda p: (p + 1) % 4))
        assert isinstance(cert, CoarseMapCert)
        assert cert.img.tolist() == [1, 2, 3, 0]
        assert cert.img.dtype == np.int64 and not cert.img.flags.writeable

    @pytest.mark.parametrize("img", [np.zeros(2, dtype=int), np.full(3, 3), np.full(3, -1),
                                     np.zeros(3, dtype=bool), np.zeros(3)],
                             ids=["shape", "high", "negative", "bool", "float"])
    def test_bad_arrays_rejected(self, img):
        with pytest.raises(ValidationError, match="map array must be"):
            check_coarse_map(cycle(3), cycle(3), img)

    def test_step_modulus_holds_between_samples(self):
        s = z_interval(0, 5)
        cert = check_coarse_map(s, s, map_array(s, s, lambda p: p))
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


# largest entries at the edges of uint8, uint16 and uint32 sums, and past them
_TOP_DISTANCES = [63, 64, 127, 128, 32767, 32768, 2**31 - 1, 2**31]


@st.composite
def _perturbed_metrics(draw, min_n=3):
    """(ids, D): entries in [ceil(top / 2), top] form a metric whatever they
    are; one symmetric entry is then reset to a near-boundary value, and a
    variant shifts every distance by 0.5 off the integers."""
    n = draw(st.integers(min_value=min_n, max_value=10))
    top = draw(st.sampled_from(_TOP_DISTANCES))
    entry = st.one_of(st.just(top), st.integers(min_value=(top + 1) // 2, max_value=top))
    D = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            D[a][b] = D[b][a] = draw(entry)
    i, j, k = draw(st.permutations(range(n)))[:3]
    D[i][j] = D[j][i] = draw(st.one_of(
        st.integers(min_value=1, max_value=2 * top + 1),
        st.sampled_from([-1, 0, 1]).map(lambda e: D[i][k] + D[k][j] + e)))
    shift = draw(st.sampled_from([0, 0.5]))
    D = [[v + shift if a != b else 0 for b, v in enumerate(row)] for a, row in enumerate(D)]
    return ["p%d" % a for a in range(n)], D


@functools.lru_cache(maxsize=None)
def _seed_zero_triples(n):
    """The (i, k, j) triples the sampled check draws on n points."""
    rng = np.random.default_rng(0)
    return tuple(map(tuple, rng.integers(0, n, size=(space_module._SAMPLED_TRIPLES, 3))
                     .tolist()))


def _assert_matches_oracle(ids, D, want):
    if want is None:
        assert len(space_from_matrix(ids, D)) == len(ids)
        return
    with pytest.raises(MetricAxiomError) as err:
        space_from_matrix(ids, D)
    assert "triangle inequality fails" in str(err.value)
    assert err.value.points == tuple(ids[v] for v in want)


class TestTriangleCheck:
    @settings(max_examples=200, deadline=None)
    @given(_perturbed_metrics())
    def test_exhaustive_matches_triple_loop(self, case):
        ids, D = case
        _assert_matches_oracle(ids, D, dense_triangle_violation(D))

    @settings(max_examples=50, deadline=None)
    @given(_perturbed_metrics(min_n=5))
    def test_sampled_matches_seed_zero_triples(self, case):
        ids, D = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space_module, "_EXHAUSTIVE_TRIANGLE_LIMIT", 4)
            _assert_matches_oracle(ids, D, dense_triangle_violation(
                D, _seed_zero_triples(len(ids))))


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


# distance sets within [t, 2t], so every matrix over one is a metric: integers
# (radix-sorted keys), half-integers and integers from 2^31 (float keys)
_DISTANCE_SETS = [(1.0, 2.0), (1.0, 1.5, 2.0), (2.0**31, 2.0**31 + 1, 2.0**31 + 2)]


@st.composite
def _sweep_sequences(draw):
    """A space, pair values and several radius lists to sweep it with, in
    turn: later lists may reach past or stop short of earlier ones."""
    dists = draw(st.sampled_from(_DISTANCE_SETS))
    n = draw(st.integers(min_value=1, max_value=7))
    D = np.zeros((n, n))
    V = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            D[a, b] = D[b, a] = draw(st.sampled_from(dists))
            V[a, b] = V[b, a] = draw(st.integers(min_value=0, max_value=3))
    radius = st.sampled_from([0.0, dists[-1] + 1] + [d - e for d in dists for e in (0, 0.25)])
    sweeps = draw(st.lists(st.lists(radius, min_size=1, max_size=4), min_size=2, max_size=5))
    return space_from_matrix(["p%d" % i for i in range(n)], D), V, sweeps


class TestPairSweep:
    @settings(max_examples=150, deadline=None)
    @given(_swept_spaces())
    def test_matches_brute_force(self, case):
        space, V, radii = case
        want = _brute_sweep(space, radii, V)
        assert _pair_sweep(space, radii, lambda a, b: V[a, b]) == want

    @settings(max_examples=150, deadline=None)
    @given(_sweep_sequences())
    def test_sweep_sequence_on_one_space(self, case):
        # the space keeps its sorted pairs between sweeps, extending and
        # slicing them as the largest radius moves
        space, V, sweeps = case
        for radii in sweeps:
            assert _pair_sweep(space, radii, lambda a, b: V[a, b]) == _brute_sweep(
                space, radii, V)

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


def _assert_scalar_sums(rows, one_pair_per_call):
    """Both kernel distances equal the scalar sums (==) on every ordered pair.

    One pair per call looks every pair up; all pairs at once mark the
    sharing pairs first and skip the lookup for the others."""
    n = len(rows)
    a, b = (v.ravel() for v in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    calls = ([(a[i:i + 1], b[i:i + 1]) for i in range(len(a))] if one_pair_per_call
             else [(a, b)])
    kernel = _SparseRows(*_flat(rows))
    sq = [v for ca, cb in calls for v in kernel.sq_dist(ca, cb).tolist()]
    kernel = _SparseRows(*_flat(rows))
    l1 = [v for ca, cb in calls for v in kernel.l1_dist(ca, cb).tolist()]
    pairs = list(zip(a.tolist(), b.tolist()))
    assert sq == [sparse_diff_norm_sq(rows[i], rows[j]) for i, j in pairs]
    assert l1 == [l1_distance(rows[i], rows[j]) for i, j in pairs]


class TestSparseRows:
    """The pair kernel reproduces the scalar sums bit for bit, on every pair
    and with every chunking."""

    @pytest.mark.parametrize("one_pair_per_call, slot_budget",
                             [(False, 1 << 16), (False, 3), (True, 1 << 16)])
    @settings(max_examples=40, deadline=None)
    @given(rows=_sparse_rows())
    def test_matches_scalar_sums(self, rows, one_pair_per_call, slot_budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space_module, "_SLOT_BUDGET", slot_budget)
            _assert_scalar_sums(rows, one_pair_per_call)

    @pytest.mark.parametrize("one_pair_per_call", [False, True])
    @pytest.mark.parametrize("width", [127, 128, 255, 256])
    def test_widths_at_slot_type_boundaries(self, width, one_pair_per_call):
        # slots of rows this wide are stored at the edges of int8 and int16
        coefs = np.random.default_rng(width).uniform(-2.0, 2.0, 2 * width).tolist()
        coefs[::5] = [0.0] * len(coefs[::5])
        rows = [dict(zip(range(width), coefs[:width])),
                dict(zip(range(width // 2, width + width // 2), coefs[width:])),
                dict.fromkeys(range(0, width, 3), 0.0),
                {("own", k): c for k, c in enumerate(coefs[:7])}]
        _assert_scalar_sums(rows, one_pair_per_call)

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
