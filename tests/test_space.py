"""Space layer: metric validation, balls, nets, retraction, coarse-map moduli."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    CoarseMapCert,
    Cover,
    DisconnectedGraphError,
    FiniteMetricSpace,
    MetricAxiomError,
    ValidationError,
    bell_partition,
    check_coarse_map,
    cycle,
    grid,
    load_map_assignment,
    partition_variation_profile,
    space_from_graph,
    space_from_matrix,
    z2_ball,
    z_interval,
)
from coarse_lab import space as space_module
from coarse_lab.space import _bfs, _DistanceMax, _pair_blocks, _pair_sweep, _SparseRows
from oracles import (
    dense_pair_sweep,
    dense_triangle_violation,
    ball,
    first_axiom_violation,
    is_c_net,
    l1_distance,
    nearest_point,
    sparse_diff_norm_sq,
)


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
        assert ball(s, "a", 100.0) == frozenset(["a"])

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

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError, match="at least one point"):
            space_from_graph([], [])


@st.composite
def _edge_lists(draw):
    """(n, edges): spanning trees of 1-3 vertex blocks (or none), plus random
    edges with self-loops and repeats. Sizes around 64 put the bitsets across
    word boundaries."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=12), st.sampled_from([63, 64, 65, 129])))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=n // 2 + 3))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    blocks = draw(st.integers(min_value=0, max_value=3))
    if blocks:
        perm = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.lists(vertex, min_size=blocks - 1, max_size=blocks - 1)))
        for lo, hi in zip([0] + cuts, cuts + [n]):
            edges += [(perm[draw(st.integers(min_value=lo, max_value=i - 1))], perm[i])
                      for i in range(lo + 1, hi)]
    return n, draw(st.permutations(edges))


class TestHopMetric:
    @settings(max_examples=150, deadline=None)
    @given(_edge_lists())
    def test_matches_scalar_bfs_per_source(self, case):
        n, edges = case
        ids = ["v%d" % i for i in range(n)]
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        rows = [_bfs(adj, s) for s in range(n)]
        unreached = [(s, t) for s in range(n) for t in range(n) if rows[s][t] < 0]
        named = [(ids[a], ids[b]) for a, b in edges]
        if not unreached:
            assert space_from_graph(ids, named).D.tolist() == rows
            return
        with pytest.raises(DisconnectedGraphError) as err:
            space_from_graph(ids, named)
        s, t = unreached[0]
        assert str(err.value) == "graph metric undefined: no path between %r and %r" % (
            ids[s], ids[t])

    def test_hub_graph_in_bounded_memory(self):
        # a hub joined to 2059 points, every spoke listed twice, then a path of
        # 40 more: the hub's neighbour rows and the unpacked rows each span two
        # blocks, and the build needs little beyond D and the copy the space keeps
        n, hub = 2100, 1000
        edges = [(hub, v) for v in range(2060) if v != hub] * 2
        edges += [(v, v + 1) for v in range(2059, n - 1)]
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        tracemalloc.start()
        try:
            D = space_from_graph(range(n), edges).D
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * D.nbytes
        for s in [0, hub, 2058, 2059, n - 1] + list(range(1, n, 97)):
            assert D[s].tolist() == _bfs(adj, s)

    def test_complete_graph_in_bounded_memory(self):
        # the setup holds a few arrays of the 408960 neighbour indices; their
        # bitset rows gathered at once would take 10 times D
        n = 640
        edges = list(itertools.combinations(range(n), 2))
        tracemalloc.start()
        try:
            D = space_from_graph(range(n), edges).D
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * D.nbytes
        assert np.array_equal(D, 1 - np.eye(n))


def _plant(D, kind, i, j):
    """Make one entry of D bad, at (i, j) or (i, i); i != j."""
    if kind == "nonfinite":
        D[i][j] = [math.nan, math.inf, -math.inf][j % 3]
    elif kind == "diagonal":
        D[i][i] = 0.5 + j
    elif kind == "asymmetric":
        D[i][j] = D[j][i] + 1.0
    else:
        D[i][j] = D[j][i] = [0.0, -0.0, -1.5][j % 3]


@st.composite
def _planted_matrices(draw):
    """A metric on 2-30 points with 1-5 bad entries planted at random places."""
    n = draw(st.integers(min_value=2, max_value=30))
    pos = np.cumsum(draw(st.lists(st.integers(min_value=1, max_value=9),
                                  min_size=n, max_size=n)))
    D = np.abs(pos[:, None] - pos[None, :]).astype(float).tolist()
    pair = st.tuples(st.integers(min_value=0, max_value=n - 1),
                     st.integers(min_value=0, max_value=n - 1)).filter(lambda p: p[0] != p[1])
    kind = st.sampled_from(["nonfinite", "diagonal", "asymmetric", "nonpositive"])
    for k, (i, j) in draw(st.lists(st.tuples(kind, pair), min_size=1, max_size=5)):
        _plant(D, k, i, j)
    return D


class TestAxiomReports:
    @settings(max_examples=200, deadline=None)
    @given(_planted_matrices())
    def test_names_the_first_bad_entry(self, D):
        ids = ["p%d" % i for i in range(len(D))]
        phrase, at = first_axiom_violation(D)
        with pytest.raises(MetricAxiomError) as err:
            space_from_matrix(ids, D)
        message, A = str(err.value), np.array(D)
        assert message.startswith(phrase)
        assert err.value.points == tuple(ids[i] for i in at)
        if len(at) == 2:
            i, j = at
            assert "d(%r,%r)=%r" % (ids[i], ids[j], A[i, j]) in message
        elif at:
            assert message.endswith("got %r at point %r" % (A[at[0], at[0]], ids[at[0]]))


class TestBalls:
    """The scalar reference for closed balls."""

    def test_interior_ball(self):
        assert ball(path_graph(5), 2, 1) == frozenset({1, 2, 3})

    def test_radius_zero(self):
        assert ball(path_graph(5), 4, 0) == frozenset({4})

    def test_radius_past_diameter(self):
        assert ball(path_graph(5), 0, 10) == frozenset(range(5))

    def test_unknown_center(self):
        with pytest.raises(ValidationError):
            ball(path_graph(5), 99, 1)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValidationError, match="ball radius must be >= 0"):
            ball(path_graph(5), 0, math.nan)

    def test_monotone_in_radius(self):
        s = cycle(9)
        for r in range(5):
            assert ball(s, 0, r) <= ball(s, 0, r + 1)


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
    """The scalar reference for the c-net condition."""

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


class TestMatrixHandover:
    """Builders hand their fresh matrix to the space; nothing copies it."""

    def test_path_graph_build_holds_one_matrix(self):
        n = 1500
        tracemalloc.start()
        try:
            D = path_graph(n).D
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * D.nbytes
        assert not D.flags.writeable

    def test_subspace_holds_one_matrix(self):
        ambient = cycle(1500)
        tracemalloc.start()
        try:
            sub = ambient._sub(np.arange(0, 1500, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sub.D.nbytes
        assert not sub.D.flags.writeable
        assert sub.d(0, 1498) == 2.0

    def test_full_radius_sweep_holds_one_block(self):
        # a profile evaluates its pairs a block of rows at a time: no n x n
        # mask and no list of every pair within the radius
        space = z_interval(0, 1499)
        cover = Cover(space, [range(max(0, 100 * i - 20), min(1500, 100 * i + 120))
                              for i in range(15)])
        partition = bell_partition(cover, require_lebesgue=False)
        # built once and kept: the kernel's sharing mask and the realized grid
        assert partition.kernel is not None and space.realized_distances()
        tracemalloc.start()
        try:
            (_, v, _), = partition_variation_profile(partition, [space.diameter])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < space.D.nbytes / 4
        assert v > 0.0

    def test_constructor_copies_and_validates(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        space = FiniteMetricSpace(["a", "b"], D)
        assert space.D is not D and D.flags.writeable
        with pytest.raises(MetricAxiomError):
            FiniteMetricSpace(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])


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
    assert len(ball(s, 0, r)) == expected


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

    def test_excess_within_tolerance_passes(self):
        # d(a, c) is one ulp above d(a, b) + d(b, c), well inside 1e-12
        over = np.nextafter(0.1 + 0.2, 1.0)
        space_from_matrix("abc", [[0, 0.1, over], [0.1, 0, 0.2], [over, 0.2, 0]])
        with pytest.raises(MetricAxiomError):
            space_from_matrix("abc", [[0, 0.1, 0.3 + 2e-12], [0.1, 0, 0.2], [0.3 + 2e-12, 0.2, 0]])

    @pytest.mark.parametrize("shift", [0, 0.5], ids=["integer", "half"])
    @pytest.mark.parametrize("a, b", [(0, 299), (17, 40), (297, 299)])
    def test_one_raised_entry_at_the_exhaustive_limit(self, a, b, shift):
        # on a line every k strictly between a and b breaks d(a, b) + 1; the
        # first k is a + 1, so the buffers are reused over a + 1 values of k
        n = space_module._EXHAUSTIVE_TRIANGLE_LIMIT
        pos = np.arange(n, dtype=float)
        D = np.abs(pos[:, None] - pos[None, :]) + shift * (1 - np.eye(n))
        D[a, b] = D[b, a] = D[a, b] + 1
        with pytest.raises(MetricAxiomError) as err:
            space_from_matrix(range(n), D)
        assert err.value.points == (a, a + 1, b)

    @settings(max_examples=50, deadline=None)
    @given(_perturbed_metrics(min_n=5))
    def test_sampled_matches_seed_zero_triples(self, case):
        ids, D = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space_module, "_EXHAUSTIVE_TRIANGLE_LIMIT", 4)
            _assert_matches_oracle(ids, D, dense_triangle_violation(
                D, _seed_zero_triples(len(ids))))


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


@st.composite
def _sweep_feeds(draw):
    """A space with pair values (ties, NaN), radii at and within 2e-12 of its
    distances, and a block size."""
    dists = draw(st.sampled_from(_DISTANCE_SETS + [(0.3, 0.45, 0.6)]))
    n = draw(st.integers(min_value=1, max_value=7))
    D = np.zeros((n, n))
    V = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            D[a, b] = D[b, a] = draw(st.sampled_from(dists))
            V[a, b] = V[b, a] = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0, float("nan")]))
    near = st.tuples(st.sampled_from((0.0,) + dists),
                     st.sampled_from([0.0, 5e-13, -5e-13, -2e-12]))
    radii = draw(st.lists(near.map(lambda t: max(0.0, t[0] + t[1])), max_size=6))
    size = draw(st.sampled_from([1, 7, space_module._PAIR_CHUNK]))
    return space_from_matrix(["p%d" % i for i in range(n)], D), V, radii, size


class TestPairSweep:
    @settings(max_examples=150, deadline=None)
    @given(_swept_spaces())
    def test_matches_brute_force(self, case):
        space, V, radii = case
        want = dense_pair_sweep(space, radii, V)
        assert _pair_sweep(space, radii, lambda a, b: V[a, b]) == want

    @settings(max_examples=150, deadline=None)
    @given(_sweep_sequences())
    def test_sweep_sequence_on_one_space(self, case):
        # sweeps of one space that reach past or stop short of the last one
        space, V, sweeps = case
        for radii in sweeps:
            assert _pair_sweep(space, radii, lambda a, b: V[a, b]) == dense_pair_sweep(
                space, radii, V)

    @pytest.mark.parametrize("D", [
        pytest.param(cycle(40).D, id="integral-with-ties"),
        pytest.param(1024.0 * z_interval(0, 70).D, id="integral-past-2^16"),
        pytest.param(0.7 * cycle(40).D + 0.25 * (1.0 - np.eye(40)), id="not-integral"),
    ])
    def test_fixed_matrices(self, D):
        space = FiniteMetricSpace(range(len(D)), D)
        # values tied within a distance and across distances
        V = np.add.outer(np.arange(len(D)), np.arange(len(D))) % 5 * 1.0
        for r in (D.max() / 2, 2**16 - 1, D.max()):
            radii = [0.0, r / 3, r]
            assert _pair_sweep(space, radii, lambda a, b: V[a, b]) == \
                dense_pair_sweep(space, radii, V)

    @settings(max_examples=150, deadline=None)
    @given(_sweep_feeds())
    def test_blocks_match_brute_force(self, case):
        # the same row-major pairs fed in blocks of 1, 7 or _PAIR_CHUNK pairs
        space, V, radii, size = case
        a, b = np.nonzero(np.triu(np.ones((len(space),) * 2, dtype=bool), 1))
        sweep = _DistanceMax(space)
        for lo in range(0, len(a), size):
            sweep.add(a[lo:lo + size], b[lo:lo + size], V[a[lo:lo + size], b[lo:lo + size]])
        assert sweep.profile(radii) == dense_pair_sweep(space, radii, V)

    @pytest.mark.parametrize("D, radius, top", [
        pytest.param(cycle(40).D, 7.5, 7.0, id="integral"),
        pytest.param(0.7 * cycle(40).D + 0.25 * (1.0 - np.eye(40)), 3.0, 0.7 * 3 + 0.25,
                     id="not-integral"),
    ])
    def test_grid_ends_at_radius(self, D, radius, top):
        # a radius strictly between two realized distances
        space = FiniteMetricSpace(range(len(D)), D)
        sweep = _DistanceMax(space, radius)
        assert sweep.grid[-1] == max(v for v in space.realized_distances() if v <= radius) == top
        V = np.add.outer(np.arange(len(D)), 2 * np.arange(len(D))) % 7 * 1.0
        for a, b in _pair_blocks(space, radius):
            sweep.add(a, b, V[a, b])
        radii = [0.0, 1.0, top - 0.1, radius]
        assert sweep.profile(radii) == dense_pair_sweep(space, radii, V)

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

    Either way only the pairs that share an entry are looked up; one pair per
    call checks that a pair's sums do not depend on the pairs queried with it."""
    n = len(rows)
    a, b = (v.ravel() for v in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    calls = ([(a[i:i + 1], b[i:i + 1]) for i in range(len(a))] if one_pair_per_call
             else [(a, b)])
    kernel = _SparseRows(*_flat(rows))
    sq = [v for ca, cb in calls for v in kernel.sq_dist(ca, cb).tolist()]
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

    # budget 3 marks every key's rows in row blocks; 16 marks the keys held by
    # up to 4 rows in key blocks and the crowd's key in row blocks
    @pytest.mark.parametrize("slot_budget", [1 << 16, 16, 3])
    @settings(max_examples=40, deadline=None)
    @given(rows=_sparse_rows(), crowd=st.integers(0, 12))
    def test_sharing_mask_is_the_sharing_relation(self, rows, crowd, slot_budget):
        # rows that all hold one key make a long key group, listed across blocks
        rows = rows + [{("crowd", 0): 1.0, ("own", r): 0.5} for r in range(crowd)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space_module, "_SLOT_BUDGET", slot_budget)
            kernel = _SparseRows(*_flat(rows))
        n = len(rows)
        assert kernel._shared.tolist() == [
            [i == j or bool(rows[i].keys() & rows[j].keys()) for j in range(n)]
            for i in range(n)]

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
        # the walker's blocks, within each radius of a line metric
        monkeypatch.setattr(space_module, "_PAIR_CHUNK", size)
        if n:
            space = z_interval(0, n - 1)
        else:   # no builder makes an empty space; the walker reads only its length
            space = FiniteMetricSpace.__new__(FiniteMetricSpace)
            space._store((), np.zeros((0, 0)))
        for radius in (0.0, 1.5, 36.0, math.inf):
            blocks = list(_pair_blocks(space, radius))
            got = [(int(a), int(b)) for ca, cb in blocks for a, b in zip(ca, cb)]
            assert got == [(a, b) for a in range(n) for b in range(a + 1, n)
                           if b - a <= radius + 1e-12]
            assert all(len(a) == len(b) <= max(size, n) for a, b in blocks)

    @pytest.mark.parametrize("slot_budget", [3, 1 << 16])
    def test_chunk_paths(self, slot_budget, monkeypatch):
        # rows 2i and 2i + 1 share one entry; every other row pair shares none.
        # Chunks with no shared pair, half but one, exactly half and only
        # shared pairs: the closed form, and the lookups over it, on each.
        monkeypatch.setattr(space_module, "_SLOT_BUDGET", slot_budget)
        # coefficients whose CPython square c ** 2 is not c * c, so that either
        # square of the closed form moves a bit if taken the other way
        rng = np.random.default_rng(11)
        odd = iter([c for c in rng.uniform(-2.0, 2.0, 200000).tolist() if c ** 2 != c * c])
        rows = [{("own", i, 0): next(odd), ("own", i, 1): next(odd),
                 ("pair", i // 2): next(odd), ("own", i, 2): next(odd)} for i in range(24)]
        kernel = _SparseRows(*_flat(rows))
        size = max(1, slot_budget // kernel.width)
        pick = np.random.default_rng(5)
        shared = [(i, i ^ 1) for i in range(24)] + [(i, i) for i in range(24)]
        disjoint = [(i, j) for i in range(24) for j in range(24) if i // 2 != j // 2]
        pairs = []
        for count in (0, max(size // 2 - 1, 0), size // 2, size, (size + 1) // 2):
            chunk = [shared[k] for k in pick.integers(0, len(shared), count)]
            chunk += [disjoint[k] for k in pick.integers(0, len(disjoint), size - count)]
            pairs += [chunk[k] for k in pick.permutation(size)]
        a, b = (np.array(v) for v in zip(*pairs))
        assert kernel.sq_dist(a, b).tolist() == [sparse_diff_norm_sq(rows[i], rows[j])
                                                 for i, j in pairs]
        assert kernel.l1_dist(a, b).tolist() == [l1_distance(rows[i], rows[j])
                                                 for i, j in pairs]


class TestRealizedDistances:
    """The realized grid, and the sweep slot of each pair, are exact on every path."""

    @pytest.mark.parametrize("D", [
        pytest.param(np.zeros((1, 1)), id="one-point"),
        pytest.param(cycle(40).D, id="integral-with-ties"),
        pytest.param(65535.0 * z_interval(0, 1).D, id="integral-at-2^16-1"),
        pytest.param(65536.0 * z_interval(0, 1).D, id="integral-at-2^16"),
        pytest.param(1024.0 * z_interval(0, 70).D, id="integral-past-2^16"),
        pytest.param(0.7 * cycle(40).D + 0.25 * (1.0 - np.eye(40)), id="not-integral"),
        pytest.param(np.where(np.eye(9, dtype=bool), -0.0, cycle(9).D),
                     id="negative-zero-diagonal"),
    ])
    def test_grid_and_ranks(self, D):
        space = FiniteMetricSpace(range(len(D)), D)
        grid = space.realized_distances()
        want = sorted(set(float(v) for v in np.unique(D)))
        assert grid == want
        assert np.signbit(grid).tolist() == np.signbit(want).tolist()
        assert all(type(v) is float for v in grid)
        # each pair lands on its distance: fed the distances themselves, the
        # sweep reads v at a realized distance v, at the first pair there
        a, b = np.nonzero(np.triu(np.ones(D.shape, dtype=bool), 1))
        sweep = _DistanceMax(space)
        sweep.add(a, b, D[a, b])
        first = {}
        for p, q in zip(a.tolist(), b.tolist()):
            first.setdefault(float(D[p, q]), (p, q))
        assert sweep.profile(grid) == [(v, v, first.get(v)) for v in grid]
