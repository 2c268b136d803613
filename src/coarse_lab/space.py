"""Finite metric spaces: validated axioms, balls, nets, coarse-map certificates.

Distances live in a dense float64 matrix. Graph-derived metrics are exact
integers stored as floats. Point ids are opaque hashables (ints, strings,
tuples); every operation that returns points follows the stored point order,
so results are deterministic. Objects are immutable after construction and
all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    MetricAxiomError,
    ValidationError,
)

_TRI_TOL = 1e-12
_EXHAUSTIVE_TRIANGLE_LIMIT = 300
_SAMPLED_TRIPLES = 200_000


def _validate_metric_axioms(ids, D):
    n = len(ids)
    if not np.all(np.isfinite(D)):
        raise MetricAxiomError("distances must be finite")
    diag = np.diagonal(D)
    bad = np.flatnonzero(diag != 0.0)
    if bad.size:
        i = int(bad[0])
        raise MetricAxiomError(
            "d(x,x) must be 0, got %r at point %r" % (diag[i], ids[i]), (ids[i],)
        )
    asym = np.argwhere(D != D.T)
    if asym.size:
        i, j = (int(v) for v in asym[0])
        raise MetricAxiomError(
            "asymmetry: d(%r,%r)=%r but d(%r,%r)=%r"
            % (ids[i], ids[j], D[i, j], ids[j], ids[i], D[j, i]),
            (ids[i], ids[j]),
        )
    off = D + np.eye(n)
    nonpos = np.argwhere(off <= 0.0)
    if nonpos.size:
        i, j = (int(v) for v in nonpos[0])
        raise MetricAxiomError(
            "distinct points need positive distance: d(%r,%r)=%r"
            % (ids[i], ids[j], D[i, j]),
            (ids[i], ids[j]),
        )
    # Integer distances below 2^31 compare exactly in the narrowest unsigned
    # type holding d(i,k) + d(k,j): for integer sums s < 2^52 the float test
    # d > s + 1e-12 holds exactly when d > s, so the verdicts do not change.
    M, tol = D, _TRI_TOL
    top = D.max()
    if top < 2**31:
        narrow = D.astype(np.min_scalar_type(2 * int(top)))
        if np.array_equal(narrow, D):
            M, tol = narrow, 0
    if n <= _EXHAUSTIVE_TRIANGLE_LIMIT:
        for k in range(n):
            viol = M > M[:, [k]] + M[[k], :] + tol
            if viol.any():
                i, j = (int(v) for v in np.argwhere(viol)[0])
                raise MetricAxiomError(
                    "triangle inequality fails: d(%r,%r)=%r > d(%r,%r)+d(%r,%r)=%r"
                    % (ids[i], ids[j], D[i, j], ids[i], ids[k], ids[k], ids[j],
                       D[i, k] + D[k, j]),
                    (ids[i], ids[k], ids[j]),
                )
    else:
        # too large for the cubic check; sample triples deterministically
        rng = np.random.default_rng(0)
        tri = rng.integers(0, n, size=(_SAMPLED_TRIPLES, 3))
        i, k, j = tri[:, 0], tri[:, 1], tri[:, 2]
        viol = np.flatnonzero(M[i, j] > M[i, k] + M[k, j] + tol)
        if viol.size:
            a, b, c = (int(v) for v in tri[viol[0]])
            raise MetricAxiomError(
                "triangle inequality fails on sampled triple (%r,%r,%r)"
                % (ids[a], ids[b], ids[c]),
                (ids[a], ids[b], ids[c]),
            )


class FiniteMetricSpace:
    """Finite point set with a validated metric."""

    def __init__(self, point_ids, dist_matrix, validate=True):
        ids = tuple(point_ids)
        if not ids:
            raise ValidationError("a metric space needs at least one point")
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate point ids")
        try:
            D = np.asarray(dist_matrix)
        except ValueError:  # ragged rows
            D = None
        if D is None or D.dtype.kind not in "iuf":
            raise ValidationError("a distance matrix must be a rectangular array of numbers")
        D = np.array(D, dtype=np.float64)
        if D.shape != (len(ids), len(ids)):
            raise ValidationError(
                "distance matrix shape %r does not match %d points" % (D.shape, len(ids))
            )
        if validate:
            _validate_metric_axioms(ids, D)
        D.setflags(write=False)
        self.point_ids = ids
        self.D = D
        self._ix = {p: i for i, p in enumerate(ids)}
        self._realized = None
        self._pairs = None

    def __len__(self):
        return len(self.point_ids)

    def __contains__(self, point):
        return point in self._ix

    def index(self, point):
        try:
            return self._ix[point]
        except KeyError:
            raise ValidationError("unknown point id %r" % (point,)) from None

    def indices(self, points):
        return [self.index(p) for p in points]

    def d(self, x, y) -> float:
        return float(self.D[self.index(x), self.index(y)])

    @property
    def diameter(self) -> float:
        return float(self.D.max())

    @property
    def uniform_discreteness(self) -> float:
        """Smallest distance between distinct points; +inf for one point."""
        if len(self) == 1:
            return math.inf
        n = len(self)
        return float((self.D + np.eye(n) * self.D.max() + np.eye(n)).min())

    def realized_distances(self):
        """Sorted list of all realized distance values, always including 0."""
        if self._realized is None:
            self._realized = sorted(set(float(v) for v in np.unique(self.D)))
        return list(self._realized)

    def bounded_geometry(self, radius) -> int:
        """N_R = max over x of |B(x, R)|."""
        return int((self.D <= float(radius)).sum(axis=1).max())

    def ball(self, center, radius) -> frozenset:
        """Closed ball: all y with d(center, y) <= radius."""
        if not radius >= 0:
            raise ValidationError("ball radius must be >= 0")
        row = self.D[self.index(center)]
        return frozenset(self.point_ids[i] for i in np.flatnonzero(row <= float(radius)))

    def _sorted_pairs(self, r):
        """(a, b, d) of the pairs a < b with d <= r + 1e-12 in stable distance
        order, ties row-major: a prefix of the pairs kept for the largest r yet.
        a and b are the narrowest unsigned index arrays, to keep the list small."""
        if self._pairs is None or r > self._pairs[0]:
            a, b = np.nonzero(np.triu(self.D <= r + 1e-12, 1))
            d = self.D[a, b]
            order = np.argsort(d, kind="stable")
            kind = np.min_scalar_type(len(self) - 1)
            self._pairs = (r, a.astype(kind)[order], b.astype(kind)[order], d[order])
        _, a, b, d = self._pairs
        k = int(np.searchsorted(d, r + 1e-12, side="right"))
        return a[:k], b[:k], d[:k]

    def sorted_ids(self, points):
        """The given points listed in stored order."""
        return sorted(points, key=self.index)

    def restrict(self, members) -> "FiniteMetricSpace":
        """Subspace with the restricted metric, in stored point order."""
        members = frozenset(members)
        keep = [p for p in self.point_ids if p in members]
        if len(keep) != len(members):
            raise ValidationError("restrict: some members are not points of the space")
        idx = self.indices(keep)
        sub = self.D[np.ix_(idx, idx)]
        return FiniteMetricSpace(keep, sub, validate=False)


class StepModulus:
    """Non-decreasing step function on a sampled radius grid.

    Between samples the value of the next sample applies (conservative);
    past the last sample, which the builders always place at the source
    diameter, the last value applies.
    """

    def __init__(self, samples):
        pts = sorted((float(r), float(v)) for r, v in samples)
        if not pts:
            raise ValidationError("a step modulus needs at least one sample")
        radii = [r for r, _ in pts]
        values = [v for _, v in pts]
        if len(set(radii)) != len(radii):
            raise ValidationError("duplicate radii in modulus samples")
        for a, b in zip(values, values[1:]):
            if b < a - 1e-12:
                raise ValidationError("modulus values must be non-decreasing")
        self.radii = tuple(radii)
        self.values = tuple(values)

    def __call__(self, r) -> float:
        i = bisect_left(self.radii, float(r) - 1e-12)
        if i >= len(self.radii):
            i = len(self.radii) - 1
        return self.values[i]

    def samples(self):
        return tuple(zip(self.radii, self.values))


@dataclass(frozen=True)
class CoarseMapCert:
    """A map between finite spaces together with its exact expansion modulus.

    ``img[a]`` is the target index of the a-th source point's image
    (read-only). For every pair with d(x, x') <= r the images satisfy
    d(f x, f x') <= modulus(r); each sampled value is attained by some pair
    (or repeats the previous sample), so the modulus is tight.
    """

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    img: np.ndarray
    modulus: StepModulus


def space_from_matrix(points, matrix) -> FiniteMetricSpace:
    return FiniteMetricSpace(points, matrix)


def _bfs(adj, source):
    """Hop counts from ``source`` over adjacency lists, -1 where unreached."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop also visits what it appends: FIFO order
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def space_from_graph(points, edges) -> FiniteMetricSpace:
    """Shortest-path metric of an undirected unit-length graph. Exact integers."""
    ids = list(points)
    ix = {p: i for i, p in enumerate(ids)}
    n = len(ids)
    adj = [[] for _ in range(n)]
    for e in edges:
        a, b = e
        if a not in ix or b not in ix:
            raise ValidationError("edge %r refers to unknown point ids" % (e,))
        ia, ib = ix[a], ix[b]
        if ia == ib:
            continue
        adj[ia].append(ib)
        adj[ib].append(ia)
    D = np.empty((n, n))
    for s in range(n):
        D[s] = _bfs(adj, s)
    if (D < 0).any():
        s, t = (int(v) for v in np.argwhere(D < 0)[0])
        raise DisconnectedGraphError(
            "graph metric undefined: no path between %r and %r" % (ids[s], ids[t])
        )
    return FiniteMetricSpace(ids, D, validate=False)


def z_interval(lo, hi) -> FiniteMetricSpace:
    """Integer interval [lo, hi] with |i - j|."""
    if hi < lo:
        raise ValidationError("empty interval")
    ids = list(range(int(lo), int(hi) + 1))
    vals = np.array(ids, dtype=float)
    D = np.abs(vals[:, None] - vals[None, :])
    return FiniteMetricSpace(ids, D, validate=False)


def cycle(n) -> FiniteMetricSpace:
    """Cycle graph metric on 0..n-1."""
    n = int(n)
    if n < 1:
        raise ValidationError("cycle needs at least one point")
    ids = list(range(n))
    vals = np.arange(n, dtype=float)
    diff = np.abs(vals[:, None] - vals[None, :])
    D = np.minimum(diff, n - diff)
    return FiniteMetricSpace(ids, D, validate=False)


def _coord_metric(coords, norm):
    arr = np.array(coords, dtype=float)
    diff = np.abs(arr[:, None, :] - arr[None, :, :])
    if norm == "l1":
        return diff.sum(axis=2)
    if norm == "linf":
        return diff.max(axis=2)
    raise ValidationError("unsupported norm %r (use 'l1' or 'linf')" % (norm,))


def grid(dims, norm="l1") -> FiniteMetricSpace:
    """Product grid with the chosen word-like norm; ids are coordinate tuples."""
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValidationError("grid dims must be positive")
    ids = [tuple(c) for c in itertools.product(*(range(d) for d in dims))]
    D = _coord_metric(ids, norm)
    return FiniteMetricSpace(ids, D, validate=False)


def z2_ball(radius, norm="l1") -> FiniteMetricSpace:
    """Ball of the given radius around the origin of Z^2; ids are (a, b)."""
    r = int(radius)
    if r < 0:
        raise ValidationError("radius must be >= 0")
    if norm == "l1":
        ids = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
               if abs(a) + abs(b) <= r]
    elif norm == "linf":
        ids = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]
    else:
        raise ValidationError("unsupported norm %r" % (norm,))
    D = _coord_metric(ids, norm)
    return FiniteMetricSpace(ids, D, validate=False)


def is_c_net(space: FiniteMetricSpace, members, c) -> bool:
    """True when every point of the space lies within c of the given set."""
    idx = space.indices(members)
    if not idx:
        raise ValidationError("a net must be nonempty")
    return bool(space.D[:, idx].min(axis=1).max() <= float(c))


_PAIR_CHUNK = 1 << 15        # pairs per block of a row-major pair enumeration
_SLOT_BUDGET = 1 << 16       # pair slots (pairs x row width) per kernel step


def _pair_chunks(n):
    """All pairs (a < b) of range(n) in row-major order, as (a, b) index arrays
    of at most max(_PAIR_CHUNK, n) pairs each."""
    step = max(1, _PAIR_CHUNK // max(n, 1))
    cols = np.arange(n)
    for a0 in range(0, n - 1, step):
        a, b = np.nonzero(cols[None, :] > np.arange(a0, min(a0 + step, n - 1))[:, None])
        yield a + a0, b


def _worst_pair(chunks):
    """(lhs, rhs, a, b) at the first pair with the largest lhs - rhs, or None.

    ``chunks`` yields (a, b, lhs, rhs) arrays in row-major pair order, as
    from ``_pair_chunks``; ties keep the earliest pair.
    """
    worst = None
    for a, b, lhs, rhs in chunks:
        excess = lhs - rhs
        k = int(np.argmax(excess))
        if worst is None or excess[k] > worst[0]:
            worst = (excess[k], float(lhs[k]), float(rhs[k]), int(a[k]), int(b[k]))
    return None if worst is None else worst[1:]


def _fold(terms, start):
    """start + terms[:, 0] + terms[:, 1] + ..., added left to right per row."""
    s = np.array(start, dtype=np.float64)
    for j in range(terms.shape[1]):
        s += terms[:, j]
    return s


class _SparseRows:
    """Sparse rows as padded (entry id, coefficient) arrays.

    Built from flat entry arrays: entry k is in row ``row[k]`` (ascending)
    with integer key ``key[k]`` and coefficient ``coef[k]``. Slots keep the
    entry order within each row, so the pair distances replay the scalar
    left-to-right sums bit for bit: one numpy add per slot across all pairs
    (``np.sum`` would reorder them), and squares by ``np.float_power``, which
    calls the same libm ``pow`` as CPython's ``**`` (``d * d`` and
    ``np.power`` differ from it in the last bit on some inputs). Lookups
    gather from a (row, entry id) slot table; pairs whose supports are
    disjoint need none once the row pairs sharing an entry are marked, which
    happens on the first call that queries at least as many pairs.
    """

    def __init__(self, n, row, key, coef):
        row = np.asarray(row, dtype=np.int64)
        uniq, keys = np.unique(np.asarray(key, dtype=np.int64), return_inverse=True)
        lens = np.bincount(row, minlength=n)
        slot = np.arange(len(keys)) - np.repeat(np.cumsum(lens) - lens, lens)
        self.width = int(lens.max(initial=0))
        self.ids = np.full((n, self.width), -1, dtype=np.int64)
        self.ids[row, slot] = keys
        # flat index -1 within a row reads the last column of the row before (or
        # of the last row): coefficient 0.0 for slot -1, slot -1 for padding id -1
        self._coef = np.zeros((n, self.width + 1))
        self._coef[row, slot] = coef
        self.coef = self._coef[:, :-1]
        self._slot = np.full((n, len(uniq) + 1), -1, dtype=np.min_scalar_type(-self.width - 1))
        self._slot[row, keys] = slot      # the slot of entry id k in row r, else -1
        # row pairs holding a common entry: counted now, marked on first use
        self._row, self._keys = row, keys
        per_entry = np.bincount(keys)
        self._n_shared = int((per_entry * (per_entry - 1) // 2).sum())
        self._shared = None
        # the scalar sums of a row against a row it shares no entry with
        zeros = np.zeros(n)
        self._own_sq = _fold(np.float_power(self.coef, 2.0), zeros)
        self._own_abs = _fold(np.abs(self.coef), zeros)
        self._own_sum = _fold(self.coef, zeros)

    def _shared_pairs(self):
        """(n, n) mask of the row pairs holding a common entry, diagonal set."""
        n = len(self.ids)
        order = np.lexsort((self._row, self._keys))
        k, r = self._keys[order], self._row[order]
        new = np.ones(len(k), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        first = np.flatnonzero(new)[np.cumsum(new) - 1]
        before = np.arange(len(k)) - first     # earlier rows holding the same entry
        offset = np.arange(self._n_shared) - np.repeat(np.cumsum(before) - before, before)
        earlier, later = r[np.repeat(first, before) + offset], np.repeat(r, before)
        mask = np.eye(n, dtype=bool)
        mask[earlier, later] = mask[later, earlier] = True
        return mask

    def _shares(self, a, b):
        """Whether rows a and b may hold a common entry: exact once the sharing
        pairs are marked, True for every pair before."""
        if self._shared is None:
            return np.ones(len(a), dtype=bool)
        return self._shared.take(a * len(self.ids) + b)

    def _match(self, a, b):
        """Row b's coefficient at each entry of row a (0.0 where absent), and
        for each slot of row b whether row a holds its entry."""
        keys = self._slot.shape[1]
        at_b = self._slot.take(b[:, None] * keys + self.ids.take(a, axis=0))
        in_a = self._slot.take(a[:, None] * keys + self.ids.take(b, axis=0)) >= 0
        return self._coef.take(b[:, None] * (self.width + 1) + at_b), in_a

    def _pairs(self, a, b, shared, disjoint):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        # marking the sharing pairs pays off once a call queries as many pairs
        if self._shared is None and self._n_shared <= len(a):
            self._shared = self._shared_pairs()
        out = np.empty(len(a))
        step = max(1, _SLOT_BUDGET // max(self.width, 1))
        for lo in range(0, len(a), step):
            ca, cb, part = a[lo:lo + step], b[lo:lo + step], out[lo:lo + step]
            sh = self._shares(ca, cb)
            dj = ~sh
            part[dj] = disjoint(ca[dj], cb[dj])
            part[sh] = shared(ca[sh], cb[sh])
        return out

    def sq_dist(self, a, b):
        """||u_a - u_b||^2 per pair, summed as sum over u_a's entries of
        (c - u_b.get(k, 0.0)) ** 2, then c * c over the entries only u_b has."""
        def shared(a, b):
            m, in_a = self._match(a, b)
            cb = self.coef.take(b, axis=0)
            s = _fold(np.float_power(self.coef.take(a, axis=0) - m, 2.0), np.zeros(len(a)))
            return _fold(np.where(in_a, 0.0, cb * cb), s)

        def disjoint(a, b):
            cb = self.coef.take(b, axis=0)
            return _fold(cb * cb, self._own_sq[a])

        return self._pairs(a, b, shared, disjoint)

    def l1_dist(self, a, b):
        """sum_k |u_a(k) - u_b(k)| per pair, summed as (over u_a's entries) +
        (over the entries only u_b has)."""
        def shared(a, b):
            m, in_a = self._match(a, b)
            zeros = np.zeros(len(a))
            return (_fold(np.abs(self.coef.take(a, axis=0) - m), zeros)
                    + _fold(np.where(in_a, 0.0, self.coef.take(b, axis=0)), zeros))

        def disjoint(a, b):
            return self._own_abs[a] + self._own_sum[b]

        return self._pairs(a, b, shared, disjoint)


def _pair_sweep(space: FiniteMetricSpace, radii, value):
    """For each radius r, ascending: (r, max of value over pairs with d <= r, pair).

    ``value(a, b)`` maps index arrays of pairs to the array of their values;
    a and b come in the narrowest unsigned type holding a point index, so
    arithmetic on them can wrap: convert before computing anything but indices.
    Only pairs (a < b) with d <= max radius + 1e-12 are evaluated, in stable
    distance order (equal distances keep row-major (a, b) order). The running
    max starts at 0.0 and skips NaN; ``pair`` is the first point-id pair that
    attains it, or None when no pair value exceeds 0.0.
    """
    radii = [float(r) for r in radii]
    if not all(r >= 0.0 for r in radii):
        raise ValidationError("radii must be >= 0 and not NaN")
    if not radii:
        return []
    radii.sort()
    a, b, dists = space._sorted_pairs(radii[-1])
    vals = np.asarray(value(a, b), dtype=np.float64)
    # prefix[k] is the max over the first k pairs; best_at[k] the first of
    # those k pairs that attains it, or -1
    prefix = np.fmax.accumulate(np.concatenate(([0.0], vals)))
    rises = np.flatnonzero(vals > prefix[:-1])
    best_at = np.full(len(vals) + 1, -1)
    best_at[rises + 1] = rises
    best_at = np.maximum.accumulate(best_at)
    ids = space.point_ids
    out = []
    for r in radii:
        k = int(np.searchsorted(dists, r + 1e-12, side="right"))
        at = int(best_at[k])
        out.append((r, float(prefix[k]), (ids[a[at]], ids[b[at]]) if at >= 0 else None))
    return out


def _index_array(values, shape, n, what):
    """``values`` as a read-only int64 array of ``shape`` with entries in 0..n-1."""
    img = np.asarray(values)
    if img.shape != shape or not np.issubdtype(img.dtype, np.integer) \
            or ((img < 0) | (img >= n)).any():
        raise ValidationError("%s must be %s with point indices in 0..%d" % (what, shape, n - 1))
    img = img.astype(np.int64)
    img.setflags(write=False)
    return img


def check_coarse_map(source: FiniteMetricSpace, target: FiniteMetricSpace, img) -> CoarseMapCert:
    """Certify a map, given as the target index of each source point's image,
    with its exact expansion modulus at every realized source distance.
    Properness is automatic on finite spaces.
    """
    img = _index_array(img, (len(source),), len(target), "map array")
    modulus = StepModulus((r, v) for r, v, _ in _pair_sweep(
        source, source.realized_distances(), lambda a, b: target.D[img[a], img[b]]))
    return CoarseMapCert(source, target, img, modulus)
