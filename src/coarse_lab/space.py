"""Finite metric spaces: validated axioms, subspaces by index, coarse-map certificates.

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
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraphError, MetricAxiomError, ValidationError
from .report import check_le

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
        raise MetricAxiomError("d(x,x) must be 0, got %r at point %r" % (diag[i], ids[i]),
                               (ids[i],))
    if (D != D.T).any():
        i, j = (int(v) for v in np.argwhere(D != D.T)[0])
        raise MetricAxiomError("asymmetry: d(%r,%r)=%r but d(%r,%r)=%r"
                               % (ids[i], ids[j], D[i, j], ids[j], ids[i], D[j, i]),
                               (ids[i], ids[j]))
    # the zero diagonal accounts for exactly n of the entries <= 0
    if np.count_nonzero(D <= 0.0) > n:
        nonpos = D <= 0.0
        np.fill_diagonal(nonpos, False)
        i, j = (int(v) for v in np.argwhere(nonpos)[0])
        raise MetricAxiomError("distinct points need positive distance: d(%r,%r)=%r"
                               % (ids[i], ids[j], D[i, j]), (ids[i], ids[j]))
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
        via = np.empty_like(M)
        viol = np.empty(M.shape, dtype=bool)
        for k in range(n):
            np.add(M[:, k:k + 1], M[k:k + 1, :], out=via)
            if tol:
                via += tol
            np.greater(M, via, out=viol)
            if viol.any():
                i, j = (int(v) for v in np.argwhere(viol)[0])
                raise MetricAxiomError(
                    "triangle inequality fails: d(%r,%r)=%r > d(%r,%r)+d(%r,%r)=%r"
                    % (ids[i], ids[j], D[i, j], ids[i], ids[k], ids[k], ids[j],
                       D[i, k] + D[k, j]), (ids[i], ids[k], ids[j]))
    else:
        # too large for the cubic check; sample triples deterministically
        rng = np.random.default_rng(0)
        tri = rng.integers(0, n, size=(_SAMPLED_TRIPLES, 3))
        i, k, j = tri[:, 0], tri[:, 1], tri[:, 2]
        viol = np.flatnonzero(M[i, j] > M[i, k] + M[k, j] + tol)
        if viol.size:
            a, b, c = (int(v) for v in tri[viol[0]])
            raise MetricAxiomError("triangle inequality fails on sampled triple (%r,%r,%r)"
                                   % (ids[a], ids[b], ids[c]), (ids[a], ids[b], ids[c]))


def _narrow(values):
    """A uint16 copy of the nonnegative float ``values`` when every one of them
    is an integer below 2^16, else None."""
    if values.max(initial=0.0) < 2**16:
        narrow = values.astype(np.uint16)
        if np.array_equal(narrow, values):
            return narrow
    return None


class FiniteMetricSpace:
    """Finite point set with a validated metric: the constructor copies and checks it."""

    def __init__(self, point_ids, dist_matrix):
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
            raise ValidationError("distance matrix shape %r does not match %d points"
                                  % (D.shape, len(ids)))
        _validate_metric_axioms(ids, D)
        self._store(ids, D)

    @classmethod
    def _of(cls, ids, D):
        """A space that takes over the fresh float64 matrix ``D`` of a builder:
        frozen in place, neither copied nor validated."""
        ids = tuple(ids)
        if not ids:
            raise ValidationError("a metric space needs at least one point")
        space = cls.__new__(cls)
        space._store(ids, D)
        return space

    def _store(self, ids, D):
        D.setflags(write=False)
        self.point_ids = ids
        self.D = D
        self._ix = {p: i for i, p in enumerate(ids)}

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
        ix = self._ix
        try:
            return [ix[p] for p in points]
        except KeyError as e:
            raise ValidationError("unknown point id %r" % (e.args[0],)) from None

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

    @cached_property
    def _realized(self):
        narrow = _narrow(self.D)
        # only the diagonal holds zeros, and np.unique lists a -0.0 there as -0.0
        if narrow is None or np.signbit(np.diagonal(self.D)).any():
            return np.unique(self.D)
        # integral distances below 2^16: the values present
        return np.flatnonzero(np.bincount(narrow.ravel())).astype(np.float64)

    def realized_distances(self):
        """Sorted list of all realized distance values, always including 0."""
        return self._realized.tolist()

    def bounded_geometry(self, radius) -> int:
        """N_R = max over x of |B(x, R)|."""
        return int((self.D <= float(radius)).sum(axis=1).max())

    def restrict(self, members) -> "FiniteMetricSpace":
        """Subspace with the restricted metric, in stored point order."""
        return self._sub(np.unique(self.indices(members)))

    def _sub(self, idx) -> "FiniteMetricSpace":
        """Subspace on the ascending point indices ``idx``, in stored point order."""
        ids = self.point_ids
        return FiniteMetricSpace._of([ids[i] for i in idx], self.D[np.ix_(idx, idx)])


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
    (or repeats the previous sample), so the modulus is tight. It is swept
    over the source pairs on first read and kept.
    """

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    img: np.ndarray

    @cached_property
    def modulus(self) -> StepModulus:
        return StepModulus((r, v) for r, v, _ in _pair_sweep(
            self.source, self.source.realized_distances(),
            lambda a, b: self.target.D[self.img[a], self.img[b]]))


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
    if len(ix) != len(ids):
        raise ValidationError("duplicate point ids")
    adj = [[] for _ in ids]
    for e in edges:
        a, b = e
        if a not in ix or b not in ix:
            raise ValidationError("edge %r refers to unknown point ids" % (e,))
        ia, ib = ix[a], ix[b]
        if ia == ib:
            continue
        adj[ia].append(ib)
        adj[ib].append(ia)
    return _hop_space(ids, adj)


def _hop_space(ids, adj) -> FiniteMetricSpace:
    """Hop counts over adjacency lists of point indices as the metric on ``ids``."""
    D = _hop_counts(adj)
    if D.min(initial=0.0) < 0:  # no n^2 mask next to D and the copy the space makes
        s, t = (int(v) for v in np.argwhere(D < 0)[0])
        raise DisconnectedGraphError("graph metric undefined: no path between %r and %r"
                                     % (ids[s], ids[t]))
    return FiniteMetricSpace._of(ids, D)


def _hop_counts(adj):
    """Row v is ``_bfs(adj, v)``: hop counts from v, -1 where v reaches no path.

    One BFS runs from every vertex at once, on bitsets: bit t of ``seen[v]`` is
    set once v reaches t. At each level v first reaches what a neighbour has
    reached and v has not. The neighbour rows are gathered, and the fresh bits
    unpacked into D, _SLOT_BUDGET words at a time: beyond D and the edge arrays,
    the memory is O(n^2 / 64) words whatever the degrees and the diameter.
    """
    n = len(adj)
    # edge (v, u) as the key v * n + u in the narrowest type that holds it
    lens = np.fromiter(map(len, adj), dtype=np.intp, count=n)
    kind = np.min_scalar_type(n * n)
    keys = np.fromiter(itertools.chain.from_iterable(adj), dtype=kind, count=int(lens.sum()))
    keys += np.repeat(np.arange(n, dtype=kind) * n, lens)
    # repeated edges dropped, rows ascending; there are no keys when n = 0
    row, nbr = np.divmod(np.unique(keys), max(n, 1))
    w = -(-n // 64)
    step = max(1, _SLOT_BUDGET // max(w, 1))
    blocks = []
    for lo in range(0, len(row), step):
        r = row[lo:lo + step]
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        blocks.append((nbr[lo:lo + step], starts, r[starts]))
    seen = np.zeros((n, w), dtype="<u8")
    own = np.arange(n, dtype="<u8")
    seen[own, own // 64] = np.uint64(1) << own % 64
    fresh = np.empty_like(seen)
    D = np.full((n, n), -1.0)
    np.fill_diagonal(D, 0.0)
    for level in itertools.count(1):
        fresh.fill(0)
        for cols, starts, rows in blocks:
            fresh[rows] |= np.bitwise_or.reduceat(seen[cols], starts, axis=0)
        fresh &= ~seen
        if not fresh.any():
            break
        seen |= fresh
        for lo in range(0, n, step):
            bits = np.unpackbits(fresh[lo:lo + step].view(np.uint8), axis=1, count=n,
                                 bitorder="little")
            np.copyto(D[lo:lo + step], level, where=bits.view(bool))
    return D


def z_interval(lo, hi) -> FiniteMetricSpace:
    """Integer interval [lo, hi] with |i - j|."""
    if hi < lo:
        raise ValidationError("empty interval")
    ids = list(range(int(lo), int(hi) + 1))
    vals = np.array(ids, dtype=float)
    D = np.abs(vals[:, None] - vals[None, :])
    return FiniteMetricSpace._of(ids, D)


def cycle(n) -> FiniteMetricSpace:
    """Cycle graph metric on 0..n-1."""
    n = int(n)
    if n < 1:
        raise ValidationError("cycle needs at least one point")
    ids = list(range(n))
    vals = np.arange(n, dtype=float)
    diff = np.abs(vals[:, None] - vals[None, :])
    D = np.minimum(diff, n - diff)
    return FiniteMetricSpace._of(ids, D)


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
    return FiniteMetricSpace._of(ids, D)


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
    return FiniteMetricSpace._of(ids, D)


_PAIR_CHUNK = 1 << 15        # pairs per block of a row-major pair enumeration
_SLOT_BUDGET = 1 << 16       # slots (pairs, edges or rows x row width) per kernel step


def _row_pairs(lo, hi, n, near=True):
    """The pairs (a, b) with lo <= a < hi, a < b < n and ``near[a - lo, b]``
    (an (hi - lo, n) mask, or True for every pair) as row-major index arrays."""
    at = np.flatnonzero((np.arange(n) > np.arange(lo, hi)[:, None]) & near) + lo * n
    a = at // n
    return a, at - a * n


def _pair_blocks(space: FiniteMetricSpace, radius=math.inf):
    """The pairs (a < b) with d(a, b) <= radius + 1e-12, row-major, as (a, b)
    index arrays of at most max(_PAIR_CHUNK, n) pairs, one block of rows at a
    time; with no radius nothing is tested and a block holds all its pairs."""
    n = len(space)
    step = max(1, _PAIR_CHUNK // max(n, 1))
    if radius < math.inf:
        # a row holds fewer pairs than the largest ball within the radius has
        # points, and a block's mask takes no more bytes than its index arrays
        cap = max(1, 8 * _PAIR_CHUNK // max(n, 1))
        ball = max(((space.D[lo:lo + cap] <= radius + 1e-12).sum(axis=1, dtype=np.int32).max()
                    for lo in range(0, n, cap)), default=0)
        step = max(1, min(_PAIR_CHUNK // max(ball - 1, 1), cap))
    for lo in range(0, n - 1, step):
        near = True if radius == math.inf else space.D[lo:lo + step] <= radius + 1e-12
        yield _row_pairs(lo, min(lo + step, n), n, near)


def _worst_pair(name, space: FiniteMetricSpace, sides, tol):
    """The record of lhs <= rhs at the first row-major pair with the largest
    lhs - rhs, ``sides(a, b)`` giving both sides on a block of ``_pair_blocks``
    (every pair of its rows); None when the space has no pairs."""
    worst = None
    for a, b in _pair_blocks(space):
        lhs, rhs = sides(a, b)
        excess = lhs - rhs
        k = int(np.argmax(excess))
        if worst is None or excess[k] > worst[0]:
            worst = (excess[k], lhs[k], rhs[k], space.point_ids[a[k]], space.point_ids[b[k]])
    return None if worst is None else check_le(name, *worst[1:3], tol=tol, witness=worst[3:])


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
    disjoint need none, as the constructor marks the row pairs sharing an
    entry.
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
        self._shared = self._shared_pairs(row, keys)
        # the scalar sums of a row against a row it shares no entry with, and
        # the c * c terms a row adds as the second of such a pair
        self._sq = self.coef * self.coef
        zeros = np.zeros(n)
        self._own_sq = _fold(np.float_power(self.coef, 2.0), zeros)
        self._own_abs = _fold(np.abs(self.coef), zeros)
        self._own_sum = _fold(self.coef, zeros)

    def _shared_pairs(self, row, keys):
        """(n, n) mask of the row pairs holding a common entry, diagonal set.

        Sorted by entry, the rows holding an entry are a run of the sorted
        rows. Entries held by the same number c of rows mark their c x c row
        blocks together, _SLOT_BUDGET cells at a time; an entry held by more
        rows than that marks its rows against each other in blocks of rows.
        """
        n = len(self.ids)
        order = np.argsort(keys, kind="stable")
        k, r = keys[order], row[order]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        held = np.diff(np.r_[starts, len(k)])
        mask = np.eye(n, dtype=bool)
        for c in np.unique(held[held > 1]).tolist():
            R = r[starts[held == c][:, None] + np.arange(c)]
            step = _SLOT_BUDGET // (c * c)
            if step:
                for lo in range(0, len(R), step):
                    block = R[lo:lo + step]
                    mask[block[:, :, None], block[:, None, :]] = True
            else:
                step = max(1, _SLOT_BUDGET // c)
                for rows in R:
                    for lo in range(0, c, step):
                        mask[rows[lo:lo + step, None], rows[None, :]] = True
        return mask

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
        out = np.empty(len(a))
        step = max(1, _SLOT_BUDGET // max(self.width, 1))
        for lo in range(0, len(a), step):
            ca, cb, part = a[lo:lo + step], b[lo:lo + step], out[lo:lo + step]
            # the closed form on every pair, then the lookups on the shared ones
            sh = np.flatnonzero(self._shared.take(ca * len(self.ids) + cb))
            part[:] = disjoint(ca, cb)
            part[sh] = shared(ca[sh], cb[sh])
        return out

    def sq_dist(self, a, b):
        """||u_a - u_b||^2 per pair, summed as sum over u_a's entries of
        (c - u_b.get(k, 0.0)) ** 2, then c * c over the entries only u_b has."""
        def shared(a, b):
            m, in_a = self._match(a, b)
            s = _fold(np.float_power(self.coef.take(a, axis=0) - m, 2.0), np.zeros(len(a)))
            return _fold(np.where(in_a, 0.0, self._sq.take(b, axis=0)), s)

        def disjoint(a, b):
            return _fold(self._sq.take(b, axis=0), self._own_sq[a])

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


class _DistanceMax:
    """Per distance, the largest pair value and the first pair attaining it.

    Its grid is the space's realized distances up to ``radius`` + 1e-12, the
    pairs ``_pair_blocks(space, radius)`` lists; ``add`` takes those pairs
    (a < b) in row-major order, a block at a time. The maximum starts at 0.0
    and skips NaN. Where it beats every smaller distance's, ``first`` holds
    the linear index a * n + b of the first pair attaining it: an equal value
    in a later block does not replace it. Integral distances below 2^16 index
    the tables directly, others by rank.
    """

    def __init__(self, space: FiniteMetricSpace, radius=math.inf):
        self.space = space
        grid = space._realized[space._realized <= radius + 1e-12]
        key = _narrow(grid)
        self.integral = key is not None
        self.grid = np.arange(key.max(initial=0) + 1.0) if self.integral else grid
        self.best = np.zeros(len(self.grid))
        self.first = np.full(len(self.grid), -1)

    def add(self, a, b, values):
        at = a * len(self.space) + b
        d = self.space.D.take(at)
        slot = d.astype(np.intp) if self.integral else np.searchsorted(self.grid, d)
        values = np.fmax(values, 0.0)      # NaN skipped, as the maximum starts at 0.0
        was = self.best.copy()
        np.maximum.at(self.best, slot, values)
        # a distance whose maximum does not beat the smaller ones' now never
        # will without rising again, and the profile reads no pair there
        lead = self.best > was
        lead[1:] &= self.best[1:] > np.maximum.accumulate(self.best)[:-1]
        if lead.any():
            hit = np.flatnonzero(lead[slot] & (values == self.best[slot]))
            slots, k = np.unique(slot[hit], return_index=True)
            self.first[slots] = at[hit[k]]

    def profile(self, radii):
        """For each radius r, ascending: (r, max over the pairs with d <= r + 1e-12,
        the first pair of the first distance that holds it, or None for 0.0)."""
        radii = sorted(float(r) for r in radii)
        if not all(r >= 0.0 for r in radii):
            raise ValidationError("radii must be >= 0 and not NaN")
        top = np.maximum.accumulate(self.best)
        # lead[k]: the first distance up to k whose maximum is top[k]
        lead = np.maximum.accumulate(np.where(top > np.r_[0.0, top[:-1]],
                                              np.arange(len(top)), 0))
        k = np.searchsorted(self.grid, np.add(radii, 1e-12), side="right") - 1
        n, ids = len(self.space), self.space.point_ids
        return [(r, v, (ids[at // n], ids[at % n]) if at >= 0 else None)
                for r, v, at in zip(radii, top[k].tolist(), self.first[lead[k]].tolist())]


def _pair_sweep(space: FiniteMetricSpace, radii, value):
    """For each radius r, ascending: (r, max of value over pairs with d <= r, pair).

    ``value(a, b)`` maps int64 index arrays of pairs to the array of their
    values. Only the pairs within the largest radius are evaluated, one block
    of ``_pair_blocks`` at a time, into one ``_DistanceMax``; its profile
    rejects a negative or NaN radius.
    """
    radii = [float(r) for r in radii]
    sweep = _DistanceMax(space, max(radii, default=0.0))
    for a, b in _pair_blocks(space, max(radii, default=0.0)):
        sweep.add(a, b, value(a, b))
    return sweep.profile(radii)


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
    """Certify a map, given as the target index of each source point's image.
    Properness is automatic on finite spaces; the modulus is computed on read.
    """
    return CoarseMapCert(source, target, _index_array(img, (len(source),), len(target),
                                                      "map array"))
