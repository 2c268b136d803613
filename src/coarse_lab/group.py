"""Group models with word metrics, certified coarse quasi-actions,
quasi-stabilizers, and the orbit pipeline that turns a cover of the acted-on
space into a glued witness on the group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .construct import GlueInput, glue_with_report, subspace_construction
from .cover import Cover, enlarge, lebesgue_report, multiplicity
from .errors import (BoundViolationError, DisconnectedGraphError, PreconditionError,
                     ValidationError)
from .partition import (PartitionOfUnity, bell_partition, partition_variation_profile,
                        pullback_partition)
from .report import check_le
from .space import (_SLOT_BUDGET, FiniteMetricSpace, StepModulus, _bfs, _hop_space,
                    _index_array, _pair_sweep, check_coarse_map)
from .witness import Witness, dirac_witness, transport


class GroupModel:
    """A finite group, or the ball of radius N in a finitely generated group.

    ``mult`` is the (n, n) int32 product table over element indices in
    stored order: ``mult[i, j]`` is the index of elements[i] * elements[j],
    or -1 where a truncated ball does not store the product; a finite group
    stores every product. The identity's row and column are the identity
    permutation. Inverses are read off the table, so every stored element
    needs exactly one; ``inverse[i]`` is the index of elements[i]^-1.
    """

    def __init__(self, elements, generators, mult, identity,
                 truncation_radius=None):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValidationError("duplicate group elements")
        ix = {g: i for i, g in enumerate(elements)}
        if identity not in ix:
            raise ValidationError("identity is not a stored element")
        generators = tuple(generators)
        for s in generators:
            if s not in ix:
                raise ValidationError("generator %r is not stored" % (s,))
            if s == identity:
                raise ValidationError("the identity is not allowed as a generator")
        n = len(elements)
        mult = np.asarray(mult)
        if mult.shape != (n, n) or not np.issubdtype(mult.dtype, np.integer) \
                or ((mult < -1) | (mult >= n)).any():
            raise ValidationError("product table must be (%d, %d) with entries in -1..%d"
                                  % (n, n, n - 1))
        mult = mult.astype(np.int32)
        e = ix[identity]
        if (mult[e] != np.arange(n)).any() or (mult[:, e] != np.arange(n)).any():
            raise ValidationError("%r is not a two-sided identity of the table" % (identity,))
        if truncation_radius is None and (mult < 0).any():
            raise ValidationError("a finite group needs every product stored")
        is_identity = mult == e
        lonely = np.flatnonzero(is_identity.sum(axis=1) != 1)
        if lonely.size:
            raise ValidationError("element %r has no unique stored inverse"
                                  % (elements[int(lonely[0])],))
        inverse = is_identity.argmax(axis=1)
        for s in generators:
            if elements[inverse[ix[s]]] not in generators:
                raise ValidationError("generating set is not symmetric at %r" % (s,))
        mult.setflags(write=False)
        inverse.setflags(write=False)
        self.elements = elements
        self.generators = generators
        self.mult = mult
        self.identity = identity
        self.inverse = inverse
        self.truncation_radius = truncation_radius
        self._ix = ix

    def __len__(self):
        return len(self.elements)

    def index(self, g) -> int:
        try:
            return self._ix[g]
        except KeyError:
            raise ValidationError("%r is not a stored group element" % (g,)) from None


def cyclic_group(n) -> GroupModel:
    n = int(n)
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    a = np.arange(n)
    gens = tuple(sorted({1 % n, (n - 1) % n} - {0}))
    return GroupModel(range(n), gens, (a[:, None] + a) % n, 0)


def product_of_cyclic(factors) -> GroupModel:
    factors = tuple(int(m) for m in factors)
    if not factors or any(m < 1 for m in factors):
        raise ValidationError("factors must be positive")
    elements = tuple(itertools.product(*[range(m) for m in factors]))
    # coords[c, i] is coordinate c of element i, in itertools.product order
    coords = np.indices(factors).reshape(len(factors), -1)
    sums = (coords[:, :, None] + coords[:, None, :]) % np.array(factors)[:, None, None]
    mult = np.ravel_multi_index(tuple(sums), factors)
    identity = tuple(0 for _ in factors)
    gens = {tuple(v if j == i else 0 for j in range(len(factors)))
            for i, m in enumerate(factors) if m > 1 for v in (1, m - 1)}
    return GroupModel(elements, tuple(sorted(gens)), mult, identity)


def z_ball(radius) -> GroupModel:
    N = int(radius)
    if N < 1:
        raise ValidationError("truncation radius must be >= 1")
    # element a sits at index a + N, so a + b sits at i + j - N
    i = np.arange(2 * N + 1)
    s = i[:, None] + i - N
    mult = np.where((s >= 0) & (s <= 2 * N), s, -1)
    return GroupModel(range(-N, N + 1), (-1, 1), mult, 0, truncation_radius=N)


def _reduce_word(word: str) -> str:
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def free_group_ball(rank, radius) -> GroupModel:
    N = int(radius)
    rank = int(rank)
    if not (1 <= rank <= 6):
        raise ValidationError("free rank must be between 1 and 6")
    if N < 1:
        raise ValidationError("truncation radius must be >= 1")
    letters = "abcdef"[:rank]
    gens = tuple(letters) + tuple(c.upper() for c in letters)
    frontier = [""]
    elements = [""]
    for _ in range(N):
        nxt = []
        for w in frontier:
            for s in gens:
                r = _reduce_word(w + s)
                if len(r) == len(w) + 1:
                    nxt.append(r)
        frontier = nxt
        elements.extend(nxt)
    ix = {w: i for i, w in enumerate(elements)}
    # right[s][i] is the index of elements[i] * s; the trailing -1 makes an
    # index of -1 (a product already outside the ball) map to -1 again
    right = {s: np.array([ix.get(_reduce_word(w + s), -1) for w in elements] + [-1])
             for s in gens}
    # column w*s is column w followed by s: if u*w*s is stored, so is u*w
    mult = np.empty((len(elements), len(elements)), dtype=np.int32)
    mult[:, 0] = np.arange(len(elements))
    for j, w in enumerate(elements[1:], 1):
        mult[:, j] = right[w[-1]][mult[:, ix[w[:-1]]]]
    return GroupModel(elements, gens, mult, "", truncation_radius=N)


def word_metric_space(model: GroupModel) -> FiniteMetricSpace:
    """Metric of the Cayley graph on the stored elements.

    A finite group gets one BFS from the identity over the generator columns
    and the gather d(g, h) = |g^-1 h|. Light's test, (x s) y = x (s y) for
    every generator s, makes the table associative, since the generators
    generate it; a table that fails it is rejected. On a truncated ball, a
    BFS from every element walks the stored steps x -> x s, so paths stay
    inside the ball and the values are upper bounds for the true word metric.
    """
    gen_ix = [model.index(s) for s in model.generators]
    gen_cols = model.mult[:, gen_ix]
    if model.truncation_radius is not None:
        # each stored step x -> x s needs x s s^-1 = x stored, or a hop runs one way only
        back = model.mult[gen_cols, model.inverse[gen_ix]]
        if ((gen_cols >= 0) & (back != np.arange(len(model))[:, None])).any():
            raise ValidationError("a stored step x -> x*s has no stored way back")
        return _hop_space(model.elements, [row[row >= 0].tolist() for row in gen_cols])
    dist = _bfs(gen_cols.tolist(), model.index(model.identity))
    if -1 in dist:
        raise DisconnectedGraphError("word metric undefined: the generators do not reach %r"
                                     % (model.elements[dist.index(-1)],))
    mult = model.mult
    for s in model.generators:
        j = model.index(s)
        bad = mult[mult[:, j]] != mult.take(mult[j], axis=1)
        if bad.any():
            x, y = (model.elements[int(v)] for v in np.argwhere(bad)[0])
            raise ValidationError("product table is not associative: (x*s)*y != x*(s*y) "
                                  "at (x, s, y) = %r" % ((x, s, y),))
    d0 = np.array(dist, dtype=np.float64)
    return FiniteMetricSpace._of(model.elements, d0[mult[model.inverse]])


@dataclass(frozen=True)
class CoarseQuasiAction:
    """Per-element self-maps with exhaustively certified constants.

    ``img[i, a]`` is the index of f_g(x) for the i-th stored element g and the
    a-th stored point x (read-only). ell is exact on the space's realized
    distance grid; A and B are tight maxima with recorded attaining witnesses.
    """

    group: GroupModel
    space: FiniteMetricSpace
    img: np.ndarray
    ell: StepModulus
    A: float
    B: float
    A_witness: object
    B_witness: object
    checks: tuple
    word_space: FiniteMetricSpace = field(repr=False)


def certify_quasi_action(group: GroupModel, space: FiniteMetricSpace, img,
                         A_ceiling=None, B_ceiling=None) -> CoarseQuasiAction:
    """Compute tight ell/A/B for a total family of self-maps.

    ``img`` is the action's index array (CoarseQuasiAction.img). Finite data
    always certifies with some constants; optional ceilings turn a too-large
    A or B into a PreconditionError with its witness.
    """
    n = len(space)
    img = _index_array(img, (len(group), n), n, "action array")

    # cls[i] is the class of the i-th element's map among the distinct rows,
    # flattened since numpy versions differ in the shape of the inverse
    distinct, cls = np.unique(img, axis=0, return_inverse=True)
    cls = cls.reshape(-1)
    image_dist = np.zeros_like(space.D)
    for gi in distinct:
        np.maximum(image_dist, space.D[np.ix_(gi, gi)], out=image_dist)
    ell = StepModulus((r, v) for r, v, _ in _pair_sweep(
        space, space.realized_distances(), lambda a, b: image_dist[a, b]))

    a_vals = space.D[np.arange(n), img[group.index(group.identity)]]
    A = float(a_vals.max())
    A_witness = space.point_ids[int(a_vals.argmax())]

    # d(f_g f_h x, f_gh x) depends on the maps of g, h and gh only: each distinct
    # (class g, class h, class gh) code, K^3 for an unstored product, is evaluated
    # at its first row-major stored (g, h), so the first maximal (g, h, x) wins
    K = len(distinct)
    mult = group.mult
    code = np.where(mult >= 0, (cls[:, None] * K + cls[None, :]) * K + cls[mult], K**3)
    codes, first = np.unique(code.astype(np.min_scalar_type(K**3)), return_index=True)
    pos = np.sort(first[codes < K**3])
    B = 0.0
    B_witness = None
    step = max(1, _SLOT_BUDGET // n)
    for lo in range(0, len(pos), step):
        g, h = np.divmod(pos[lo:lo + step], len(group))
        vals = space.D[np.take_along_axis(img[g], img[h], axis=1), img[mult[g, h]]]
        flat = int(vals.argmax())
        if vals.flat[flat] > B:
            B = float(vals.flat[flat])
            t, x = divmod(flat, n)
            B_witness = (group.elements[g[t]], group.elements[h[t]], space.point_ids[x])

    comp = np.take_along_axis(img, img[group.inverse], axis=1)
    vals = space.D[comp, np.arange(n)]
    inv_worst = float(vals.max())
    inv_at = None
    if inv_worst > 0.0:
        i, x = divmod(int(vals.argmax()), n)
        inv_at = (group.elements[i], space.point_ids[x])
    checks = (check_le("quasi_action_inverse_defect", inv_worst, A + B,
                       tol=1e-12, witness=inv_at),)
    if not checks[0].passed:
        raise BoundViolationError("inverse defect exceeded A+B at %r" % (inv_at,))

    if A_ceiling is not None and A > float(A_ceiling) + 1e-12:
        raise PreconditionError("A=%g exceeds ceiling %g at %r" % (A, A_ceiling, A_witness))
    if B_ceiling is not None and B > float(B_ceiling) + 1e-12:
        raise PreconditionError("B=%g exceeds ceiling %g at %r" % (B, B_ceiling, B_witness))
    return CoarseQuasiAction(group, space, img, ell, A, B, A_witness, B_witness,
                             checks, word_metric_space(group))


@dataclass(frozen=True)
class QuasiStabilizer:
    threshold: float
    index: np.ndarray     # the members' element indices, ascending
    space: FiniteMetricSpace  # on the members, in that order


def _displacement(action: CoarseQuasiAction, x0):
    """d(f_g(x0), x0) for every stored element g, in stored order."""
    if x0 not in action.space:
        raise ValidationError("base point %r not in the space" % (x0,))
    a = action.space.index(x0)
    return action.space.D[action.img[:, a], a]


def quasi_stabilizer(action: CoarseQuasiAction, x0, T) -> QuasiStabilizer:
    disp = _displacement(action, x0)
    if T < 0:
        raise ValidationError("threshold must be >= 0")
    index = np.flatnonzero(disp <= float(T) + 1e-9)
    if not index.size:
        raise PreconditionError("quasi-stabilizer at T=%g is empty" % float(T))
    return QuasiStabilizer(float(T), index, action.word_space._sub(index))


def left_translation(group: GroupModel, g, members):
    """Element indices of g*h for the element indices h in ``members``, with g
    an element index; fails at the first h whose product leaves the model."""
    out = group.mult[g, members]
    bad = np.flatnonzero(out < 0)
    if bad.size:
        raise PreconditionError(
            "translate %r * %r leaves the stored elements (truncation)"
            % (group.elements[g], group.elements[members[bad[0]]]))
    return out


@dataclass(frozen=True)
class OrbitMapResult:
    cert: object          # CoarseMapCert word space -> space
    lam: float
    edge_bound: float
    checks: tuple
    disp: np.ndarray      # d(f_g(x0), x0) per stored element
    pts: np.ndarray       # point index of f_g(x0) per stored element


def orbit_map(action: CoarseQuasiAction, x0) -> OrbitMapResult:
    """pi(g) = f_g(x0), certified with the edge bound; its exact modulus is
    swept only if read.

    Adjacent group elements (g, gs) land within ell(lam) + B of each other;
    lam is the largest generator displacement of the base point.
    """
    G, X = action.group, action.space
    disp = _displacement(action, x0)
    pts = action.img[:, X.index(x0)]
    cert = check_coarse_map(action.word_space, X, pts)
    # edges (g, gs) in row-major order of the table's generator columns
    gen_cols = sorted({G.index(s) for s in G.generators})
    lam = float(disp[gen_cols].max()) if gen_cols else 0.0
    edge_bound = action.ell(lam) + action.B
    ends = G.mult[:, gen_cols]
    vals = np.where(ends >= 0, X.D[pts[:, None], pts[ends]], 0.0)
    worst = float(vals.max()) if vals.size else 0.0
    worst_at = None
    if worst > 0.0:
        i, c = divmod(int(vals.argmax()), len(gen_cols))
        worst_at = (G.elements[i], G.elements[gen_cols[c]])
    rec = check_le("orbit_edge_bound", worst, edge_bound, tol=1e-12, witness=worst_at)
    if not rec.passed:
        raise BoundViolationError("orbit edge bound failed at %r" % (worst_at,))
    return OrbitMapResult(cert, float(lam), float(edge_bound), (rec,), disp, pts)


@dataclass(frozen=True)
class GroupPipelineResult:
    witness: Witness
    partition: PartitionOfUnity
    group_cover: Cover
    kept_pieces: tuple
    reps: tuple           # g_i per kept piece
    T: float
    threshold: float
    stabilizer: QuasiStabilizer
    epsilon: float
    lam: float
    k: int
    L: float
    checks: tuple
    info: tuple
    truncation_flags: tuple
    subspace_results: tuple
    glue: object


def group_pipeline(action: CoarseQuasiAction, x0, cover: Cover, R,
                   epsilon=None, provider=dirac_witness,
                   tail_radii=None) -> GroupPipelineResult:
    """Orbit route: Bell on the cover, pull to the group, glue translated
    stabilizer witnesses over the enlarged-piece preimages.

    Preconditions raise (Lebesgue admissibility, enlarged multiplicity, the
    stabilizer containment needed to define the piece witnesses); the final
    epsilon-chain on the group partition is recorded and can falsify the run
    without raising.
    """
    G = action.group
    X = action.space
    if cover.space is not X:
        raise ValidationError("cover must live on the acted-on space")
    R = float(R)
    if R < 0:
        raise ValidationError("R must be >= 0")
    orbit = orbit_map(action, x0)

    k = multiplicity(cover) - 1
    L = lebesgue_report(cover)[0]
    if L <= 0:
        raise PreconditionError("Lebesgue number 0 < required positive")
    needed = 2.0 * action.ell(orbit.lam) * R * (2 * k + 2) * (2 * k + 3)
    if epsilon is None:
        epsilon = needed / L if L > 0 else math.inf
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be > 0")
    required_L = needed / epsilon
    if L + 1e-12 < required_L:
        raise PreconditionError(
            "Lebesgue number %g < required %g" % (L, required_L))
    admissible = check_le("lebesgue_admissible", required_L, L, tol=1e-12)

    enlarged = enlarge(cover, L)
    if multiplicity(enlarged) > k + 1:
        raise PreconditionError(
            "enlarged cover multiplicity %d exceeds k+1=%d"
            % (multiplicity(enlarged), k + 1))
    # Bell values are subordinate to the cover, hence to its enlargement
    bell = bell_partition(cover)
    psi, kept = pullback_partition(orbit.cert, PartitionOfUnity(X, enlarged, bell.phi))

    # per piece, the first element whose orbit point minimises the farthest distance
    far = [X.D[np.ix_(orbit.pts, enlarged.indices[i])].max(axis=1) for i in kept]
    rep_ix = [int(r.argmin()) for r in far]
    T = max(float(r.min()) for r in far)
    threshold = action.A + 2.0 * action.B + action.ell(T)
    stab = quasi_stabilizer(action, x0, threshold)

    flags = []
    if G.truncation_radius is not None:
        flags.append("group model truncated at radius %d; word distances are "
                     "upper bounds" % G.truncation_radius)

    # each preimage piece in stored order, so the first worst member wins
    incl_worst = (-math.inf, None)
    for pos, i in enumerate(kept):
        members = psi.cover.indices[pos]
        moved = left_translation(G, G.inverse[rep_ix[pos]], members)
        top = int(orbit.disp[moved].argmax())
        if orbit.disp[moved[top]] > incl_worst[0]:
            incl_worst = (float(orbit.disp[moved[top]]), (i, G.elements[members[top]]))
        out = np.flatnonzero(~np.isin(moved, stab.index))
        if out.size:
            raise PreconditionError(
                "piece %d: %r translates to %r outside the %g-quasi-stabilizer"
                % (i, G.elements[members[out[0]]], G.elements[moved[out[0]]], threshold))
    inclusion = check_le("stabilizer_inclusion", max(incl_worst[0], 0.0), threshold,
                         tol=1e-9, witness=incl_worst[1])

    base_witness = provider(stab.space)
    ids = base_witness.space.point_ids if isinstance(base_witness, Witness) else ()
    if len(ids) != len(stab.space) or not all(p in stab.space for p in ids):
        raise ValidationError("provider witness is not on the quasi-stabilizer")
    # position in stab.index of each point of the provider's space, in its order
    at = np.array(stab.space.indices(ids))

    sub_results = []
    for pos, i in enumerate(kept):
        moved = left_translation(G, rep_ix[pos], stab.index)
        support = np.sort(moved)
        translated = action.word_space._sub(support)
        # the preimage piece's positions in the translated stabilizer
        members = psi.cover.indices[pos]
        within = np.searchsorted(support, members)
        inside = support[np.minimum(within, len(support) - 1)] == members
        if not inside.all():
            raise ValidationError("unknown point id %r"
                                  % (G.elements[members[np.argmin(inside)]],))
        # a stabilizer member's image sits at its rank among the images
        res = subspace_construction(transport(base_witness, np.searchsorted(support, moved)[at],
                                              translated), within)
        sub_results.append(res)
    # pieces Dirac by content (one entry per row, at its own point, coefficient
    # 1.0, bare tag) glue as the Dirac family
    pieces = tuple(res.collapsed for res in sub_results)
    dirac = all(not w.tagged and (w.coef == 1.0).all() and
                np.array_equal(w.at, np.arange(len(w.space))) for w in pieces)
    glue_res = glue_with_report(GlueInput(psi, None if dirac else pieces), tail_radii=tail_radii)

    var, pair = partition_variation_profile(psi, [R])[0][1:]
    chain = check_le("group_epsilon_chain", var, epsilon, witness=pair)
    piece_var = max(res.variation.profile([R])[0][1] for res in sub_results)
    info = (check_le("info_piece_variation_le_eps_over_4", piece_var, epsilon / 4.0,
                     note="informational"),)

    checks = (admissible, inclusion, chain) + orbit.checks + glue_res.checks
    for res in sub_results:
        checks = checks + res.checks
    return GroupPipelineResult(
        glue_res.witness, psi, psi.cover, kept, tuple(G.elements[g] for g in rep_ix), float(T),
        float(threshold), stab, epsilon, orbit.lam, k, L, checks, info,
        tuple(flags), tuple(sub_results), glue_res)
