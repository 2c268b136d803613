"""Dense reference implementations used to cross-check the sparse code paths.

Everything here is deliberately naive: full double loops over points and
index entries, no sorting, no prefix maxima, no suffix sums. Tolerances
mirror the library (pairs count when d <= R + 1e-12, tail entries when
d > S + 1e-12) so the two routes must agree to float accumulation error.
The pair sums ``sparse_diff_norm_sq`` and ``l1_distance`` fix the summation
order of the library's pair kernel, and the double loops built on them must
match the library bit for bit.
"""

import math

from coarse_lab import ValidationError, dirac_witness, uniform_ball_witness


def sorted_ids(space, points):
    """The given points listed in stored order."""
    return sorted(points, key=space.index)


def ball(space, center, radius) -> frozenset:
    """Closed ball: all y with d(center, y) <= radius."""
    if not radius >= 0:
        raise ValidationError("ball radius must be >= 0")
    return frozenset(y for y in space.point_ids if space.d(center, y) <= float(radius))


def is_c_net(space, members, c) -> bool:
    """True when every point of the space lies within c of the given set."""
    if not members:
        raise ValidationError("a net must be nonempty")
    return all(min(space.d(x, y) for y in members) <= float(c) for x in space.point_ids)


def masses(partition):
    """Per stored point, the dict piece index -> positive value, pieces ascending."""
    return {x: {i: v for i in range(len(partition.cover.pieces))
                if (v := partition.value(i, x)) > 0.0}
            for x in partition.space.point_ids}


def dirac_piece_family(cover):
    """The explicit Dirac witness on every piece of the cover: the reference for
    the glue's Dirac family (``GlueInput.pieces`` None)."""
    return tuple(dirac_witness(cover.space._sub(idx)) for idx in cover.indices)


def uniform_ball_piece_family(cover, radius):
    """A uniform-ball witness of the given radius on every piece of the cover."""
    return tuple(uniform_ball_witness(cover.space.restrict(piece), radius)
                 for piece in cover.pieces)


def dense_vector_distance(u, v) -> float:
    keys = set(u) | set(v)
    return math.sqrt(sum((u.get(k, 0.0) - v.get(k, 0.0)) ** 2 for k in keys))


def sparse_diff_norm_sq(u, v) -> float:
    """||u - v||^2 summed in the order the library reproduces bit for bit:
    u's entries in insertion order, then the entries only v has."""
    s = 0.0
    for k, c in u.items():
        s += (c - v.get(k, 0.0)) ** 2
    for k, c in v.items():
        if k not in u:
            s += c * c
    return s


def l1_distance(mx, my) -> float:
    """sum_i |mx(i) - my(i)|, summed as (over mx's entries) + (over the
    entries only my has), the grouping the library reproduces bit for bit."""
    s = 0.0
    for i, v in mx.items():
        s += abs(v - my.get(i, 0.0))
    only_y = 0.0
    for i, v in my.items():
        if i not in mx:
            only_y += v
    return s + only_y


def dense_glue_bound(glue_input, glued):
    """(lhs, rhs, pair) of the glue combination bound at the first pair, in
    row-major order, with the largest lhs - rhs; None on a one-point space.

    lhs = ||xi_x - xi_y||^2 for the glued witness, rhs = 2 sum_i |phi_i(x) -
    phi_i(y)| + 2 max ||beta^i_x - beta^i_y||^2 over the pieces holding both.
    """
    partition = glue_input.partition
    masses_at = masses(partition)
    ids = partition.space.point_ids
    worst = None
    for a in range(len(ids)):
        x = ids[a]
        for b in range(a + 1, len(ids)):
            y = ids[b]
            lhs = sparse_diff_norm_sq(glued.vectors[x], glued.vectors[y])
            s = l1_distance(masses_at[x], masses_at[y])
            common = 0.0
            for i, piece in enumerate(partition.cover.pieces):
                if x in piece and y in piece:
                    common = max(common, sparse_diff_norm_sq(
                        glue_input.pieces[i].vectors[x], glue_input.pieces[i].vectors[y]))
            rhs = 2.0 * s + 2.0 * common
            if worst is None or lhs - rhs > worst[0]:
                worst = (lhs - rhs, lhs, rhs, (x, y))
    return None if worst is None else worst[1:]


def dense_bell_lipschitz(partition, C):
    """(sum_i |phi_i(x) - phi_i(y)|, C d(x, y), pair) at the first pair, in
    row-major order, with the largest excess; None on a one-point space."""
    masses_at = masses(partition)
    ids = partition.space.point_ids
    worst = None
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            s = l1_distance(masses_at[ids[a]], masses_at[ids[b]])
            bound = C * partition.space.d(ids[a], ids[b])
            if worst is None or s - bound > worst[0]:
                worst = (s - bound, s, bound, (ids[a], ids[b]))
    return None if worst is None else worst[1:]


def dense_subspace_records(witness, tagged, collapsed):
    """(unit-norm defect of xi, max |d_xi - d_beta|, max d_eta - d_xi) over
    the subspace's points and pairs, each starting from 0.0."""
    members = tagged.space.point_ids
    norm_dev = match_dev = contraction = 0.0
    for a in range(len(members)):
        y = members[a]
        norm_dev = max(norm_dev, abs(math.sqrt(
            sum(c * c for c in tagged.vectors[y].values())) - 1.0))
        for b in range(a + 1, len(members)):
            yp = members[b]
            dxi = math.sqrt(sparse_diff_norm_sq(tagged.vectors[y], tagged.vectors[yp]))
            dbeta = math.sqrt(sparse_diff_norm_sq(witness.vectors[y], witness.vectors[yp]))
            deta = math.sqrt(sparse_diff_norm_sq(collapsed.vectors[y], collapsed.vectors[yp]))
            match_dev = max(match_dev, abs(dxi - dbeta))
            contraction = max(contraction, deta - dxi)
    return norm_dev, match_dev, contraction


def dense_variation(witness, R) -> float:
    space = witness.space
    worst = 0.0
    for x in space.point_ids:
        for y in space.point_ids:
            if space.d(x, y) <= R + 1e-12:
                worst = max(worst, dense_vector_distance(
                    witness.vectors[x], witness.vectors[y]))
    return worst


def dense_pair_sweep(space, radii, V):
    """For each radius r, ascending: (r, the max of V[a][b] over the pairs a < b
    with d <= r + 1e-12, from 0.0 and skipping NaN, and the attaining pair that
    comes first by (distance, a, b), or None when the max is 0.0)."""
    out = []
    n = len(space)
    for r in sorted(radii):
        inside = [(space.D[a, b], a, b) for a in range(n) for b in range(a + 1, n)
                  if space.D[a, b] <= r + 1e-12]
        best = max([0.0] + [V[a][b] for _, a, b in inside if not math.isnan(V[a][b])])
        pair = None
        if best > 0.0:
            _, a, b = min(t for t in inside if V[t[1]][t[2]] == best)
            pair = (space.point_ids[a], space.point_ids[b])
        out.append((float(r), best, pair))
    return out


def dense_tail(witness, S) -> float:
    worst = 0.0
    for x in witness.space.point_ids:
        out = 0.0
        for (_, p), c in witness.vectors[x].items():
            if witness.space.d(x, p) > S + 1e-12:
                out += c * c
        worst = max(worst, out)
    return worst


def nearest_point(space, x, members):
    """Closest member to x; ties break to the earliest stored point."""
    members = sorted_ids(space, members)
    if not members:
        raise ValidationError("nearest_point needs a nonempty point set")
    row = space.D[space.index(x)]
    best = members[0]
    best_d = row[space.index(best)]
    for p in members[1:]:
        dp = row[space.index(p)]
        if dp < best_d:
            best, best_d = p, dp
    return best


def dense_piece_distances(cover):
    """Per piece, per stored point: the distance to the nearest point of the piece."""
    space = cover.space
    return [[min(space.d(x, y) for y in piece) for x in space.point_ids]
            for piece in cover.pieces]


def dense_complement_distances(cover):
    """Per piece, per stored point: the distance to the nearest point outside
    the piece, +inf when the piece is the whole space."""
    space = cover.space
    return [[min((space.d(x, y) for y in space.point_ids if y not in piece),
                 default=math.inf)
             for x in space.point_ids]
            for piece in cover.pieces]


def every_ball_fits(cover, r) -> bool:
    """Every closed r-ball lies inside some piece."""
    return all(any(ball(cover.space, x, r) <= piece for piece in cover.pieces)
               for x in cover.space.point_ids)


def dense_lebesgue(cover):
    """(largest realized r whose closed r-balls all fit in pieces, smallest
    realized r with a ball that fits in no piece, or None), ball by ball."""
    space = cover.space
    realized = sorted({space.d(x, y) for x in space.point_ids for y in space.point_ids})
    fits = [every_ball_fits(cover, r) for r in realized]
    return (max(r for r, ok in zip(realized, fits) if ok),
            min((r for r, ok in zip(realized, fits) if not ok), default=None))


def set_separation(space, pieces) -> float:
    """Smallest set distance between two of the pieces, pair by pair (+inf for
    fewer than two)."""
    return min((min(space.d(x, y) for x in pieces[i] for y in pieces[j])
                for i in range(len(pieces)) for j in range(i + 1, len(pieces))),
               default=math.inf)


def frozenset_direct_limit(space, stages, L):
    """The chain-limit cover greedy over frozenset stages: (selected stage
    numbers, 1-based; pieces as id sets; largest overlap and smallest set
    distance over the pairs of pieces i, j >= i + 2)."""
    stages = [frozenset(s) for s in stages]

    def neighborhood(members, radius):
        return frozenset(y for y in space.point_ids
                         if min(space.d(y, x) for x in members) <= radius)

    subseq = [0]
    while subseq[-1] < len(stages) - 1:
        need = neighborhood(stages[subseq[-1]], 3.0 * L)
        subseq.append(next(m for m in range(subseq[-1] + 1, len(stages))
                           if need <= stages[m]))
    pieces = [neighborhood(stages[0], L)]
    for a, b in zip(subseq, subseq[1:]):
        if stages[b] - stages[a]:
            pieces.append(neighborhood(stages[b] - stages[a], L))
    far = [(i, j) for i in range(len(pieces)) for j in range(i + 2, len(pieces))]
    overlap = max((len(pieces[i] & pieces[j]) for i, j in far), default=0)
    gap = min((set_separation(space, [pieces[i], pieces[j]]) for i, j in far),
              default=math.inf)
    return tuple(i + 1 for i in subseq), pieces, overlap, gap


def dense_triangle_violation(D, triples=None):
    """(i, k, j) of the first triple with D[i][j] > D[i][k] + D[k][j] + 1e-12 in
    float arithmetic, or None. Triples run k outer, then (i, j) row-major, the
    library's exhaustive order; ``triples`` replaces them with the given
    (i, k, j) list, as the library's sampled check draws it."""
    n = len(D)
    bad = {(i, k, j) for k in range(n) for i in range(n) for j in range(n)
           if float(D[i][j]) > float(D[i][k]) + float(D[k][j]) + 1e-12}
    if triples is None:
        triples = [(i, k, j) for k in range(n) for i in range(n) for j in range(n)]
    if bad:
        for t in triples:
            if tuple(t) in bad:
                return tuple(t)
    return None


def first_axiom_violation(D):
    """(phrase, indices) of the first entry the library's pre-checks reject, or
    None: a non-finite entry (no indices), then the first nonzero diagonal
    entry, then the first asymmetric entry in row-major order, then the first
    non-positive entry off the diagonal in row-major order."""
    n = len(D)
    cells = [(i, j) for i in range(n) for j in range(n)]
    if any(not math.isfinite(D[i][j]) for i, j in cells):
        return "distances must be finite", ()
    for i in range(n):
        if D[i][i] != 0.0:
            return "d(x,x) must be 0", (i,)
    for i, j in cells:
        if D[i][j] != D[j][i]:
            return "asymmetry", (i, j)
    for i, j in cells:
        if i != j and D[i][j] <= 0.0:
            return "distinct points need positive distance", (i, j)
    return None


def dense_partition_variation(partition, R) -> float:
    space = partition.space
    n_pieces = len(partition.cover.pieces)
    worst = 0.0
    for x in space.point_ids:
        for y in space.point_ids:
            if space.d(x, y) <= R + 1e-12:
                s = sum(abs(partition.value(i, x) - partition.value(i, y))
                        for i in range(n_pieces))
                worst = max(worst, s)
    return worst


def dense_product_table(elements, op) -> dict:
    """{(a, b): a * b} over every stored pair whose product is stored.

    ``op`` computes the product from the elements themselves.
    """
    stored = set(elements)
    table = {}
    for a in elements:
        for b in elements:
            c = op(a, b)
            if c in stored:
                table[(a, b)] = c
    return table


def dense_word_metric(elements, generators, op) -> list:
    """Rows of Cayley-graph distances over the stored elements, one BFS per
    source: g and g * s are adjacent for every generator s whose product is
    stored. ``op`` computes products from the elements themselves."""
    stored = set(elements)
    adj = {g: set() for g in elements}
    for g in elements:
        for s in generators:
            h = op(g, s)
            if h in stored and h != g:
                adj[g].add(h)
                adj[h].add(g)
    rows = []
    for source in elements:
        dist = {source: 0}
        queue = [source]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append([float(dist[g]) for g in elements])
    return rows


def free_reduce(word: str) -> str:
    """Cancel adjacent inverse letters (x next to X) until none are left."""
    while True:
        for i in range(len(word) - 1):
            if word[i] != word[i + 1] and word[i].lower() == word[i + 1].lower():
                word = word[:i] + word[i + 2:]
                break
        else:
            return word


def dense_quasi_action(elements, generators, identity, table, space, maps, x0):
    """Brute-force constants of a quasi-action, with the library's tie-breaks.

    Returns a dict with A and its point, B and its (g, h, x), the inverse
    defect and its (g, x), the ell samples on the realized distances plus the
    diameter, and the orbit edge maximum at x0 with its (g, s). Maxima are
    strict: the first pair in row-major order (then the first point) wins.
    """
    pts = space.point_ids
    d = space.d
    A, A_at = 0.0, None
    for x in pts:
        v = d(maps[identity][x], x)
        if A_at is None or v > A:
            A, A_at = v, x
    B, B_at = 0.0, None
    for g in elements:
        for h in elements:
            if (g, h) not in table:
                continue
            for x in pts:
                v = d(maps[g][maps[h][x]], maps[table[(g, h)]][x])
                if v > B:
                    B, B_at = v, (g, h, x)
    inv, inv_at = 0.0, None
    for g in elements:
        g_inv = next(h for h in elements if table.get((g, h)) == identity)
        for x in pts:
            v = d(maps[g][maps[g_inv][x]], x)
            if v > inv:
                inv, inv_at = v, (g, x)
    radii = sorted(set(float(v) for v in space.D.ravel()) | {space.diameter})
    ell = []
    for r in radii:
        worst = 0.0
        for x in pts:
            for y in pts:
                if d(x, y) <= r + 1e-12:
                    for g in elements:
                        worst = max(worst, d(maps[g][x], maps[g][y]))
        ell.append((r, worst))
    edge, edge_at = 0.0, None
    for g in elements:
        for s in elements:
            if s in generators and (g, s) in table:
                v = d(maps[g][x0], maps[table[(g, s)]][x0])
                if v > edge:
                    edge, edge_at = v, (g, s)
    lam = max((d(maps[s][x0], x0) for s in generators), default=0.0)
    return {"A": A, "A_at": A_at, "B": B, "B_at": B_at, "inverse_defect": inv,
            "inverse_at": inv_at, "ell": tuple(ell), "edge": edge, "edge_at": edge_at,
            "lam": lam}


def partition_value_maps(partition):
    """Per piece, the dict point -> positive value, in stored point order."""
    ids = partition.space.point_ids
    return [{x: partition.value(i, x) for x in ids if partition.value(i, x) > 0.0}
            for i in range(len(partition.cover.pieces))]


def dict_pullback(cert, partition):
    """(kept, pieces, value maps) of the partition pulled back along the map,
    by the loop over pieces x source points: pieces with an empty preimage
    are dropped, and a kept piece's value at x is its value at f(x)."""
    source = cert.source
    f = {x: cert.target.point_ids[k] for x, k in zip(source.point_ids, cert.img.tolist())}
    kept, pieces, values = [], [], []
    for i, piece in enumerate(partition.cover.pieces):
        pre = frozenset(x for x in source.point_ids if f[x] in piece)
        if not pre:
            continue
        kept.append(i)
        pieces.append(pre)
        vals = {}
        for x in source.point_ids:
            v = partition.value(i, f[x])
            if v > 0.0:
                vals[x] = v
        values.append(vals)
    return tuple(kept), tuple(pieces), values


def dict_masses(space, values):
    """Per stored point, the dict piece -> positive value, pieces ascending."""
    out = {p: {} for p in space.point_ids}
    for i, vals in enumerate(values):
        for x, v in vals.items():
            out[x][i] = v
    return out


def dict_partition_rows(space, values):
    """The partition document's rows: by piece, then by stored point."""
    rows = []
    for i, vals in enumerate(values):
        for x in sorted_ids(space, vals):
            rows.append({"piece": i, "point": x, "value": vals[x]})
    return rows
