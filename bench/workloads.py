"""Seeded scenario generators for the three benchmark workloads.

Each generator returns a list of ``Scenario`` records: the scenario document,
the side files it references, and the verdict the generator expects. The
seed moves cover boundaries, rotations, points, perturbation phases, sampled
radii and the order of the scenarios. Sizes and every other parameter that
sets the cost of a scenario are fixed, so every seed asks the program for
the same amount of work. Expected verdicts follow from facts that
hold by construction (unit vectors differ by at most sqrt(2) when their
coefficients are nonnegative, a tail past the witness radius is 0, strips of
width w > 2L are 2L-separated), never from running the program.

``scale="tiny"`` shrinks every size for the self-test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("pair-sweep", "group-orbit", "ingest-emit")


@dataclass
class Scenario:
    name: str
    doc: dict
    expect_pass: bool
    files: dict = field(default_factory=dict)   # relative path -> JSON object
    size: int = 0                               # points of the main space

    @property
    def expect_code(self) -> int:
        return 0 if self.expect_pass else 1


def _rng(workload, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _blocks(n, k, overlap, offset, rng, cyclic, jitter=True):
    """k blocks over 0..n-1, each widened by ``overlap`` on both sides.

    With ``jitter`` the seed moves the inner cuts by up to n / 8k; on a cycle
    the blocks wrap and are turned by ``offset``.
    """
    amp = n // (8 * k) if jitter else 0
    moves = rng.integers(-amp, amp + 1, size=k + 1)
    moves[0] = moves[-1] = 0
    cuts = [int(c) + int(j) for c, j in zip(np.linspace(0, n, k + 1), moves)]
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        lo, hi = a - overlap, b + overlap
        if cyclic:
            pts = sorted({(p + offset) % n for p in range(lo, hi)})
        else:
            pts = list(range(max(lo, 0), min(hi, n)))
        pieces.append(pts)
    return pieces


def _line_space(kind, n):
    if kind == "cycle":
        return {"metric": {"type": "cycle", "n": n}}
    return {"metric": {"type": "z_interval", "lo": 0, "hi": n - 1}}


# ------------------------------------------------------------- pair-sweep

def pair_sweep(seed, scale="full"):
    rng = _rng("pair-sweep", seed)
    tiny = scale == "tiny"
    sizes = (24, 32, 40) if tiny else (150, 250, 350)
    out = []

    def add(name, doc, expect_pass, size):
        out.append(Scenario(name, dict(doc, name=name), expect_pass, size=size))

    # Cost-relevant parameters (witness radii, piece counts, overlaps, strides)
    # are fixed per scenario; the seed only moves positions and phases.
    slots = [(kind, n) for n in sizes for kind in ("z_interval", "cycle")]

    # glue with uniform-ball pieces; two of the three variants are falsified
    for i, (kind, n) in enumerate(slots):
        r = 1 + i % 2
        cover = _blocks(n, 3, 4, int(rng.integers(n)), rng, kind == "cycle")
        params = {"R": 1, "tail_radii": [0, 1, r, r + 2]}
        variant = int(rng.integers(3))
        if variant == 0:
            params.update(epsilon=1e-9, S0=r, delta=0)    # variation at 1 > 0: FAIL
        elif variant == 1:
            params.update(epsilon=2.0, S0=0, delta=1.0)   # ||u - v|| <= sqrt 2: PASS
        else:
            params.update(epsilon=2.0, S0=0, delta=0)     # tail at 0 > 0: FAIL
        add("glue_%s_%d" % (kind, n), {
            "pipeline": "glue",
            "inputs": {"space": _line_space(kind, n), "cover": {"pieces": cover},
                       "pieces": {"builtin": "uniform_ball", "radius": r}},
            "parameters": params}, variant == 1, n)

    for i, (kind, n) in enumerate(slots):
        cover = _blocks(n, 3 + i % 2, 5, int(rng.integers(n)), rng, kind == "cycle")
        radii = sorted(int(v) for v in rng.choice(np.arange(1, 9), size=3, replace=False))
        add("bell_%s_%d" % (kind, n), {
            "pipeline": "bell",
            "inputs": {"space": _line_space(kind, n), "cover": {"pieces": cover}},
            "parameters": {"radii": radii}}, True, n)

    for i, (kind, n) in enumerate(slots[2:]):
        step, radius = 2 + i % 2, 1 + (i // 2) % 2
        members = list(range(int(rng.integers(step)), n, step))
        add("subspace_%s_%d" % (kind, n), {
            "pipeline": "subspace",
            "inputs": {"space": _line_space(kind, n),
                       "witness": {"builtin": "uniform_ball", "radius": radius}},
            "parameters": {"subspace": members, "R": 2, "epsilon": 2.0, "S0": 1,
                           "radii": [1, 2, 4], "tail_radii": [0, 1, 2, 3]}}, True, n)
        step, radius = 3 - i % 2, 2 - (i // 2) % 2
        members = list(range(int(rng.integers(step)), n, step))
        add("net_%s_%d" % (kind, n), {
            "pipeline": "net",
            "inputs": {"space": _line_space(kind, n),
                       "witness": {"builtin": "uniform_ball", "radius": radius}},
            "parameters": {"net": members, "c": step, "R": 1, "S0": step + 1,
                           "radii": [1, 2, 3], "tail_radii": [step + 1, step + 3]}}, True, n)

    for i, radius in enumerate((5, 6) if tiny else (12, 14)):
        cover = _blocks(2 * radius + 1, 3, 2, 0, rng, False)
        inputs = {"space": {"metric": {"type": "z2_ball", "radius": radius, "norm": "l1"}},
                  "target_space": {"metric": {"type": "z_interval", "lo": -radius, "hi": radius}},
                  "map": {"type": "proj0"},
                  "cover": {"pieces": [[p - radius for p in piece] for piece in cover]}}
        if i:
            inputs["pieces"] = {"builtin": "uniform_ball", "radius": 1}
        add("fibering_z2ball_%d" % radius, {
            "pipeline": "fibering", "inputs": inputs,
            "parameters": {"R": 1, "S0": 1, "radii": [1, 2], "tail_radii": [0, 1, 2]}},
            True, 2 * radius * radius + 2 * radius + 1)

    L, width = (8, 20) if tiny else (20, 50)
    for n in ((60, 80) if tiny else (200, 250, 300)):
        cuts = list(range(0, n, width)) + [n]
        cuts = [c + (int(rng.integers(-3, 4)) if 0 < c < n else 0) for c in cuts]
        pieces = [list(range(a, b)) for a, b in zip(cuts, cuts[1:])]
        # strips at least width - 6 > 2L wide keep same-colored strips 2L apart
        add("separated_interval_%d" % n, {
            "pipeline": "separated",
            "inputs": {"space": _line_space("z_interval", n),
                       "cover": {"pieces": pieces,
                                 "coloring": [i % 2 for i in range(len(pieces))]}},
            "parameters": {"L": L, "sigma": 2.0 / L, "R": 1, "epsilon": 0.6, "S0": 1,
                           "tail_radii": [0, 1]}}, True, n)

    for i, m in enumerate((12, 16) if tiny else (60, 80, 100)):
        add("direct_limit_%d" % m, {
            "pipeline": "direct-limit",
            "inputs": {"space": {"metric": {"type": "z_interval", "lo": -m, "hi": m}},
                       "chain": {"type": "z_intervals", "radii": list(range(m + 1))}},
            "parameters": {"L": 1 + i % 2, "R": 1, "S0": 1,
                           "tail_radii": sorted(int(v) for v in rng.choice(4, size=3, replace=False))}},
            True, 2 * m + 1)
    return out


# ------------------------------------------------------------ group-orbit

def group_orbit(seed, scale="full"):
    rng = _rng("group-orbit", seed)
    orders = (24, 36, 48, 60) if scale == "tiny" else \
        (120, 150, 180, 210, 240, 270, 300, 360)
    out = []
    for i, N in enumerate(orders):
        m = (12, 20, 24, 36)[i % 4]
        perturbed = (i + i // 4) % 2 == 1
        # x0 turns with the cover: a rotation of the cycle changes the input
        # files but not the work, and the certificates only through R and S0
        offset = int(rng.integers(m))
        cover = _blocks(m, 3, 1, offset, rng, True, jitter=False)
        if perturbed:
            action = {"type": "perturbed", "base": "cyclic_mod",
                      "ga": int(rng.choice([1, 2, 4, 5, 7, 8])), "xa": 0,
                      "mod": 3, "shift": 1}
        else:
            action = {"type": "isometric_hom", "rule": "cyclic_mod"}
        name = "group_z%d_c%d_%s" % (N, m, "perturbed" if perturbed else "hom")
        doc = {"name": name, "pipeline": "group-pipeline",
               "inputs": {"group": {"type": "cyclic", "n": N},
                          "space": {"metric": {"type": "cycle", "n": m}},
                          "action": action, "cover": {"pieces": cover}},
               "parameters": {"x0": offset, "R": int(rng.integers(1, 3)),
                              "S0": int(rng.integers(0, 3))}}
        out.append(Scenario(name, doc, True, size=N))
    return out


# ------------------------------------------------------------ ingest-emit

def _l1_points(n, rng):
    """n distinct lattice points in a box about twice as wide as high: their
    x coordinates and their l1 distance matrix."""
    h = max(4, int(np.sqrt(n / 2.0)) + 1)
    w = 2 * h
    while True:
        flat = rng.choice(w * h, size=n, replace=False)
        xs, ys = flat % w, flat // w
        if xs.min() == 0 and xs.max() == w - 1:
            return xs, np.abs(xs[:, None] - xs) + np.abs(ys[:, None] - ys)


def _strip_cover(xs, width):
    """Vertical strips of the given width; alternate colors."""
    strips = {}
    for i, x in enumerate(xs):
        strips.setdefault(int(x) // width, []).append(i)
    keys = sorted(strips)
    return [strips[k] for k in keys], [j % 2 for j in range(len(keys))]


def _band_graph(n, rows, rng):
    """A connected rows x (n / rows) grid graph; the seed drops a tenth of the
    rung edges and adds n / 5 diagonals, so the edge count is fixed."""
    cols = n // rows
    cell = lambda r, c: c * rows + r  # noqa: E731
    edges = [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    rungs = [(cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    drop = set(rng.choice(len(rungs), size=n // 10, replace=False).tolist())
    edges += [e for i, e in enumerate(rungs) if i not in drop]
    diagonals = [(cell(r, c), cell(r + d, c + 1)) for r in range(rows) for c in range(cols - 1)
                 for d in (-1, 1) if 0 <= r + d < rows]
    edges += [diagonals[i] for i in rng.choice(len(diagonals), size=n // 5, replace=False)]
    return sorted((min(a, b), max(a, b)) for a, b in edges)


def _bfs(n, edges, root):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = [-1] * n
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _unit_rows(point_ids, D, radius, rng):
    """Explicit witness rows: random positive weights on each closed ball."""
    rows = []
    for i, x in enumerate(point_ids):
        ball = np.flatnonzero(D[i] <= radius)
        c = rng.uniform(0.5, 1.5, size=ball.size)
        c = c / np.sqrt((c * c).sum())
        rows.append({"point": x, "entries": [{"at": point_ids[int(j)], "c": float(v)}
                                             for j, v in zip(ball, c)]})
    return {"vectors": rows}


def ingest_emit(seed, scale="full"):
    rng = _rng("ingest-emit", seed)
    tiny = scale == "tiny"
    out = []
    matrix_sizes = (30, 40, 50) if tiny else (220, 260, 300, 340, 420, 480, 540, 600)
    # L and the strip width are fixed per scenario; the seed draws the points
    for i, n in enumerate(matrix_sizes):
        xs, D = _l1_points(n, rng)
        L = 1 + i % 3
        if L not in set(np.unique(D).tolist()):
            raise AssertionError("L must be a realized distance for the Lebesgue check")
        width = 2 * L + 2
        pieces, coloring = _strip_cover(xs, width)
        ids = [int(v) for v in rng.permutation(10 * n)[:n]]
        cover = [[ids[i] for i in piece] for piece in pieces]
        name = "cover_matrix_%d" % n
        space_file = "spaces/%s.json" % name
        out.append(Scenario(name, {
            "name": name, "pipeline": "verify-cover",
            "inputs": {"space": space_file,
                       "cover": {"pieces": cover, "coloring": coloring}},
            "parameters": {"L": L}}, True,
            files={space_file: {"points": ids,
                                "metric": {"type": "matrix", "d": D.astype(int).tolist()}}},
            size=n))

    graph_sizes = (20, 30) if tiny else (120, 160, 200, 240)
    for i, n in enumerate(graph_sizes):
        edges = _band_graph(n, 5, rng)
        dist = _bfs(n, edges, int(rng.integers(5)))
        L = 1 + i % 2
        width = 2 * L + 1
        bands = {}
        for p, d in enumerate(dist):
            bands.setdefault(d // width, []).append(p)
        cover = [bands[k] for k in sorted(bands)]
        name = "cover_graph_%d" % n
        space_file = "spaces/%s.json" % name
        out.append(Scenario(name, {
            "name": name, "pipeline": "verify-cover",
            "inputs": {"space": space_file,
                       "cover": {"pieces": cover,
                                 "coloring": [j % 2 for j in range(len(cover))]}},
            "parameters": {"L": L}}, True,
            files={space_file: {"points": list(range(n)),
                                "metric": {"type": "graph", "edges": [list(e) for e in edges]}}},
            size=n))

    sub_sizes = (16, 24) if tiny else (60, 80, 100, 120)
    for n in sub_sizes:
        _, D = _l1_points(n, rng)
        ids = list(range(n))
        members = sorted(int(v) for v in rng.choice(n, size=n // 8, replace=False))
        name = "subspace_matrix_%d" % n
        space_file = "spaces/%s.json" % name
        wit_file = "witnesses/%s.json" % name
        out.append(Scenario(name, {
            "name": name, "pipeline": "subspace",
            "inputs": {"space": space_file, "witness": wit_file},
            "parameters": {"subspace": members, "R": 2, "epsilon": 2.0, "S0": 1,
                           "radii": [1, 2, 3], "tail_radii": [0, 1, 2]}}, True,
            files={space_file: {"points": ids,
                                "metric": {"type": "matrix", "d": D.astype(int).tolist()}},
                   wit_file: _unit_rows(ids, D, 2, rng)},
            size=n))
    return out


GENERATORS = {"pair-sweep": pair_sweep, "group-orbit": group_orbit,
              "ingest-emit": ingest_emit}


def generate(workload, seed, scale="full"):
    """The workload's scenarios, in the seed's order."""
    scenarios = GENERATORS[workload](seed, scale)
    order = _rng(workload, seed + 1).permutation(len(scenarios))
    return [scenarios[int(i)] for i in order]


def write(scenarios, directory):
    """Write scenario files and their side files; returns the scenario paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for sc in scenarios:
        for rel, obj in sc.files.items():
            path = os.path.join(directory, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        path = os.path.join(directory, sc.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sc.doc, fh, indent=1)
        paths.append(path)
    return paths
