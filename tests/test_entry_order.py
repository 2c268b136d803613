"""Entry order and bits of every witness construction.

Each construction is compared with the scalar dict loop it is defined by,
kept here as the reference: for every point x, ``list(w.vectors[x].items())``
must equal the reference vector's items, in the same order and with the same
floats. The pair kernel sums entries in this order, so the certificates
depend on it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    Cover,
    Witness,
    bell_partition,
    collapse,
    cycle,
    dirac_piece_family,
    dirac_witness,
    glue_with_report,
    make_glue_input,
    net_construction,
    space_from_matrix,
    subspace_construction,
    transport,
    uniform_ball_piece_family,
    uniform_ball_witness,
    z2_ball,
    z_interval,
)


# ------------------------------------------------------ scalar references

def ref_dirac(space):
    return {x: {(None, x): 1.0} for x in space.point_ids}


def ref_uniform_ball(space, radius):
    out = {}
    for x in space.point_ids:
        ball = space.sorted_ids(space.ball(x, radius))
        c = 1.0 / math.sqrt(len(ball))
        out[x] = {(None, p): c for p in ball}
    return out


def ref_collapse(vectors):
    out = {}
    for x, vec in vectors.items():
        acc = {}
        for (_, p), c in vec.items():
            acc[p] = acc.get(p, 0.0) + c * c
        out[x] = {(None, p): math.sqrt(m) for p, m in acc.items()}
    return out


def ref_transport(witness, mapping):
    return {mapping[x]: {(tag, mapping[p]): c for (tag, p), c in vec.items()}
            for x, vec in witness.vectors.items()}


def ref_net(ambient, net, witness):
    return {x: dict(witness.vectors[ambient.nearest_point(x, net)])
            for x in ambient.point_ids}


def ref_subspace(witness, members):
    ambient = witness.space
    retraction = {s: ambient.nearest_point(s, members) for s in ambient.point_ids}
    xi = {y: {(s, retraction[s]): c for (_, s), c in witness.vectors[y].items()}
          for y in ambient.sorted_ids(members)}
    return xi, ref_collapse(xi)


def ref_glue(glue_input):
    masses = glue_input.partition.masses()
    out = {}
    for x in glue_input.partition.space.point_ids:
        vec = {}
        for i, phi in masses[x].items():
            root = math.sqrt(phi)
            for (tag, u), cc in glue_input.pieces[i].vectors[x].items():
                vec[((i, tag), u)] = root * cc
        out[x] = vec
    return out


def assert_same_entries(witness, ref):
    assert set(ref) == set(witness.space.point_ids)
    for x in witness.space.point_ids:
        assert list(witness.vectors[x].items()) == list(ref[x].items()), x


# ------------------------------------------------------------------ inputs

def shuffled_matrix_space():
    # string ids stored out of sorted order, distances from a weighted path
    ids = ["d", "a", "c", "b", "e"]
    pos = np.array([0.0, 1.0, 3.0, 4.0, 7.0])
    return space_from_matrix(ids, np.abs(pos[:, None] - pos[None, :]))


SPACES = {
    "interval": lambda: z_interval(-4, 6),
    "cycle": lambda: cycle(12),
    "z2_ball": lambda: z2_ball(2),
    "matrix": shuffled_matrix_space,
}


def random_vectors(space, seed, tagged, entries=4):
    """Seeded unit vectors in a scrambled entry order. Tagged entries reuse
    projections, so collapse has groups to merge."""
    rng = np.random.default_rng(seed)
    pts = list(space.point_ids)
    vectors = {}
    for x in pts:
        vec = {}
        for j in range(entries):
            p = pts[int(rng.integers(len(pts)))]
            key = (("t", j % 2), p) if tagged else (None, p)
            vec[key] = float(rng.uniform(-1.0, 1.0))
        norm = math.sqrt(sum(c * c for c in vec.values()))
        vectors[x] = {k: c / norm for k, c in vec.items()}
    return vectors


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("name", sorted(SPACES))
class TestBuilders:
    def test_dirac(self, name):
        space = SPACES[name]()
        assert_same_entries(dirac_witness(space), ref_dirac(space))

    @pytest.mark.parametrize("radius", [0, 1, 2.5, 100])
    def test_uniform_ball(self, name, radius):
        space = SPACES[name]()
        assert_same_entries(uniform_ball_witness(space, radius),
                            ref_uniform_ball(space, radius))

    def test_explicit_vectors_keep_insertion_order(self, name):
        space = SPACES[name]()
        vectors = random_vectors(space, 5, tagged=True)
        assert_same_entries(Witness(space, vectors), vectors)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SPACES)), seed=st.integers(0, 2 ** 32 - 1))
def test_collapse(name, seed):
    space = SPACES[name]()
    w = Witness(space, random_vectors(space, seed, tagged=True))
    assert_same_entries(collapse(w), ref_collapse(w.vectors))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SPACES)), seed=st.integers(0, 2 ** 32 - 1),
       tagged=st.booleans())
def test_transport_reversal(name, seed, tagged):
    # the order-reversing self-map is an isometry of each space's reversed
    # copy; transport onto a relabelled copy permutes the rows
    space = SPACES[name]()
    ids = list(space.point_ids)
    relabel = {p: ("img", p) for p in ids}
    target = space_from_matrix([relabel[p] for p in reversed(ids)],
                               space.D[::-1, ::-1])
    w = Witness(space, random_vectors(space, seed, tagged))
    assert_same_entries(transport(w, relabel, target), ref_transport(w, relabel))


def test_transport_rotation():
    space = cycle(9)
    w = uniform_ball_witness(space, 2)
    rot = {p: (p + 4) % 9 for p in space.point_ids}
    assert_same_entries(transport(w, rot, space), ref_transport(w, rot))


@pytest.mark.parametrize("name, net", [
    ("interval", [-4, -1, 2, 5, 6]),
    ("cycle", [0, 3, 6, 9]),
    ("z2_ball", [(0, 0), (-2, 0), (2, 0), (0, 2), (0, -2)]),
    ("matrix", ["d", "b"]),
])
@pytest.mark.parametrize("source", ["uniform_ball", "random"])
def test_net_extension(name, net, source):
    ambient = SPACES[name]()
    net_space = ambient.restrict(net)
    if source == "uniform_ball":
        w = uniform_ball_witness(net_space, 1)
    else:
        w = Witness(net_space, random_vectors(net_space, 11, tagged=False))
    res = net_construction(ambient, net, w, radii=[1.0], tail_radii=[])
    assert_same_entries(res.witness, ref_net(ambient, net, w))


@pytest.mark.parametrize("name, members", [
    ("interval", [-4, 0, 1, 5]),
    ("cycle", [0, 2, 7, 8]),
    ("z2_ball", [(0, 0), (1, 1), (-2, 0)]),
    ("matrix", ["e", "a", "c"]),
])
@pytest.mark.parametrize("source", ["uniform_ball", "random"])
def test_subspace_xi_and_eta(name, members, source):
    space = SPACES[name]()
    if source == "uniform_ball":
        w = uniform_ball_witness(space, 2)
    else:
        w = Witness(space, random_vectors(space, 13, tagged=False, entries=6))
    res = subspace_construction(w, members, tail_radii=[0.0, 1.0])
    xi, eta = ref_subspace(w, members)
    assert_same_entries(res.tagged, xi)
    assert_same_entries(res.collapsed, eta)


GLUE_COVERS = {
    "interval": (lambda: z_interval(0, 11),
                 [range(0, 5), range(3, 9), range(6, 12), range(0, 12)]),
    "cycle": (lambda: cycle(12),
              [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9], [8, 9, 10, 11, 0, 1]]),
}


@pytest.mark.parametrize("name", sorted(GLUE_COVERS))
@pytest.mark.parametrize("family", ["dirac", "uniform_ball"])
def test_glued_witness(name, family):
    make, pieces = GLUE_COVERS[name]
    space = make()
    cover = Cover(space, [list(p) for p in pieces])
    part = bell_partition(cover, require_lebesgue=False)
    fam = (dirac_piece_family(cover) if family == "dirac"
           else uniform_ball_piece_family(cover, 1))
    gi = make_glue_input(part, fam)
    assert_same_entries(glue_with_report(gi, tail_radii=[0.0]).witness, ref_glue(gi))
