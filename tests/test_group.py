"""Group models, word metrics, quasi-action certification, and the orbit
pipeline, with exhaustively verifiable constants on small examples."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    BoundViolationError,
    Cover,
    DisconnectedGraphError,
    FiniteMetricSpace,
    GlueInput,
    PreconditionError,
    ValidationError,
    certify_quasi_action,
    check_coarse_map,
    cycle,
    cyclic_group,
    dirac_witness,
    free_group_ball,
    glue_with_report,
    group_pipeline,
    GroupModel,
    left_translation,
    load_action_maps,
    orbit_map,
    product_of_cyclic,
    quasi_stabilizer,
    space_from_graph,
    uniform_ball_witness,
    word_metric_space,
    z_ball,
    z_interval,
)
from coarse_lab import group as group_module
from coarse_lab.cli import execute_scenario
from test_construct import assert_same_glue
from oracles import (dense_product_table, dense_quasi_action, dense_word_metric, free_reduce,
                     masses)


def product(model, g, h):
    """g * h read off the table, or None where a truncated ball does not store it."""
    k = int(model.mult[model.index(g), model.index(h)])
    return model.elements[k] if k >= 0 else None


def action_array(model, space, maps):
    """The index array of an action given as maps g -> {x: f_g(x)}."""
    return np.array([space.indices([maps[g][x] for x in space.point_ids])
                     for g in model.elements])


def rotation_maps(n_group, n_cycle):
    """g acts on the n_cycle-cycle by rotation through g mod n_cycle."""
    return np.array([[(x + g) % n_cycle for x in range(n_cycle)] for g in range(n_group)])


def perturbed_maps(n_group, n_cycle, ga, xa, mod, shift):
    return np.array([[(x + g + ((ga * g + xa * x) % mod) - shift) % n_cycle
                      for x in range(n_cycle)] for g in range(n_group)])


class TestGroupModels:
    def test_cyclic_group_basics(self):
        g = cyclic_group(6)
        assert len(g) == 6
        assert g.identity == 0
        assert g.generators == (1, 5)
        assert g.is_finite_group

    def test_generators_must_be_symmetric(self):
        with pytest.raises(ValidationError):
            GroupModel([0, 1, 2], (1,), [[(a + b) % 3 for b in range(3)]
                                         for a in range(3)], 0)

    def test_identity_not_a_generator(self):
        with pytest.raises(ValidationError):
            GroupModel([0, 1], (0, 1), [[0, 1], [1, 0]], 0)

    def test_element_without_stored_inverse_rejected(self):
        with pytest.raises(ValidationError):
            GroupModel([0, 1], (1,), [[0, 1], [1, 1]], 0)

    def test_identity_must_be_two_sided(self):
        with pytest.raises(ValidationError, match="two-sided identity"):
            GroupModel([0, 1, 2], (1, 2), [[0, 2, 1], [1, 0, 2], [2, 1, 0]], 0)

    def test_finite_group_table_must_be_total(self):
        with pytest.raises(ValidationError, match="every product"):
            GroupModel([0, 1, 2], (1, 2), [[0, 1, 2], [1, 2, 0], [2, 0, -1]], 0)

    def test_z_ball_is_truncated(self):
        g = z_ball(5)
        assert not g.is_finite_group
        assert g.truncation_radius == 5
        assert product(g, 3, 4) is None
        assert product(g, 2, 3) == 5

    def test_free_group_ball_size(self):
        g = free_group_ball(2, 2)
        assert len(g) == 17  # 1 + 4 + 12

    def test_product_of_cyclic(self):
        g = product_of_cyclic([2, 2])
        assert len(g) == 4
        assert product(g, (1, 0), (1, 1)) == (0, 1)


class TestWordMetric:
    def test_cyclic_distances(self):
        sp = word_metric_space(cyclic_group(6))
        assert sp.d(0, 3) == 3.0
        assert sp.d(0, 5) == 1.0

    def test_klein_four_diameter(self):
        sp = word_metric_space(product_of_cyclic([2, 2]))
        assert sp.diameter == 2.0

    def test_left_invariance(self):
        g = cyclic_group(7)
        sp = word_metric_space(g)
        for a in g.elements:
            for x in g.elements:
                for y in g.elements:
                    assert sp.d(product(g, a, x), product(g, a, y)) == sp.d(x, y)

    def test_free_ball_word_lengths(self):
        g = free_group_ball(2, 2)
        sp = word_metric_space(g)
        assert sp.d("", "a") == 1.0
        assert sp.d("", "ab") == 2.0
        assert sp.d("a", "b") == 2.0

    @pytest.mark.parametrize("case", [
        ("cyclic", 1), ("cyclic", 2), ("cyclic", 7), ("cyclic", 201), ("cyclic", 360),
        ("product", [2, 2]), ("product", [3, 4, 5]), ("product", [12, 30]),
        ("z_ball", 1), ("z_ball", 6), ("free", (1, 3)), ("free", (2, 2)), ("free", (3, 2)),
    ], ids=lambda case: "%s-%s" % case)
    def test_matches_dense_bfs(self, case):
        model, op = _with_op(case)
        sp = word_metric_space(model)
        assert sp.point_ids == model.elements
        assert sp.D.tolist() == dense_word_metric(model.elements, model.generators, op)

    def test_finite_group_needs_no_graph_bfs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the per-element BFS ran on a finite group")

        monkeypatch.setattr(group_module, "_hop_space", refuse)
        model, op = _with_op(("cyclic", 360))
        assert word_metric_space(model).D.tolist() == \
            dense_word_metric(model.elements, model.generators, op)

    @pytest.mark.parametrize("case", [("z_ball", N) for N in range(1, 6)] +
                             [("free", (r, N)) for r in (1, 2) for N in (1, 2, 3)],
                             ids=lambda case: "%s-%s" % case)
    def test_truncated_ball_is_the_graph_metric_of_its_steps(self, case):
        model = _with_op(case)[0]
        gen_cols = model.mult[:, [model.index(s) for s in model.generators]]
        edges = [(model.elements[a], model.elements[b])
                 for a, row in enumerate(gen_cols.tolist()) for b in row if b >= 0]
        want = space_from_graph(model.elements, edges)
        got = word_metric_space(model)
        assert got.point_ids == want.point_ids
        assert got.D.tolist() == want.D.tolist()

    def test_one_way_step_of_a_truncated_table_is_rejected(self):
        # Z_6 stored as a truncated table without 2 * 1: the hop 3 -> 2 has no
        # way back, and BFS over the steps would give d(2, 3) = 5 but d(3, 2) = 1
        mult = cyclic_group(6).mult.copy()
        mult[2, 1] = -1
        model = GroupModel(range(6), (1, 5), mult, 0, truncation_radius=3)
        with pytest.raises(ValidationError, match="no stored way back"):
            word_metric_space(model)

    def test_loops_of_order_five(self):
        # every loop on 0..4 with identity 0, all four other elements generating:
        # the Cayley graph is complete, so only the associativity test can
        # tell the six labellings of Z_5 from the other loops
        counts = {True: 0, False: 0}
        for table in reduced_latin_squares(5):
            assoc = all(table[table[x][y]][z] == table[x][table[y][z]]
                        for x, y, z in itertools.product(range(5), repeat=3))
            model = GroupModel(range(5), (1, 2, 3, 4), table, 0)
            if assoc:
                assert word_metric_space(model).D.tolist() == dense_word_metric(
                    range(5), (1, 2, 3, 4), lambda a, b: table[a][b])
            else:
                with pytest.raises(ValidationError, match="not associative"):
                    word_metric_space(model)
            counts[assoc] += 1
        assert counts == {True: 6, False: 50}

    def test_non_generating_set_is_disconnected(self):
        a = np.arange(6)
        model = GroupModel(range(6), (2, 4), (a[:, None] + a) % 6, 0)
        with pytest.raises(DisconnectedGraphError):
            word_metric_space(model)


def reduced_latin_squares(n):
    """All n x n Latin squares on 0..n-1 whose first row and column are 0..n-1."""
    out = []

    def extend(rows):
        if len(rows) == n:
            out.append([list(r) for r in rows])
            return
        i = len(rows)
        for rest in itertools.permutations([v for v in range(n) if v != i]):
            row = (i,) + rest
            if all(row[c] != r[c] for r in rows for c in range(1, n)):
                extend(rows + [row])

    extend([tuple(range(n))])
    return out


class TestCertify:
    def test_isometric_rotation(self):
        act = certify_quasi_action(cyclic_group(12), cycle(4), rotation_maps(12, 4))
        assert act.A == 0.0
        assert act.B == 0.0
        for r in (0.0, 1.0, 2.0):
            assert act.ell(r) == r

    def test_trivial_action(self):
        g = cyclic_group(4)
        sp = z_interval(0, 3)
        maps = {a: {x: x for x in sp.point_ids} for a in g.elements}
        act = certify_quasi_action(g, sp, action_array(g, sp, maps))
        assert act.A == 0.0 and act.B == 0.0

    def test_perturbed_constants(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12),
                                   perturbed_maps(60, 12, 5, 1, 3, 1))
        assert act.A == 1.0
        assert act.B <= 3.0
        assert act.ell(1.0) <= 3.0
        # witnesses attain the constants
        G, X = act.group, act.space
        a = X.index(act.A_witness)
        assert X.D[act.img[G.index(G.identity), a], a] == act.A
        g, h, x = act.B_witness
        gh = product(G, g, h)
        fhx = act.img[G.index(h), X.index(x)]
        assert X.D[act.img[G.index(g), fhx], act.img[G.index(gh), X.index(x)]] == act.B

    def test_inverse_defect_within_a_plus_b(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12),
                                   perturbed_maps(60, 12, 5, 1, 3, 1))
        rec, = act.checks
        assert rec.passed
        assert rec.rhs == act.A + act.B

    def test_ceilings_raise(self):
        with pytest.raises(PreconditionError):
            certify_quasi_action(cyclic_group(60), cycle(12),
                                 perturbed_maps(60, 12, 5, 1, 3, 1), A_ceiling=0.0)
        with pytest.raises(PreconditionError):
            certify_quasi_action(cyclic_group(60), cycle(12),
                                 perturbed_maps(60, 12, 5, 1, 3, 1), B_ceiling=0.0)

    def test_partial_maps_rejected(self):
        doc = {"type": "table", "maps": [{"g": g, "map": [[x, (x + g) % 3] for x in range(3)]}
                                         for g in range(3)]}
        del doc["maps"][2]["map"][0]
        with pytest.raises(ValidationError, match="map of 2 is not total, missing 0"):
            load_action_maps(doc, cyclic_group(3), cycle(3))

    @pytest.mark.parametrize("img", [np.zeros((3, 2), dtype=int), np.full((3, 3), 3),
                                     np.full((3, 3), -1), np.zeros((3, 3), dtype=bool),
                                     np.zeros((3, 3))], ids=["shape", "high", "negative",
                                                             "bool", "float"])
    def test_bad_arrays_rejected(self, img):
        with pytest.raises(ValidationError, match="action array must be"):
            certify_quasi_action(cyclic_group(3), cycle(3), img)


class TestQuasiStabilizer:
    def clamped_z_action(self, N, lo, hi):
        sp = z_interval(lo, hi)
        g = z_ball(N)
        maps = {a: {x: min(max(x + a, lo), hi) for x in sp.point_ids}
                for a in g.elements}
        return certify_quasi_action(g, sp, action_array(g, sp, maps))

    def test_clamped_translation_stabilizer(self):
        act = self.clamped_z_action(10, -30, 30)
        stab = quasi_stabilizer(act, 0, 3)
        assert set(stab.space.point_ids) == set(range(-3, 4))

    def test_rotation_kernel(self):
        act = certify_quasi_action(cyclic_group(12), cycle(4), rotation_maps(12, 4))
        assert set(quasi_stabilizer(act, 0, 0).space.point_ids) == {0, 4, 8}

    def test_perturbed_contains_kernel(self):
        act = certify_quasi_action(cyclic_group(12), cycle(4),
                                   perturbed_maps(12, 4, 5, 1, 3, 1))
        members = set(quasi_stabilizer(act, 0, 1).space.point_ids)
        assert {0, 4, 8} <= members

    def test_monotone_in_threshold(self):
        act = self.clamped_z_action(8, -20, 20)
        small = set(quasi_stabilizer(act, 0, 2).space.point_ids)
        large = set(quasi_stabilizer(act, 0, 5).space.point_ids)
        assert small <= large

    def test_empty_stabilizer_raises(self):
        sp = z_interval(0, 5)
        g = cyclic_group(2)
        maps = {0: {x: x for x in sp.point_ids},
                1: {x: 5 - x for x in sp.point_ids}}
        act = certify_quasi_action(g, sp, action_array(g, sp, maps))
        # identity always fixes, so emptiness only happens at invalid T < 0
        with pytest.raises(ValidationError):
            quasi_stabilizer(act, 0, -1)


class TestOrbitMap:
    def test_isometric_orbit(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12), rotation_maps(60, 12))
        res = orbit_map(act, 0)
        assert res.lam == 1.0
        assert res.edge_bound == 1.0
        assert res.checks[0].passed
        assert res.cert.img[25] == 1

    def test_edge_bound_formula(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12),
                                   perturbed_maps(60, 12, 5, 1, 3, 1))
        res = orbit_map(act, 0)
        assert res.edge_bound == act.ell(res.lam) + act.B
        assert res.checks[0].lhs <= res.edge_bound + 1e-12


    def test_modulus_is_computed_on_read(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12), rotation_maps(60, 12))
        res = orbit_map(act, 0)
        assert "modulus" not in vars(res.cert)
        fresh = check_coarse_map(res.cert.source, res.cert.target, res.cert.img)
        assert res.cert.modulus.samples() == fresh.modulus.samples()
        assert "modulus" in vars(res.cert)


class TestLeftTranslation:
    def test_within_model(self):
        g = cyclic_group(5)
        assert left_translation(g, 2, [0, 1, 4]).tolist() == [2, 3, 1]

    def test_truncation_escape(self):
        g = z_ball(5)
        with pytest.raises(PreconditionError, match=r"translate 3 \* 4 leaves"):
            left_translation(g, g.index(3), [g.index(1), g.index(4)])


def three_arc_cover(space, n, width, step):
    return Cover(space, tuple(frozenset((a + j) % n for j in range(width))
                              for a in range(0, n, step)))


class TestGroupPipeline:
    def test_single_piece_cover_is_degenerate_but_passes(self):
        act = certify_quasi_action(cyclic_group(12), cycle(4), rotation_maps(12, 4))
        cover = Cover(act.space, (frozenset(act.space.point_ids),))
        res = group_pipeline(act, 0, cover, R=1.0)
        assert res.k == 0
        assert len(res.kept_pieces) == 1
        assert all(c.passed for c in res.checks)

    def test_isometric_sixty_on_twelve(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12), rotation_maps(60, 12))
        cover = three_arc_cover(act.space, 12, 6, 4)
        res = group_pipeline(act, 0, cover, R=1.0)
        assert res.k == 1 and res.L == 1.0
        assert res.epsilon == 40.0
        assert res.reps == (2, 6, 10)
        assert res.T == 4.0 and res.threshold == 4.0
        assert len(res.stabilizer.space.point_ids) == 45
        chain = next(c for c in res.checks if c.name == "group_epsilon_chain")
        assert chain.passed
        assert chain.lhs == pytest.approx(2.0 / 3.0)
        assert all(c.passed for c in res.checks)
        # group partition sums to one over every element
        sums = masses(res.partition)
        for g in res.partition.space.point_ids:
            assert sum(sums[g].values()) == pytest.approx(1.0)

    def test_perturbed_sixty_on_twelve(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12),
                                   perturbed_maps(60, 12, 5, 1, 3, 1))
        cover = three_arc_cover(act.space, 12, 6, 4)
        res = group_pipeline(act, 0, cover, R=1.0)
        assert res.epsilon == 160.0
        assert res.T == 5.0
        assert res.threshold == 12.0
        assert len(res.stabilizer.space.point_ids) == 60
        assert all(c.passed for c in res.checks)

    def test_epsilon_below_admissible_raises(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12), rotation_maps(60, 12))
        cover = three_arc_cover(act.space, 12, 6, 4)
        with pytest.raises(PreconditionError):
            group_pipeline(act, 0, cover, R=1.0, epsilon=20.0)

    def test_zero_lebesgue_cover_raises(self):
        act = certify_quasi_action(cyclic_group(12), cycle(4), rotation_maps(12, 4))
        cover = Cover(act.space, (frozenset({0, 1}), frozenset({1, 2, 3})))
        with pytest.raises(PreconditionError):
            group_pipeline(act, 0, cover, R=1.0)

    def test_uniform_ball_provider(self):
        act = certify_quasi_action(cyclic_group(60), cycle(12), rotation_maps(60, 12))
        cover = three_arc_cover(act.space, 12, 6, 4)
        res = group_pipeline(act, 0, cover, R=1.0,
                             provider=lambda sp: uniform_ball_witness(sp, 1))
        assert all(c.passed for c in res.checks)

    @pytest.mark.parametrize("provider", [
        lambda sp: dirac_witness(sp.restrict(sp.point_ids[1:])),      # a point short
        lambda sp: dirac_witness(FiniteMetricSpace([p + 1000 for p in sp.point_ids], sp.D)),
        lambda sp: "not a witness",
    ], ids=["subset", "other-points", "not-a-witness"])
    def test_provider_off_the_stabilizer_is_named(self, provider):
        act = certify_quasi_action(cyclic_group(60), cycle(12), rotation_maps(60, 12))
        cover = three_arc_cover(act.space, 12, 6, 4)
        with pytest.raises(ValidationError,
                           match="provider witness is not on the quasi-stabilizer"):
            group_pipeline(act, 0, cover, R=1.0, provider=provider)

    @pytest.mark.parametrize("maps", [rotation_maps(60, 12),
                                      perturbed_maps(60, 12, 5, 1, 3, 1)])
    def test_provider_space_out_of_stored_order(self, maps):
        act = certify_quasi_action(cyclic_group(60), cycle(12), maps)
        cover = three_arc_cover(act.space, 12, 6, 4)

        def shuffled(sp):
            order = sp.point_ids[1::2] + sp.point_ids[0::2][::-1]
            idx = sp.indices(order)
            return uniform_ball_witness(FiniteMetricSpace(order, sp.D[np.ix_(idx, idx)]), 1)

        res = group_pipeline(act, 0, cover, R=1.0, provider=shuffled)
        want = group_pipeline(act, 0, cover, R=1.0,
                              provider=lambda sp: uniform_ball_witness(sp, 1))
        assert res.witness.vectors == want.witness.vectors
        assert res.checks == want.checks

    def test_truncated_ball_scenario_passes_with_flag(self, tmp_path):
        arcs = [[(12 * i + j) % 48 for j in range(-1, 13)] for i in range(4)]
        cert, _ = execute_scenario({
            "name": "z_ball_on_cycle",
            "pipeline": "group-pipeline",
            "inputs": {"group": {"type": "ball", "radius": 3},
                       "space": {"metric": {"type": "cycle", "n": 48}},
                       "action": {"type": "isometric_hom", "rule": "cyclic_mod"},
                       "cover": {"pieces": arcs}},
            "parameters": {"x0": 5, "R": 1},
        }, str(tmp_path))
        assert cert["pass"]
        assert cert["truncation_flags"] == [
            "group model truncated at radius 3; word distances are upper bounds"]

    @pytest.mark.parametrize("maps", [rotation_maps(60, 12),
                                      perturbed_maps(60, 12, 5, 1, 3, 1)])
    def test_dirac_pieces_glue_as_the_dirac_family(self, monkeypatch, maps):
        # a Dirac provider's collapsed pieces are Dirac by content, so the glue
        # takes the Dirac family, and its result is the explicit glue's bit for bit
        glued = record_glue_inputs(monkeypatch)
        act = certify_quasi_action(cyclic_group(60), cycle(12), maps)
        res = group_pipeline(act, 0, three_arc_cover(act.space, 12, 6, 4), R=1.0)
        assert glued[0].pieces is None
        assert_same_glue(res.glue, glue_with_report(
            GlueInput(res.partition, tuple(r.collapsed for r in res.subspace_results))))

    def test_uniform_ball_pieces_keep_the_explicit_glue(self, monkeypatch):
        glued = record_glue_inputs(monkeypatch)
        act = certify_quasi_action(cyclic_group(60), cycle(12), rotation_maps(60, 12))
        group_pipeline(act, 0, three_arc_cover(act.space, 12, 6, 4), R=1.0,
                       provider=lambda sp: uniform_ball_witness(sp, 1))
        assert len(glued) == 1
        assert isinstance(glued[0].pieces, tuple)
        assert len(glued[0].pieces) == len(glued[0].partition.cover.indices)

    def test_truncated_dirac_pieces_glue_as_the_dirac_family(self, monkeypatch):
        # Dirac by content on a truncated model too, and bit for bit the explicit glue
        glued = record_glue_inputs(monkeypatch)
        g, sp = z_ball(3), cycle(48)
        maps = np.array([[(x + a) % 48 for x in sp.point_ids] for a in g.elements])
        act = certify_quasi_action(g, sp, maps)
        arcs = [[(12 * i + j) % 48 for j in range(-1, 13)] for i in range(4)]
        res = group_pipeline(act, 5, Cover(sp, arcs), R=1.0)
        assert res.truncation_flags
        assert len(glued) == 1 and glued[0].pieces is None
        assert_same_glue(res.glue, glue_with_report(
            GlueInput(res.partition, tuple(r.collapsed for r in res.subspace_results))))

    def test_cover_must_live_on_space(self):
        act = certify_quasi_action(cyclic_group(12), cycle(4), rotation_maps(12, 4))
        other = cycle(4)
        with pytest.raises(ValidationError):
            group_pipeline(act, 0, Cover(other, (frozenset(other.point_ids),)), R=1.0)


def record_glue_inputs(monkeypatch):
    """The GlueInput of every glue the group pipeline runs, in a list filled as it runs."""
    glued = []
    glue = group_module.glue_with_report

    def keep(gi, **kwargs):
        glued.append(gi)
        return glue(gi, **kwargs)

    monkeypatch.setattr(group_module, "glue_with_report", keep)
    return glued


def _with_op(case):
    """(model, product computed from the elements themselves)."""
    kind, arg = case
    if kind == "cyclic":
        return cyclic_group(arg), lambda a, b: (a + b) % arg
    if kind == "product":
        return product_of_cyclic(arg), \
            lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, arg))
    if kind == "z_ball":
        return z_ball(arg), lambda a, b: a + b
    return free_group_ball(*arg), lambda a, b: free_reduce(a + b)


small_models = st.one_of(
    st.tuples(st.just("cyclic"), st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("product"),
              st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)),
    st.tuples(st.just("z_ball"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("free"), st.tuples(st.integers(min_value=1, max_value=2),
                                         st.integers(min_value=1, max_value=2))),
).map(_with_op)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(small_models)
    def test_builder_tables(self, case):
        model, op = case
        table = dense_product_table(model.elements, op)
        for i, a in enumerate(model.elements):
            for j, b in enumerate(model.elements):
                k = int(model.mult[i, j])
                assert (model.elements[k] if k >= 0 else None) == table.get((a, b))

    @settings(max_examples=90, deadline=None)
    @given(small_models, st.booleans(), st.integers(min_value=2, max_value=6),
           st.sampled_from(["noise", "shift", "perturbed"]), st.data())
    def test_certified_constants(self, case, flip, m, family, data):
        model, op = case
        if flip:
            # generators listed against the stored order: the edge sweep
            # must still visit the table's columns in stored order
            model = GroupModel(model.elements, model.generators[::-1], model.mult,
                               model.identity, model.truncation_radius)
        n = len(model)
        if family == "noise":
            noise = data.draw(st.lists(st.integers(min_value=-1, max_value=1),
                                       min_size=n * m, max_size=n * m))
            maps = {g: {x: (x + i + noise[i * m + x]) % m for x in range(m)}
                    for i, g in enumerate(model.elements)}
        else:
            k = data.draw(st.integers(min_value=1, max_value=4))
            maps = shift_maps(model, m, k, family)
        assert_constants_match_oracle(model, op, cycle(m), maps)

    @pytest.mark.parametrize("case", [("cyclic", 12), ("product", [2, 3]), ("z_ball", 4),
                                      ("free", (2, 2))], ids=lambda case: "%s-%s" % case)
    @pytest.mark.parametrize("family", ["shift", "perturbed"])
    def test_repeated_rows(self, case, family):
        model, op = _with_op(case)
        maps = shift_maps(model, 5, 3, family)
        assert len({tuple(m.values()) for m in maps.values()}) < len(model)
        assert_constants_match_oracle(model, op, cycle(5), maps)


def shift_maps(model, m, k, family):
    """Maps on cycle(m) that repeat: the i-th element shifts by i mod k
    ("shift"), or by i plus (i mod k) - 1 ("perturbed")."""
    step = (lambda i: i % k) if family == "shift" else (lambda i: i + i % k - 1)
    return {g: {x: (x + step(i)) % m for x in range(m)}
            for i, g in enumerate(model.elements)}


def assert_constants_match_oracle(model, op, space, maps):
    act = certify_quasi_action(model, space, action_array(model, space, maps))
    ref = dense_quasi_action(model.elements, model.generators, model.identity,
                             dense_product_table(model.elements, op), space, maps, 0)
    assert (act.A, act.A_witness) == (ref["A"], ref["A_at"])
    assert (act.B, act.B_witness) == (ref["B"], ref["B_at"])
    rec, = act.checks
    assert (rec.lhs, rec.rhs, rec.witness) == \
        (ref["inverse_defect"], ref["A"] + ref["B"], ref["inverse_at"])
    assert act.ell.samples() == ref["ell"]
    edge, = orbit_map(act, 0).checks
    assert (edge.lhs, edge.witness) == (ref["edge"], ref["edge_at"])
    assert edge.rhs == dict(ref["ell"])[ref["lam"]] + ref["B"]
