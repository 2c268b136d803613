"""Command-line driver: scenario runs, exit codes, certificates on disk,
profile export, suite aggregation, and JSON round-trips."""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_lab import (
    BoundViolationError,
    Cover,
    all_passed,
    bell_partition,
    certify_quasi_action,
    check_coarse_map,
    cycle,
    cyclic_group,
    dumps_deterministic,
    fibering_pipeline,
    free_group_ball,
    group_pipeline,
    load_action_maps,
    load_cover,
    load_group,
    load_map_assignment,
    load_space,
    load_witness,
    partition_to_json,
    separated_cover_pipeline,
    uniform_ball_piece_family,
    uniform_ball_witness,
    variation_profile,
)
import coarse_lab
from coarse_lab import cli
from coarse_lab.cli import export_profiles, main
from coarse_lab.jsonio import _as_jsonable
from conftest import SCENARIO_DIR


INTERVAL = list(range(-5, 6))  # the points of z_interval(-5, 5)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def table_action(rule):
    return {"type": "table", "maps": [{"g": g, "map": [[x, rule(g, x)] for x in range(12)]}
                                      for g in range(60)]}


# rows of the table action of Z_60 rotating the 12-cycle
ROTATIONS = table_action(lambda g, x: (x + g) % 12)["maps"]


def read_certificate(out_dir, name):
    with open(os.path.join(out_dir, name + ".certificate.json")) as fh:
        return json.load(fh)


def witness_to_json(witness):
    """The explicit ``vectors`` document that ``load_witness`` reads back."""
    rows = []
    for x in witness.space.point_ids:
        entries = []
        for (tag, p), c in sorted(witness.vectors[x].items(),
                                  key=lambda kv: (witness.space.index(kv[0][1]),
                                                  repr(kv[0][0]))):
            e = {"at": _as_jsonable(p), "c": c}
            if tag is not None:
                e["tag"] = _as_jsonable(tag)
            entries.append(e)
        rows.append({"point": _as_jsonable(x), "entries": entries})
    return {"vectors": rows}


def run_with_hash_seeds(scen, out_dir, seeds=("1", "2")):
    """(exit code, stdout, stderr) of ``coarse-lab run`` in a fresh interpreter
    per PYTHONHASHSEED, writing into ``out_dir/<seed>``."""
    src = os.path.abspath(os.path.join(os.path.dirname(cli.__file__), os.pardir))
    runs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "coarse_lab.cli", "run", scen,
                               "--out", str(out_dir / seed)], env=env, timeout=120,
                              capture_output=True, text=True)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    return runs


class TestRunCommand:
    def test_bell_scenario_passes(self, tmp_path, capsys):
        src = os.path.join(SCENARIO_DIR, "bell_interval_blocks.json")
        code = main(["run", src, "--out", str(tmp_path)])
        assert code == 0
        cert = read_certificate(str(tmp_path), "bell_interval_blocks")
        assert cert["pass"] is True
        assert cert["pipeline"] == "bell"
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_single_piece_bell_is_trivial_pass(self, tmp_path):
        scen = write_json(tmp_path / "one.json", {
            "name": "one",
            "pipeline": "bell",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 5}},
                "cover": {"pieces": [[0, 1, 2, 3, 4, 5]]},
            },
            "parameters": {"radii": [1.0]},
        })
        assert main(["run", scen, "--out", str(tmp_path)]) == 0
        cert = read_certificate(str(tmp_path), "one")
        assert cert["pass"] is True

    def test_falsified_returns_one(self, tmp_path, capsys):
        # glued dirac pieces across an overlap have variation sqrt(2) > 1 at R=1
        scen = write_json(tmp_path / "tight.json", {
            "name": "tight",
            "pipeline": "glue",
            "inputs": {
                "space": {"metric": {"type": "cycle", "n": 12}},
                "cover": {"pieces": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9],
                                     [8, 9, 10, 11, 0, 1]]},
                "pieces": {"builtin": "dirac"},
            },
            "parameters": {"R": 1.0, "epsilon": 1.0, "S0": 0.0, "delta": 1.0,
                           "radii": [1.0], "tail_radii": [0.0]},
        })
        assert main(["run", scen, "--out", str(tmp_path)]) == 1
        assert "[FAIL]" in capsys.readouterr().out
        cert = read_certificate(str(tmp_path), "tight")
        assert cert["pass"] is False

    def test_glue_missing_point_is_validation_error(self, tmp_path, capsys):
        scen = write_json(tmp_path / "bad.json", {
            "name": "bad",
            "pipeline": "glue",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 3}},
                "cover": {"pieces": [[0, 1, 2, 3]]},
                "pieces": {"list": [{"vectors": [
                    {"point": 0, "entries": [{"at": 0, "c": 1.0}]},
                    {"point": 1, "entries": [{"at": 1, "c": 1.0}]},
                    {"point": 2, "entries": [{"at": 2, "c": 1.0}]},
                ]}]},
            },
            "parameters": {"R": 1.0, "epsilon": 2.0},
        })
        assert main(["run", scen, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "piece 0" in err and "3" in err

    def test_nan_witness_coefficient_is_validation_error(self, tmp_path, capsys):
        vectors = [{"point": p, "entries": [{"at": p, "c": 1.0}]} for p in range(11)]
        vectors[4]["entries"][0]["c"] = float("nan")
        scen = write_json(tmp_path / "nan.json", {
            "name": "nan",
            "pipeline": "subspace",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 10}},
                "witness": {"vectors": vectors},
            },
            "parameters": {"subspace": [0, 2, 4, 6, 8, 10]},
        })
        assert main(["run", scen, "--out", str(tmp_path)]) == 2
        assert "non-finite coefficient" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "nan.certificate.json")

    @pytest.mark.parametrize("key", ["R", "S0"])
    def test_nan_radius_parameter_is_validation_error(self, tmp_path, capsys, key):
        params = {"subspace": [0, 2, 4, 6, 8, 10], "R": 1.0, "S0": 0.0}
        params[key] = float("nan")
        scen = write_json(tmp_path / "nanr.json", {
            "name": "nanr",
            "pipeline": "subspace",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 10}},
                "witness": {"builtin": "uniform_ball", "radius": 1},
            },
            "parameters": params,
        })
        assert main(["run", scen, "--out", str(tmp_path)]) == 2
        assert "NaN" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "nanr.certificate.json")

    @pytest.mark.parametrize("entry, message", [
        (5, "witness entry must be a JSON object"),
        ({"at": 4, "c": "x"}, "witness entry coefficient must be a number"),
    ])
    def test_malformed_witness_entry_is_validation_error(self, tmp_path, capsys, entry,
                                                         message):
        vectors = [{"point": p, "entries": [{"at": p, "c": 1.0}]} for p in range(11)]
        vectors[4]["entries"] = [entry]
        scen = write_json(tmp_path / "w.json", {
            "name": "w",
            "pipeline": "subspace",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 10}},
                "witness": {"vectors": vectors},
            },
            "parameters": {"subspace": [0, 2, 4, 6, 8, 10]},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("witness, message", [
        ({"vectors": 5}, "witness document field 'vectors' must be a JSON list"),
        ({"vectors": [{"point": 0, "entries": 5}]},
         "witness vector field 'entries' must be a JSON list"),
        ({"builtin": "uniform_ball", "radius": "x"},
         "uniform_ball witness field 'radius' must be a number"),
        ({"builtin": "uniform_ball", "radius": True},
         "uniform_ball witness field 'radius' must be a number"),
        # read last-wins, point 0 gets the unit vector 0.6 e_0 + 0.8 e_1; as listed, norm^2 1.36
        ({"vectors": [{"point": 0, "entries": [{"at": 0, "c": 0.6}, {"at": 1, "c": 0.8},
                                               {"at": 0, "c": 0.6}]}] +
          [{"point": p, "entries": [{"at": p, "c": 1}]} for p in range(1, 11)]},
         "witness vector at 0: (tag, point) entry (None, 0) is listed twice"),
        ({"vectors": [{"point": p, "entries": [{"at": p, "c": 1}]} for p in range(11)] +
          [{"point": 0, "entries": [{"at": 1, "c": 1}]}]},
         "witness document: point 0 is listed twice"),
    ])
    def test_malformed_witness_document_is_validation_error(self, tmp_path, capsys, witness,
                                                            message):
        scen = write_json(tmp_path / "w.json", {
            "name": "w",
            "pipeline": "subspace",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 10}},
                "witness": witness,
            },
            "parameters": {"subspace": [0, 2, 4, 6, 8, 10]},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, doc, message", [
        ("group", {"type": "cyclic", "n": "x"}, "cyclic group field 'n' must be an integer"),
        ("group", {"type": "cyclic", "n": 2.5}, "cyclic group field 'n' must be an integer"),
        ("group", {"type": "product", "factors": 5},
         "product group field 'factors' must be a JSON list"),
        ("group", {"type": "ball", "radius": "x"},
         "group ball field 'radius' must be an integer"),
        ("action", {"type": "perturbed", "base": "cyclic_mod", "ga": "x", "xa": 0, "mod": 3,
                    "shift": 1}, "perturbed action field 'ga' must be an integer"),
        ("action", {"type": "table", "maps": 5}, "table action field 'maps' must be a JSON list"),
        ("action", {"type": "table", "maps": [{"g": 0, "map": 5}]},
         "table action row field 'map' must be a JSON list"),
        ("provider", {"builtin": "uniform_ball", "radius": "x"},
         "uniform_ball witness field 'radius' must be a number"),
        ("provider", {"builtin": "uniform_ball", "radius": True},
         "uniform_ball witness field 'radius' must be a number"),
        ("action", {"type": "table", "maps": ROTATIONS + [ROTATIONS[0]]},
         "table action: group element 0 is listed twice"),
        ("action", {"type": "table", "maps": ROTATIONS + [{"g": 99, "map": []}]},
         "table action: group element 99 is unknown"),
        ("action", {"type": "table", "maps": [{"g": 0, "map": ROTATIONS[0]["map"] + [[1, 1]]}]
                    + ROTATIONS[1:]}, "map of 0: point 1 is listed twice"),
        ("action", {"type": "table", "maps": [{"g": 0, "map": ROTATIONS[0]["map"] + [[17, 0]]}]
                    + ROTATIONS[1:]}, "map of 0: point 17 is unknown"),
    ])
    def test_malformed_group_input_is_validation_error(self, tmp_path, capsys, key, doc,
                                                       message):
        with open(os.path.join(SCENARIO_DIR, "group_z60_c12.json")) as fh:
            scen = json.load(fh)
        scen["inputs"]["space"] = {"metric": {"type": "cycle", "n": 12}}
        scen["inputs"][key] = doc
        path = write_json(tmp_path / "g.json", scen)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("space, message", [
        ({"metric": {"type": "cycle", "n": "x"}}, "cycle field 'n' must be an integer"),
        ({"metric": {"type": "cycle", "n": 2.5}}, "cycle field 'n' must be an integer"),
        ({"metric": {"type": "z_interval", "lo": 0, "hi": "x"}},
         "z_interval field 'hi' must be an integer"),
        ({"metric": {"type": "z2_ball", "radius": "x"}},
         "z2_ball field 'radius' must be an integer"),
        ({"metric": {"type": "grid", "dims": 5}}, "grid field 'dims' must be a JSON list"),
        ({"metric": {"type": "matrix", "d": [[0]]}, "points": 5},
         "space document field 'points' must be a JSON list"),
        ({"metric": {"type": "graph", "edges": 5}, "points": [0, 1]},
         "graph metric field 'edges' must be a JSON list"),
        ({"metric": {"type": "graph", "edges": [[0, 1, 2]]}, "points": [0, 1, 2]},
         "graph edges must be [point, point] pairs"),
        ({"metric": {"type": "matrix", "d": "x"}, "points": [0, 1]},
         "a distance matrix must be a rectangular array of numbers"),
        ({"metric": {"type": "matrix", "d": [[0, 1], [1]]}, "points": [0, 1]},
         "a distance matrix must be a rectangular array of numbers"),
        ({"metric": {"type": "matrix", "d": [[0, "1"], ["1", 0]]}, "points": [0, 1]},
         "a distance matrix must be a rectangular array of numbers"),
        ({"metric": {"type": "matrix", "d": [[0, None], [None, 0]]}, "points": [0, 1]},
         "a distance matrix must be a rectangular array of numbers"),
        ({"metric": {"type": "matrix", "d": [[0, float("nan")], [float("nan"), 0]]},
          "points": [0, 1]}, "distances must be finite"),
        ({"metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}, "points": [{}, 1]},
         "ids must be numbers, strings or lists of them"),
    ])
    def test_malformed_space_document_is_validation_error(self, tmp_path, capsys, space,
                                                          message):
        scen = write_json(tmp_path / "v.json", {
            "name": "v",
            "pipeline": "verify-cover",
            "inputs": {"space": space, "cover": {"pieces": [[0, 1]]}},
            "parameters": {"L": 1},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cover, message", [
        ({"pieces": 5}, "cover document field 'pieces' must be a JSON list"),
        ({"pieces": [5]}, "cover piece must be a JSON list"),
        ({"pieces": [[0, 1]], "coloring": "ab"},
         "cover document field 'coloring' must be a JSON list"),
        ({"pieces": [[0, 1]], "coloring": ["a"]}, "cover color must be an integer"),
    ])
    def test_malformed_cover_document_is_validation_error(self, tmp_path, capsys, cover,
                                                          message):
        scen = write_json(tmp_path / "v.json", {
            "name": "v",
            "pipeline": "verify-cover",
            "inputs": {"space": {"metric": {"type": "z_interval", "lo": 0, "hi": 3}},
                       "cover": cover},
            "parameters": {"L": 1},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("chain, message", [
        ({"type": "z_intervals", "radii": ["x"]}, "chain radius must be an integer, not 'x'"),
        ({"type": "z_intervals", "radii": 5},
         "chain document field 'radii' must be a JSON list, not 5"),
        ({"type": "z_intervals", "radii": [1.5, 100]},
         "chain radius must be an integer, not 1.5"),
        ({"type": "explicit", "stages": 5},
         "chain document field 'stages' must be a JSON list, not 5"),
        ({"type": "explicit", "stages": [5]}, "chain stage must be a JSON list, not 5"),
    ])
    def test_malformed_chain_document_is_validation_error(self, tmp_path, capsys, chain,
                                                          message):
        scen = write_json(tmp_path / "c.json", {
            "name": "c",
            "pipeline": "direct-limit",
            "inputs": {"space": {"metric": {"type": "z_interval", "lo": -5, "hi": 5}},
                       "chain": chain},
            "parameters": {"L": 1},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline, key, doc, message", [
        ("direct-limit", "chain", {"type": "explicit", "stages": []},
         "a chain needs at least one stage"),
        ("direct-limit", "chain", {"type": "z_intervals", "radii": []},
         "a chain needs at least one stage"),
        ("direct-limit", "chain", {"type": "z_intervals", "radii": [-1, 5]}, "stage 1 is empty"),
        ("direct-limit", "chain", {"type": "z_intervals", "radii": [1, 3]},
         "the final stage must equal the ambient space"),
        ("direct-limit", "chain", {"type": "explicit", "stages": [[0, 1]]},
         "the final stage must equal the ambient space"),
        ("direct-limit", "chain", {"type": "explicit", "stages": [[0, 1], [2, 3], INTERVAL]},
         "stage 1 is not contained in stage 2"),
        ("direct-limit", "chain", {"type": "explicit", "stages": [[0], [], INTERVAL]},
         "stage 2 is empty"),
        ("verify-cover", "cover", {"pieces": []}, "a cover needs at least one piece"),
        ("verify-cover", "cover", {"pieces": [INTERVAL, []]}, "piece 1 is empty"),
        ("verify-cover", "cover", {"pieces": [[0, 99], INTERVAL]},
         "piece 0 contains unknown point 99"),
        ("verify-cover", "cover", {"pieces": [[-5, -4], list(range(-2, 6))]},
         "pieces do not cover the space: -3 uncovered"),
        ("verify-cover", "cover", {"pieces": [INTERVAL], "coloring": [0, 1]},
         "coloring length does not match piece count"),
        ("verify-cover", "cover", {"pieces": [INTERVAL], "coloring": [-1]},
         "colors must be >= 0"),
    ])
    def test_cover_and_chain_errors_are_named(self, tmp_path, capsys, pipeline, key, doc,
                                              message):
        scen = write_json(tmp_path / "e.json", {
            "name": "e",
            "pipeline": pipeline,
            "inputs": {"space": {"metric": {"type": "z_interval", "lo": -5, "hi": 5}},
                       key: doc},
            "parameters": {"L": 1},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("pairs, message", [
        ([5], "map pairs must be [point, image] pairs, not 5"),
        (5, "map document field 'pairs' must be a JSON list, not 5"),
        ([[1, 2, 3]], "map pairs must be [point, image] pairs, not [1, 2, 3]"),
        ([[0, 0], [1, 1], [2, 2], [3, 3], [0, 3]], "map pairs: source point 0 is listed twice"),
        ([[0, 0], [1, 1], [2, 2], [3, 3], [99, 0]], "map pairs: source point 99 is unknown"),
    ])
    def test_malformed_map_document_is_validation_error(self, tmp_path, capsys, pairs,
                                                        message):
        scen = write_json(tmp_path / "m.json", {
            "name": "m",
            "pipeline": "fibering",
            "inputs": {"space": {"metric": {"type": "z_interval", "lo": 0, "hi": 3}},
                       "target_space": {"metric": {"type": "z_interval", "lo": 0, "hi": 3}},
                       "map": {"type": "pairs", "pairs": pairs},
                       "cover": {"pieces": [[0, 1, 2, 3]]}},
            "parameters": {},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline", ["subspace", "net"])
    def test_member_list_must_be_a_list(self, tmp_path, capsys, pipeline):
        scen = write_json(tmp_path / "s.json", {
            "name": "s",
            "pipeline": pipeline,
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 10}},
                "witness": {"builtin": "dirac"},
            },
            "parameters": {pipeline: 5},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert "parameter '%s' must be a JSON list" % pipeline in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params", [{"S0": -1.0}, {"tail_radii": [0.0, -1.0]}])
    def test_negative_tail_radius_is_validation_error(self, tmp_path, capsys, params):
        scen = write_json(tmp_path / "t.json", {
            "name": "t",
            "pipeline": "glue",
            "inputs": {
                "space": {"metric": {"type": "cycle", "n": 12}},
                "cover": {"pieces": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9],
                                     [8, 9, 10, 11, 0, 1]]},
                "pieces": {"builtin": "uniform_ball", "radius": 1},
            },
            "parameters": dict({"radii": [1.0]}, **params),
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert "tail radii must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_group_epsilon_too_small_is_precondition_error(self, tmp_path, capsys):
        src = os.path.join(SCENARIO_DIR, "group_z60_c12.json")
        with open(src) as fh:
            scen = json.load(fh)
        scen["inputs"]["space"] = {"metric": {"type": "cycle", "n": 12}}
        scen["parameters"]["epsilon"] = 20.0
        path = write_json(tmp_path / "small_eps.json", scen)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert "error: Lebesgue number 1 < required 2" in capsys.readouterr().err

    def test_unread_field_is_input_error(self, tmp_path, capsys):
        with open(os.path.join(SCENARIO_DIR, "glue_cycle.json")) as fh:
            scen = json.load(fh)
        scen["parameter"] = scen.pop("parameters")
        out = tmp_path / "out"
        assert main(["run", write_json(tmp_path / "s.json", scen), "--out", str(out)]) == 2
        assert "pipeline 'glue' reads no field 'parameter'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, where, key, message", [
        ("direct_limit_interval", "parameters", "L",
         "pipeline 'direct-limit' needs parameter 'L'"),
        ("group_z60_c12", "parameters", "x0", "pipeline 'group-pipeline' needs parameter 'x0'"),
        ("group_z60_c12", "inputs", "cover", "pipeline 'group-pipeline' needs input 'cover'"),
    ])
    def test_missing_key_is_input_error(self, tmp_path, capsys, name, where, key, message):
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            scen = json.load(fh)
        del scen[where][key]
        assert main(["run", write_json(tmp_path / "s.json", scen),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_fail_line_names_the_witness(self, tmp_path, capsys):
        with open(os.path.join(SCENARIO_DIR, "separated_interval_100.json")) as fh:
            scen = json.load(fh)
        scen["parameters"]["epsilon"] = 0.01
        assert main(["run", write_json(tmp_path / "s.json", scen),
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] separated_variation_at_R: 0.048780487804878092 <= 0.01 at (35, 36)\n" \
            in out
        assert "[PASS] glue_variation_bound: 2 <= 4\n" in out

    def test_singleton_color_families_write_inf(self, tmp_path):
        # no color has two pieces, so the family separation is +inf
        code, cert = run_inline(tmp_path, {
            "name": "vc", "pipeline": "verify-cover",
            "inputs": {"space": {"metric": {"type": "cycle", "n": 12}},
                       "cover": {"pieces": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9],
                                            [8, 9, 10, 11, 0, 1]],
                                 "coloring": [0, 1, 2]}},
            "parameters": {"L": 1}})
        assert code == 0
        rec = cert["checked_inequalities"][0]
        assert (rec["name"], rec["lhs"], rec["rhs"]) == ("family_separation_exceeds_2L", 2.0,
                                                         "inf")

    def test_two_piece_direct_limit_writes_inf_gap(self, tmp_path):
        # two pieces have no nonadjacent pair, so the smallest gap is +inf
        code, cert = run_inline(tmp_path, {
            "name": "dl", "pipeline": "direct-limit",
            "inputs": {"space": {"metric": {"type": "z_interval", "lo": -20, "hi": 20}},
                       "chain": {"type": "z_intervals", "radii": [0, 20]}},
            "parameters": {"L": 1}})
        assert code == 0
        assert cert["details"]["piece_count"] == 2
        assert cert["details"]["nonadjacent_min_gap"] == "inf"

    def test_inputs_sha256_covers_every_input_file(self, tmp_path):
        with open(os.path.join(SCENARIO_DIR, "fibering_z2ball.json")) as fh:
            scen = json.load(fh)
        for key in ("target_space", "cover"):
            write_json(tmp_path / (key + ".json"), scen["inputs"][key])
            scen["inputs"][key] = key + ".json"
        path = write_json(tmp_path / "s.json", scen)
        assert main(["run", path, "--out", str(tmp_path / "a")]) == 0
        digest = hashlib.sha256(coarse_lab.__version__.encode() + b"\0")
        for name in ("s", "cover", "target_space"):  # the scenario, then input-key order
            digest.update(hashlib.sha256((tmp_path / (name + ".json")).read_bytes()).digest())
        first = read_certificate(str(tmp_path / "a"), scen["name"])
        assert first["inputs_sha256"] == digest.hexdigest()
        # the same documents spelled with other bytes are other inputs
        with open(tmp_path / "cover.json", "a") as fh:
            fh.write("\n")
        assert main(["run", path, "--out", str(tmp_path / "b")]) == 0
        second = read_certificate(str(tmp_path / "b"), scen["name"])
        assert second.pop("inputs_sha256") != first.pop("inputs_sha256")
        assert second == first

    def test_undecodable_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert main(["run", str(path)]) == 2
        assert "cannot parse %s: 'utf-8' codec can't decode" % path in capsys.readouterr().err

    def test_unknown_pipeline(self, tmp_path, capsys):
        scen = write_json(tmp_path / "x.json", {"name": "x", "pipeline": "nope"})
        assert main(["run", scen, "--out", str(tmp_path)]) == 2
        assert "unknown pipeline" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline", [{"name": "bell"}, ["bell"]], ids=["object", "list"])
    def test_non_string_pipeline_is_unknown(self, tmp_path, capsys, pipeline):
        scen = write_json(tmp_path / "x.json", {"name": "x", "pipeline": pipeline})
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert "unknown pipeline %r" % (pipeline,) in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json_reports_path(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "broken.json" in capsys.readouterr().err


    def test_serialization_error_writes_no_certificate(self, tmp_path, capsys, monkeypatch):
        run = cli._PIPELINES["subspace"]

        def with_nan_detail(inputs, params):
            out = run(inputs, params)
            out.details["probe"] = float("nan")
            return out

        monkeypatch.setitem(cli._PIPELINES, "subspace", with_nan_detail)
        scen = write_json(tmp_path / "e.json", {
            "name": "e",
            "pipeline": "subspace",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 4}},
                "witness": {"builtin": "uniform_ball", "radius": 1},
            },
            "parameters": {"subspace": [0, 2, 4], "radii": [1]},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert "refusing to serialize NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_unsafe_name_is_validation_error(self, tmp_path, name):
        scen = write_json(tmp_path / "s.json", {
            "name": name,
            "pipeline": "bell",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 3}},
                "cover": {"pieces": [[0, 1, 2, 3]]},
            },
            "parameters": {"radii": [1.0]},
        })
        out = tmp_path / "out" / "inner"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert os.listdir(tmp_path) == ["s.json"]

    @pytest.mark.parametrize("doc", [
        [1, 2],
        "scenario",
        {"name": "p", "pipeline": "bell", "parameters": [1]},
        {"name": "p", "pipeline": "bell", "parameters": None},
        {"name": "p", "pipeline": "bell", "inputs": ["space", "cover"]},
    ])
    def test_non_object_document_is_validation_error(self, tmp_path, capsys, doc):
        scen = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["s.json"]

    @pytest.mark.parametrize("inputs, params, message", [
        ({"pieces": "pieces.json"}, {}, "input 'pieces' must be a JSON object"),
        ({"space": {"metric": 5}}, {}, "space metric must be a JSON object"),
        ({}, {"radii": 3}, "parameter 'radii' must be a list of numbers"),
        ({}, {"R": "x"}, "parameter 'R' must be a number"),
        ({"pieces": {"list": [{"vectors": 5}]}}, {},
         "witness document field 'vectors' must be a JSON list"),
        ({"pieces": {"list": [{"vectors": [5]}]}}, {}, "witness vector must be a JSON object"),
        ({}, {"epsilon": float("nan")}, "parameter 'epsilon' must be finite"),
        ({}, {"epsilon": float("inf")}, "parameter 'epsilon' must be finite"),
        ({}, {"R": float("inf")}, "parameter 'R' must be finite"),
        ({}, {"radii": [1.0, float("inf")]}, "parameter 'radii' must be finite"),
        # a misspelled bound or piece spec must not silently turn its check off
        ({}, {"epsilom": 0.01}, "pipeline 'glue' reads no parameter 'epsilom'"),
        ({"pices": {"builtin": "dirac"}}, {}, "pipeline 'glue' reads no input 'pices'"),
        # null used to drop the Lebesgue precondition
        ({}, {"require_lebesgue": None}, "parameter 'require_lebesgue' must be true or false"),
        ({}, {"require_lebesgue": 0}, "parameter 'require_lebesgue' must be true or false"),
    ])
    def test_malformed_field_is_validation_error(self, tmp_path, capsys, inputs, params,
                                                 message):
        write_json(tmp_path / "pieces.json", [1, 2])
        scen = write_json(tmp_path / "s.json", {
            "name": "m",
            "pipeline": "glue",
            "inputs": dict({"space": {"metric": {"type": "z_interval", "lo": 0, "hi": 3}},
                            "cover": {"pieces": [[0, 1, 2, 3]]}}, **inputs),
            "parameters": dict({"R": 1.0, "radii": [1.0]}, **params),
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def as_json(obj):
    return json.loads(dumps_deterministic(obj))


def run_inline(tmp_path, scen):
    """Run a scenario document through the CLI; (exit code, certificate)."""
    code = main(["run", write_json(tmp_path / "s.json", scen), "--out", str(tmp_path)])
    return code, read_certificate(str(tmp_path), scen["name"])


def assert_matches_api(code, cert, checks, witness, radii):
    assert code == (0 if all_passed(checks) else 1)
    assert cert["checked_inequalities"] == as_json([r.as_dict() for r in checks])
    assert cert["profiles"]["variation"] == as_json(
        [[r, v] for r, v in variation_profile(witness, radii)])


class TestPipelinesMatchApi:
    """The CLI's uniform-ball piece and provider specs give the certificate of
    the matching Python API call."""

    def test_fibering_uniform_ball_pieces(self, tmp_path):
        with open(os.path.join(SCENARIO_DIR, "fibering_z2ball.json")) as fh:
            scen = json.load(fh)
        scen["inputs"]["pieces"] = {"builtin": "uniform_ball", "radius": 1}
        code, cert = run_inline(tmp_path, scen)

        inputs = scen["inputs"]
        source = load_space(inputs["space"])
        target = load_space(inputs["target_space"])
        cert_map = check_coarse_map(source, target,
                                    load_map_assignment(inputs["map"], source, target))
        part = bell_partition(load_cover(inputs["cover"], target))
        res = fibering_pipeline(cert_map, part, lambda c: uniform_ball_piece_family(c, 1),
                                radii=[1, 2], tail_radii=[0, 1])
        assert_matches_api(code, cert, res.checks, res.witness, [1.0, 2.0])
        assert cert["details"]["kept_pieces"] == list(res.kept_pieces)

    def test_separated_uniform_ball_pieces(self, tmp_path):
        with open(os.path.join(SCENARIO_DIR, "separated_interval_100.json")) as fh:
            scen = json.load(fh)
        scen["inputs"]["pieces"] = {"builtin": "uniform_ball", "radius": 1}
        scen["parameters"]["radii"] = [1, 3]
        code, cert = run_inline(tmp_path, scen)

        space = load_space(scen["inputs"]["space"])
        cover = load_cover(scen["inputs"]["cover"], space)
        res = separated_cover_pipeline(space, cover, 20, 0.1, 1, 0.6,
                                       lambda c: uniform_ball_piece_family(c, 1),
                                       tail_radii=[0, 1])
        assert_matches_api(code, cert, res.checks, res.witness, [1.0, 3.0])
        assert cert["info_inequalities"] == as_json([r.as_dict() for r in res.info])
        assert cert["partition"] == as_json(partition_to_json(res.partition))

    def test_group_uniform_ball_provider(self, tmp_path):
        with open(os.path.join(SCENARIO_DIR, "group_z60_c12.json")) as fh:
            scen = json.load(fh)
        scen["inputs"]["space"] = {"metric": {"type": "cycle", "n": 12}}
        scen["inputs"]["provider"] = {"builtin": "uniform_ball", "radius": 1}
        scen["parameters"]["radii"] = [1, 2]
        code, cert = run_inline(tmp_path, scen)

        inputs = scen["inputs"]
        grp = load_group(inputs["group"])
        space = load_space(inputs["space"])
        action = certify_quasi_action(grp, space,
                                      load_action_maps(inputs["action"], grp, space))
        res = group_pipeline(action, 0, load_cover(inputs["cover"], space), 1,
                             provider=lambda sp: uniform_ball_witness(sp, 1))
        assert_matches_api(code, cert, list(res.checks) + list(action.checks),
                           res.witness, [1.0, 2.0])
        assert cert["partition"] == as_json(partition_to_json(res.partition))
        assert cert["details"]["kept_pieces"] == list(res.kept_pieces)
        assert cert["details"]["representatives"] == list(res.reps)


def inlined_scenarios():
    """The scenarios/ documents, each with its file inputs read in place."""
    out = []
    for fname in sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".json")):
        with open(os.path.join(SCENARIO_DIR, fname)) as fh:
            scen = json.load(fh)
        for key, value in scen["inputs"].items():
            if isinstance(value, str):
                with open(os.path.join(SCENARIO_DIR, value)) as fh:
                    scen["inputs"][key] = json.load(fh)
        out.append(scen)
    return out


_SCENARIOS = inlined_scenarios()
_DROP = object()
# small values only: a size field set to a large number would allocate n x n
_MUTATIONS = [_DROP, None, "x", {}, [], True, float("nan"), float("inf"), -1, 0]


@st.composite
def mutated_scenarios(draw):
    """A scenario of scenarios/ with one field, at any object depth and at
    most two lists deep, dropped or replaced by one of _MUTATIONS."""
    scen = copy.deepcopy(draw(st.sampled_from(_SCENARIOS)))
    node, lists = scen, 0
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        child = node[key]
        lists += isinstance(child, list)
        deeper = isinstance(child, dict) or (isinstance(child, list) and lists <= 2)
        if not (deeper and child and draw(st.booleans())):
            break
        node = child
    value = draw(st.sampled_from(_MUTATIONS))
    if value is _DROP:
        del node[key]
    else:
        node[key] = value
    return scen


class TestExitCodes:
    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "space-file"])
    def test_boolean_matrix_entry_is_input_error(self, tmp_path, capsys, inline):
        # numpy would read the boolean as 1 or 0 and certify the matrix
        space = {"metric": {"type": "matrix", "d": [[0, inline, 2], [1, 0, 1], [2, 1, 0]]},
                 "points": [0, 1, 2]}
        scen = write_json(tmp_path / "b.json", {
            "name": "b",
            "pipeline": "verify-cover",
            "inputs": {
                "space": space if inline else write_json(tmp_path / "m.json", space),
                "cover": {"pieces": [[0, 1, 2]]},
            },
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        where = "b.json: inputs.space.metric.d[0][1] is true" if inline else \
            "m.json: metric.d[0][1] is false"
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), BoundViolationError("boom")],
                             ids=["unexpected", "bound-violation"])
    def test_bug_exits_three_with_traceback(self, tmp_path, capsys, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "bell_partition", broken)
        src = os.path.join(SCENARIO_DIR, "bell_interval_blocks.json")
        assert main(["run", src, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "%s: boom" % type(exc).__name__ in err
        assert not os.listdir(tmp_path)

    @settings(max_examples=150, deadline=None)
    @given(mutated_scenarios())
    def test_one_mutated_field_exits_cleanly(self, scen):
        """Exit 0, 1 or 2 and no traceback; 1 only with a ``pass: false``
        certificate on disk, 2 only with nothing written."""
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(os.path.join(tmp, "s.json"), scen)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", path, "--out", out])
            assert code in (0, 1, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
            written = os.listdir(out) if os.path.exists(out) else []
            if code == 1:
                certs = [f for f in written if f.endswith(".certificate.json")]
                assert len(certs) == 1
                with open(os.path.join(out, certs[0])) as fh:
                    assert json.load(fh)["pass"] is False
            if code == 2:
                assert written == []


def rule_certificate(tmp_path, name, action):
    """The certificate of scenarios/<name>.json with its action replaced, with
    the input hash dropped (the scenario documents differ)."""
    with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
        scen = json.load(fh)
    scen["inputs"]["space"] = {"metric": {"type": "cycle", "n": 12}}
    scen["inputs"]["action"] = action
    out = tmp_path / str(len(os.listdir(tmp_path)))
    assert main(["run", write_json(tmp_path / "s.json", scen), "--out", str(out)]) == 0
    cert = read_certificate(str(out), name)
    del cert["inputs_sha256"]
    return cert


class TestActionArrays:
    def test_table_of_rotations_matches_rule(self, tmp_path):
        rule = rule_certificate(tmp_path, "group_z60_c12",
                                {"type": "isometric_hom", "rule": "cyclic_mod"})
        table = rule_certificate(tmp_path, "group_z60_c12",
                                 table_action(lambda g, x: (x + g) % 12))
        assert table == rule

    def test_table_of_perturbed_maps_matches_rule(self, tmp_path):
        with open(os.path.join(SCENARIO_DIR, "group_z60_c12_perturbed.json")) as fh:
            action = json.load(fh)["inputs"]["action"]
        ga, xa, mod, shift = (action[k] for k in ("ga", "xa", "mod", "shift"))
        rule = rule_certificate(tmp_path, "group_z60_c12_perturbed", action)
        table = rule_certificate(tmp_path, "group_z60_c12_perturbed", table_action(
            lambda g, x: (x + g + (ga * g + xa * x) % mod - shift) % 12))
        assert table == rule

    @pytest.mark.parametrize("xa", [1, 2 ** 65 + 1])
    def test_huge_multiplier_reduces_exactly(self, tmp_path, xa):
        doc = {"type": "perturbed", "base": "cyclic_mod", "ga": 2 ** 70, "xa": xa,
               "mod": 3, "shift": 1}
        huge = rule_certificate(tmp_path, "group_z60_c12_perturbed", doc)
        doc["ga"] %= doc["mod"]
        assert huge == rule_certificate(tmp_path, "group_z60_c12_perturbed", doc)

    @pytest.mark.parametrize("rule", ["cyclic_mod", "translation_clamp"])
    @pytest.mark.parametrize("ga, xa, mod, shift", [
        (2 ** 70 + 1, -7, 3, 1),      # a multiplier past int64
        (5, -7, 2 ** 64 + 7, 1),      # a modulus past int64
        (5, 1, 3, -2 ** 63),          # a shift past int64
    ])
    def test_rule_arrays_match_python_ints(self, rule, ga, xa, mod, shift):
        grp, space = cyclic_group(15), cycle(6)
        img = load_action_maps({"type": "perturbed", "base": rule, "ga": ga, "xa": xa,
                                "mod": mod, "shift": shift}, grp, space)

        def image(g, x):
            y = x + g + (ga * g + xa * x) % mod - shift
            return y % 6 if rule == "cyclic_mod" else min(max(y, 0), 5)

        assert img.tolist() == [[image(g, x) for x in range(6)] for g in range(15)]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        src = os.path.join(SCENARIO_DIR, "subspace_interval.json")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        assert main(["run", src, "--out", str(out1)]) == 0
        assert main(["run", src, "--out", str(out2)]) == 0
        b1 = (out1 / "subspace_interval.certificate.json").read_bytes()
        b2 = (out2 / "subspace_interval.certificate.json").read_bytes()
        assert b1 == b2

    def test_group_certificate_ignores_hash_seed(self, tmp_path):
        # string elements of F_2 kept in sets iterate in an order that
        # PYTHONHASHSEED decides; the stabilizer-inclusion witness must not
        words = free_group_ball(2, 2).elements
        scen = write_json(tmp_path / "f2.json", {
            "name": "f2",
            "pipeline": "group-pipeline",
            "inputs": {
                "group": {"type": "ball", "group": "free", "rank": 2, "radius": 2},
                "space": {"metric": {"type": "cycle", "n": 12}},
                "action": {"type": "table", "maps": [
                    {"g": w, "map": [[x, (x + w.count("a") - w.count("A")) % 12]
                                     for x in range(12)]} for w in words]},
                "cover": {"pieces": [list(range(12))]},
            },
            "parameters": {"x0": 0, "R": 1, "epsilon": 100},
        })
        runs = run_with_hash_seeds(scen, tmp_path)
        assert [code for code, _, _ in runs] == [0, 0]
        certs = [(tmp_path / seed / "f2.certificate.json").read_bytes() for seed in "12"]
        assert certs[0] == certs[1]

    def test_unknown_chain_point_named_in_given_order(self, tmp_path):
        # the stage is read as a list; as a set its first unknown point
        # would be whichever PYTHONHASHSEED puts first
        scen = write_json(tmp_path / "ch.json", {
            "name": "ch",
            "pipeline": "direct-limit",
            "inputs": {
                "space": {"metric": {"type": "graph", "edges": [["a", "b"], ["b", "c"]]},
                          "points": ["a", "b", "c"]},
                "chain": {"type": "explicit",
                          "stages": [["zz", "yy", "xx", "ww"], ["a", "b", "c"]]},
            },
            "parameters": {"L": 1},
        })
        for code, _, err in run_with_hash_seeds(scen, tmp_path):
            assert code == 2
            assert err == "error: stage 1 contains unknown point 'zz'\n"
        assert not any((tmp_path / seed).exists() for seed in "12")


class TestProfiles:
    def run_and_read(self, tmp_path, scen, name):
        path = write_json(tmp_path / (name + ".json"), scen)
        assert main(["run", path, "--out", str(tmp_path), "--profiles", "csv"]) in (0, 1)
        var = (tmp_path / (name + ".variation.csv")).read_text().splitlines()
        tail = (tmp_path / (name + ".tail.csv")).read_text().splitlines()
        return var, tail

    def test_uniform_ball_tail_values(self, tmp_path):
        scen = {
            "name": "ub",
            "pipeline": "glue",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 10}},
                "cover": {"pieces": [list(range(11))]},
                "pieces": {"builtin": "uniform_ball", "radius": 1},
            },
            "parameters": {"R": 1.0, "epsilon": 2.0,
                           "radii": [1.0], "tail_radii": [0.0, 1.0]},
        }
        _, tail = self.run_and_read(tmp_path, scen, "ub")
        assert tail[0] == "S,tail"
        rows = [line.split(",") for line in tail[1:]]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(2.0 / 3.0)
        assert float(rows[1][1]) == 0.0

    def test_dirac_tail_all_zero(self, tmp_path):
        scen = {
            "name": "dz",
            "pipeline": "glue",
            "inputs": {
                "space": {"metric": {"type": "cycle", "n": 8}},
                "cover": {"pieces": [list(range(8))]},
                "pieces": {"builtin": "dirac"},
            },
            "parameters": {"R": 1.0, "epsilon": 2.0,
                           "radii": [1.0], "tail_radii": [0.0, 1.0, 2.0]},
        }
        _, tail = self.run_and_read(tmp_path, scen, "dz")
        assert all(line.endswith(",0") or line.split(",")[1] == "0" for line in tail[1:])

    def test_empty_tail_grid_gives_header_only(self, tmp_path):
        cert = {"profiles": {"variation": [[1.0, 0.5]], "tail": []}}
        paths = export_profiles(cert, "csv", str(tmp_path), "empty")
        tail_path = [p for p in paths if p.endswith("tail.csv")][0]
        with open(tail_path) as fh:
            assert fh.read() == "S,tail\n"

    def test_unsupported_format_rejected(self, tmp_path):
        from coarse_lab import ValidationError
        with pytest.raises(ValidationError):
            export_profiles({"profiles": {"variation": [], "tail": []}},
                            "xml", str(tmp_path), "x")

    def test_unsupported_format_writes_no_certificate(self, tmp_path, capsys):
        src = os.path.join(SCENARIO_DIR, "bell_interval_blocks.json")
        out = tmp_path / "op"
        out.mkdir()
        assert main(["run", src, "--out", str(out), "--profiles", "tsv"]) == 2
        assert "unsupported profile format 'tsv'" in capsys.readouterr().err
        assert os.listdir(out) == []


class TestSuiteCommand:
    def test_full_suite_passes(self, tmp_path, capsys):
        code = main(["suite", SCENARIO_DIR, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "passed 11/11" in out

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["suite", str(empty), "--out", str(tmp_path)]) == 0
        assert "passed 0/0" in capsys.readouterr().out

    def test_mixed_statuses(self, tmp_path, capsys):
        d = tmp_path / "mix"
        d.mkdir()
        write_json(d / "a_ok.json", {
            "name": "a_ok",
            "pipeline": "bell",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 3}},
                "cover": {"pieces": [[0, 1, 2, 3]]},
            },
            "parameters": {"radii": [1.0]},
        })
        write_json(d / "b_falsified.json", {
            "name": "b_falsified",
            "pipeline": "glue",
            "inputs": {
                "space": {"metric": {"type": "cycle", "n": 12}},
                "cover": {"pieces": [[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9],
                                     [8, 9, 10, 11, 0, 1]]},
                "pieces": {"builtin": "dirac"},
            },
            "parameters": {"R": 1.0, "epsilon": 1.0, "radii": [1.0]},
        })
        write_json(d / "c_broken.json", {"name": "c_broken", "pipeline": "nope"})
        code = main(["suite", str(d), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "a_ok.json: pass" in out
        assert "b_falsified.json: FALSIFIED" in out
        assert "c_broken.json: ERROR" in out
        assert "passed 1/3" in out

    def test_non_object_document_is_error(self, tmp_path, capsys):
        d = tmp_path / "docs"
        d.mkdir()
        write_json(d / "list.json", [1, 2])
        write_json(d / "params.json", {"name": "params", "pipeline": "bell",
                                       "parameters": [1]})
        out = tmp_path / "out"
        assert main(["suite", str(d), "--out", str(out)]) == 1
        lines = capsys.readouterr().out
        assert "list.json: ERROR" in lines and "params.json: ERROR" in lines
        assert "passed 0/2" in lines
        assert not out.exists() or os.listdir(out) == []

    def test_repeated_name_is_error_not_overwrite(self, tmp_path, capsys):
        d = tmp_path / "dup"
        d.mkdir()
        for fname, hi in (("a.json", 3), ("b.json", 5)):
            write_json(d / fname, {
                "name": "same",
                "pipeline": "bell",
                "inputs": {
                    "space": {"metric": {"type": "z_interval", "lo": 0, "hi": hi}},
                    "cover": {"pieces": [list(range(hi + 1))]},
                },
                "parameters": {"radii": [1.0]},
            })
        out = tmp_path / "out"
        assert main(["suite", str(d), "--out", str(out)]) == 1
        lines = capsys.readouterr().out
        assert "a.json: pass" in lines
        assert "b.json: ERROR" in lines
        assert "passed 1/2" in lines
        assert os.listdir(out) == ["same.certificate.json"]
        cert = read_certificate(str(out), "same")
        assert len(cert["partition"]["values"]) == 4


class TestCheckSpace:
    def test_summary_lines(self, tmp_path, capsys):
        path = write_json(tmp_path / "c12.json",
                          {"metric": {"type": "cycle", "n": 12}})
        assert main(["check-space", path]) == 0
        out = capsys.readouterr().out
        assert "points: 12" in out
        assert "diameter: 6" in out
        assert "uniform_discreteness: 1" in out

    def test_invalid_space_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "metric": {"type": "matrix", "rows": [[0.0, 1.0], [2.0, 0.0]]},
            "points": [0, 1],
        })
        assert main(["check-space", path]) == 2


class TestJsonRoundTrips:
    def test_witness_round_trip(self):
        space = cycle(7)
        w = uniform_ball_witness(space, 2)
        doc = witness_to_json(w)
        back = load_witness(doc, space)
        assert back.vectors == w.vectors

    def test_tagged_witness_round_trip(self):
        from coarse_lab import Witness
        space = cycle(3)
        w = Witness(space, {x: {("t%d" % x, x): 1.0} for x in space.point_ids})
        back = load_witness(witness_to_json(w), space)
        assert back.vectors == w.vectors

    def test_partition_document_is_deterministic(self):
        space = cycle(6)
        cover = Cover(space, (frozenset({0, 1, 2, 3}), frozenset({3, 4, 5, 0})))
        part = bell_partition(cover, require_lebesgue=False)
        s1 = dumps_deterministic(partition_to_json(part))
        s2 = dumps_deterministic(partition_to_json(part))
        assert s1 == s2
        assert "\n" not in s1.strip()

    def test_space_document_types(self):
        grid = load_space({"metric": {"type": "grid", "dims": [3, 3], "norm": "l1"}})
        assert len(grid) == 9
        ball = load_space({"metric": {"type": "z2_ball", "radius": 2, "norm": "linf"}})
        assert len(ball) == 25
