"""Command-line driver: scenario runs, exit codes, certificates on disk,
profile export, suite aggregation, and JSON round-trips."""

import json
import os

import pytest

from coarse_lab import (
    Cover,
    all_passed,
    bell_partition,
    certify_quasi_action,
    check_coarse_map,
    cycle,
    dumps_deterministic,
    fibering_pipeline,
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
    witness_to_json,
)
from coarse_lab.cli import export_profiles, main
from conftest import SCENARIO_DIR


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def read_certificate(out_dir, name):
    with open(os.path.join(out_dir, name + ".certificate.json")) as fh:
        return json.load(fh)


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
        scen["space"] = {"metric": {"type": "cycle", "n": 12}}
        scen["parameters"]["epsilon"] = 20.0
        path = write_json(tmp_path / "small_eps.json", scen)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_pipeline(self, tmp_path, capsys):
        scen = write_json(tmp_path / "x.json", {"name": "x", "pipeline": "nope"})
        assert main(["run", scen, "--out", str(tmp_path)]) == 2
        assert "unknown pipeline" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json_reports_path(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "broken.json" in capsys.readouterr().err


    def test_serialization_error_writes_no_certificate(self, tmp_path, capsys):
        scen = write_json(tmp_path / "e.json", {
            "name": "e",
            "pipeline": "subspace",
            "inputs": {
                "space": {"metric": {"type": "z_interval", "lo": 0, "hi": 4}},
                "witness": {"builtin": "uniform_ball", "radius": 1},
            },
            "parameters": {"subspace": [0, 2, 4], "radii": [1], "epsilon": float("nan")},
        })
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 2
        assert "NaN" in capsys.readouterr().err
        assert not (out / "e.certificate.json").exists()

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
