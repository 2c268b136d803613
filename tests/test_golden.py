"""Byte-for-byte regression gate: every scenario's certificate must match the
committed golden copy in tests/golden/, whole file.

The goldens were written by ``coarse-lab suite scenarios --out tests/golden``.
Their ``inputs_sha256`` covers the bytes of the scenario and input files, so
those are compared too.
"""

import json
import os

import pytest

from coarse_lab.cli import run_scenario
from conftest import SCENARIO_DIR

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_SCENARIOS = sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".json"))


def first_difference(got, want, path="$"):
    """(JSON path, got value, want value) at the first place, in document
    order, where two parsed documents differ; None if they are equal. A key or
    list item one side lacks reads as the string "<missing>"."""
    if isinstance(got, dict) and isinstance(want, dict):
        keys = list(want) + [k for k in got if k not in want]
        items = [(k, got.get(k, "<missing>"), want.get(k, "<missing>")) for k in keys]
        step = "%s.%s"
    elif isinstance(got, list) and isinstance(want, list):
        items = [(i, got[i] if i < len(got) else "<missing>",
                  want[i] if i < len(want) else "<missing>")
                 for i in range(max(len(got), len(want)))]
        step = "%s[%d]"
    else:
        same = type(got) is type(want) and got == want
        return None if same else (path, got, want)
    for k, g, w in items:
        found = first_difference(g, w, step % (path, k))
        if found:
            return found
    return None


def describe_difference(got, want):
    """The failure message of a golden comparison: the first differing JSON
    path and both values, or that only the formatting differs."""
    found = first_difference(json.loads(got), json.loads(want))
    if found is None:
        return "certificate bytes differ, but they parse to the same JSON"
    return "first difference at %s: got %r, golden has %r" % found


def test_first_difference_names_path_and_values():
    want = {"checks": [{"lhs": 1.0, "name": "a"}, {"lhs": 2.0, "name": "b"}], "verdict": "PASS"}
    got = json.loads(json.dumps(want))
    got["checks"][1]["lhs"] = 2.0000000000000004
    assert first_difference(got, want) == ("$.checks[1].lhs", 2.0000000000000004, 2.0)
    assert first_difference(want, want) is None
    assert first_difference({"a": [1]}, {"a": [1, 2]}) == ("$.a[1]", "<missing>", 2)
    assert first_difference({"a": 1}, {"a": 1.0}) == ("$.a", 1, 1.0)
    assert describe_difference(json.dumps(got), json.dumps(want)) == \
        "first difference at $.checks[1].lhs: got 2.0000000000000004, golden has 2.0"
    assert describe_difference('{"a": 1}', '{"a":1}') == \
        "certificate bytes differ, but they parse to the same JSON"


def test_every_scenario_has_a_golden():
    goldens = sorted(f for f in os.listdir(GOLDEN_DIR) if f.endswith(".certificate.json"))
    assert goldens == sorted(f[:-len(".json")] + ".certificate.json" for f in _SCENARIOS)


@pytest.mark.parametrize("fname", _SCENARIOS)
def test_certificate_matches_golden(fname, tmp_path):
    run_scenario(os.path.join(SCENARIO_DIR, fname), out_dir=str(tmp_path), quiet=True)
    cert_name = fname[:-len(".json")] + ".certificate.json"
    with open(tmp_path / cert_name, "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN_DIR, cert_name), "rb") as fh:
        want = fh.read()
    assert got == want, describe_difference(got, want)
