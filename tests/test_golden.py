"""Byte-for-byte regression gate: every scenario's certificate must match the
committed golden copy in tests/golden/.

The goldens were written by ``coarse-lab suite scenarios --out tests/golden``.
Only ``inputs_timestamp`` (the scenario file's mtime, which a checkout does
not preserve) is removed from both sides before comparing.
"""

import os
import re

import pytest

from coarse_lab.cli import run_scenario
from conftest import SCENARIO_DIR

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_TIMESTAMP = re.compile(rb'"inputs_timestamp": "[^"]*", ')

_SCENARIOS = sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".json"))


def _strip(raw):
    stripped, count = _TIMESTAMP.subn(b"", raw)
    assert count == 1
    return stripped


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
    assert _strip(got) == _strip(want)
