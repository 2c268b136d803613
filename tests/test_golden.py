"""Byte-for-byte regression gate: every scenario's certificate must match the
committed golden copy in tests/golden/, whole file.

The goldens were written by ``coarse-lab suite scenarios --out tests/golden``.
Their ``inputs_sha256`` covers the bytes of the scenario and input files, so
those are compared too.
"""

import os

import pytest

from coarse_lab.cli import run_scenario
from conftest import SCENARIO_DIR

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_SCENARIOS = sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".json"))


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
    assert got == want
