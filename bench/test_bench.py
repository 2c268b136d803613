"""Self-test of the benchmark at tiny sizes, so the harness cannot rot.

    python3 -m pytest -q bench/

Each workload is generated at tiny size and run through one untraced and
one traced pass, with the same correctness gate as a full run.
"""

import argparse
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.load_program()

import coarse_lab.cli as cli  # noqa: E402


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_script_reports():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_seeded(workload):
    docs = [sc.doc for sc in workloads.generate(workload, 3, "tiny")]
    assert docs == [sc.doc for sc in workloads.generate(workload, 3, "tiny")]
    assert docs != [sc.doc for sc in workloads.generate(workload, 4, "tiny")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_traced_pass(workload, tmp_path):
    original = cli.run_scenario
    scenarios, paths = run.prepare(workload, 3, str(tmp_path / "work"), scale="tiny")
    ledger = run.Ledger(scenarios)
    out_dir = str(tmp_path / "certificates")
    args = argparse.Namespace(workload=workload, seed=3, seconds=1)
    spans_path = str(tmp_path / "spans.json")

    values, summary = run.traced_phase(args, scenarios, paths, out_dir, ledger, spans_path)

    assert cli.run_scenario is original
    assert sorted(values) == sorted(name for name, _ in run.per_layer_units())
    assert values["cli.calls"] >= 2 * len(scenarios)
    assert values["witness.pairs_useful"] <= values["witness.pairs_swept"]
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {"cli.run_scenario"}
    assert len(roots) == len(scenarios) * summary["traced_passes"]
    assert all(s["end"] >= s["start"] for s in spans)

    digest, report = run.check_outputs(scenarios, paths, out_dir, 3, ledger)
    assert ledger.failed == 0, ledger.reasons()
    assert ledger.attempted == 2 * len(scenarios) * summary["traced_passes"]
    assert report
    # a further pass rewrites every certificate byte for byte, timestamps aside
    run.run_pass(scenarios, paths, out_dir, run.PROFILES.get(workload), ledger, [])
    assert run.certificate_digest(out_dir) == digest


def test_entry_points_cover_the_named_self_times():
    names = {"%s.%s" % (m, n) for m, n, _ in tracer.entry_points()}
    assert set(run.ENTRY_SELF) <= names
    assert {name.split(".")[0] for name in names} == set(tracer.LAYERS)
