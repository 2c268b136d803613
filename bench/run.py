#!/usr/bin/env python3
"""Layered benchmark for coarse-lab: scenario file in, certificate out.

    python3 bench/run.py --workload pair-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It generates the workload's scenario files
from the seed under ``.bench_work/``, then calls ``coarse_lab.cli.run_scenario``
on them in a closed loop: one caller, one process, no threads, the next
scenario starting only after the previous certificate is written. It times
whole passes over the scenario set and stops at the pass boundary nearest to
``--seconds``, once the tail percentile has ten samples beyond it.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; its spans are
written to ``.bench_work/`` when the run ends. Either way the outputs are
checked (exit codes, verdicts, a seeded oracle sample) outside the timed
region, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. DESIGN.md says why each
workload exists and which end-to-end metric each layer metric should move.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

# Fixed per workload so that runs of a faster program report the same
# percentile; each needs a minimum sample count (see min_samples).
TAIL_PERCENTILE = {"pair-sweep": 80, "group-orbit": 75, "ingest-emit": 95}
PROFILES = {"ingest-emit": "csv"}
SETUP_REPEATS = 5
ORACLE_SAMPLE = 3
ORACLE_TOL = 1e-12
MAX_TIMED_S = 120.0

END_TO_END = (("setup_s", "s"), ("cert_p50_s", "s"), ("cert_tail_s", "s"),
              ("certs_per_s", "1/s"), ("peak_rss_mb", "MB"))

ENTRY_SELF = (
    "space.space_from_matrix", "space.space_from_graph", "space.check_coarse_map",
    "cover.lebesgue_report", "cover.enlarge", "cover.set_distance",
    "partition.bell_partition", "partition.partition_variation_profile",
    "witness.variation_profile", "witness.tail_profile",
    "construct.glue_with_report", "construct.subspace_construction",
    "construct.net_construction",
    "group.certify_quasi_action", "group.word_metric_space", "group.cyclic_group",
    "group.group_pipeline",
    "jsonio.load_space", "jsonio.dumps_deterministic",
    "cli.execute_scenario", "cli.run_scenario",
)

YIELDS = (("witness.pair_yield", "witness.pairs_useful", "witness.pairs_swept"),
          ("partition.pair_yield", "partition.pairs_useful", "partition.pairs_swept"),
          ("construct.glue_pair_yield", "construct.glue_pairs_shared", "construct.glue_pairs"))


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for m in tracer.LAYERS:
        out += [(m + ".self_s", "s"), (m + ".calls", "count"), (m + ".errors", "count")]
    out += [(name + ".self_s", "s") for name in ENTRY_SELF]
    out += [(name, "bytes" if name == "jsonio.cert_bytes" else "count")
            for name in tracer.COUNT_NAMES]
    out += [(name, "ratio") for name, _, _ in YIELDS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


# ------------------------------------------------------------------ helpers

def load_program():
    """Import coarse_lab from this checkout's src/ and the dense oracles from tests/."""
    src = os.path.join(ROOT, "src")
    tests = os.path.join(ROOT, "tests")
    for path in (os.path.join(src, "coarse_lab", "__init__.py"),
                 os.path.join(tests, "oracles.py")):
        if not os.path.isfile(path):
            raise SystemExit("bench: %s is missing; run from the root of a checkout"
                             % os.path.relpath(path, ROOT))
    sys.path[:0] = [src, tests]
    import coarse_lab
    if os.path.dirname(os.path.dirname(os.path.abspath(coarse_lab.__file__))) != src:
        raise SystemExit("bench: imported coarse_lab from %s, not from %s"
                         % (coarse_lab.__file__, src))


def min_samples(p):
    """Smallest sample count whose p-th percentile has ten samples beyond it."""
    n = 1
    while n - math.ceil(p * n / 100.0) < 10:
        n += 1
    return n


def percentile(samples, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    s = sorted(samples)
    k = max(math.ceil(p * len(s) / 100.0) - 1, 0)
    return s[k], len(s) - k - 1


def prepare(workload, seed, directory, scale="full"):
    """Generate and write the workload, then warm up on its smallest scenario."""
    import coarse_lab.cli as cli

    shutil.rmtree(directory, ignore_errors=True)
    scenarios = workloads.generate(workload, seed, scale)
    paths = workloads.write(scenarios, os.path.join(directory, "scenarios"))
    i = min(range(len(scenarios)), key=lambda i: (scenarios[i].size, scenarios[i].name))
    cli.run_scenario(paths[i], out_dir=os.path.join(directory, "warmup"),
                     profiles_fmt=PROFILES.get(workload), quiet=True)
    return scenarios, paths


def measure_setup(workload, seed):
    """Set-up times of fresh processes, each from spawn to ready."""
    samples = []
    for k in range(SETUP_REPEATS):
        directory = os.path.join(WORK, "%s-s%d-setup%d" % (workload, seed, k))
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-child", directory],
            capture_output=True, text=True, timeout=120)
        shutil.rmtree(directory, ignore_errors=True)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise SystemExit("bench: set-up process failed:\n%s%s" % (proc.stdout, proc.stderr))
        samples.append(float(lines[1]) - t0)
    return samples


class Ledger:
    """Attempted and failed scenario runs, with the reason for each failure."""

    def __init__(self, scenarios):
        self.expect = {sc.name: sc.expect_code for sc in scenarios}
        self.runs = {sc.name: 0 for sc in scenarios}
        self.bad_runs = {}
        self.bad_scenarios = {}

    def record(self, name, code):
        self.runs[name] += 1
        if code != self.expect[name]:
            self.bad_runs.setdefault(name, []).append(code)

    def condemn(self, name, reason):
        """A wrong certificate: every run of the scenario counts as failed."""
        self.bad_scenarios.setdefault(name, reason)

    @property
    def attempted(self):
        return sum(self.runs.values())

    @property
    def failed(self):
        return sum(self.runs[n] if n in self.bad_scenarios else len(self.bad_runs.get(n, ()))
                   for n in self.runs)

    def reasons(self):
        out = ["%s: exit %r, expected %d" % (n, codes[0], self.expect[n])
               for n, codes in sorted(self.bad_runs.items())]
        return out + ["%s: %s" % kv for kv in sorted(self.bad_scenarios.items())]


def run_pass(scenarios, paths, out_dir, profiles, ledger, samples, trace=None, tag=""):
    import coarse_lab.cli as cli

    for sc, path in zip(scenarios, paths):
        if trace is not None:
            trace.scenario = tag + sc.name
        t = time.perf_counter()
        try:
            code = cli.run_scenario(path, out_dir=out_dir, profiles_fmt=profiles, quiet=True)
        except Exception as exc:  # a raising run is a failed run; keep measuring
            code = "%s: %s" % (type(exc).__name__, exc)
        samples.append(time.perf_counter() - t)
        ledger.record(sc.name, code)


# -------------------------------------------------------- correctness gate

_TIMESTAMP = re.compile(rb'"inputs_timestamp": "[^"]*"(, )?')


def certificate_digest(out_dir):
    """SHA-256 over every output file, with inputs_timestamp cut out."""
    h = hashlib.sha256()
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            data = _TIMESTAMP.sub(b"", fh.read())
        h.update(fname.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class _CertPartition:
    """A partition of unity read back from a certificate, for the dense oracle."""

    def __init__(self, space, rows):
        from coarse_lab.jsonio import norm_id

        self.space = space
        self._values = {(r["piece"], norm_id(r["point"])): r["value"] for r in rows}
        pieces = 1 + max((r["piece"] for r in rows), default=-1)
        self.cover = types.SimpleNamespace(pieces=range(pieces))

    def value(self, i, x):
        return self._values.get((i, x), 0.0)


def _input(doc, base_dir, key):
    value = doc["inputs"][key]
    if isinstance(value, str):
        with open(os.path.join(base_dir, value), encoding="utf-8") as fh:
            return json.load(fh)
    return value


def oracle_mismatches(sc, path, cert):
    """Compare a certificate's profile numbers with the dense oracles."""
    import coarse_lab.cli as cli
    from coarse_lab.group import word_metric_space
    from coarse_lab.jsonio import load_group, load_space
    from oracles import dense_partition_variation, dense_tail, dense_variation

    base_dir = os.path.dirname(path)
    _, out = cli.execute_scenario(sc.doc, base_dir)
    params = sc.doc.get("parameters", {})
    checks = []
    observed = cert["observed"]
    if observed["variation_at_R"] is not None:
        checks.append(("variation_at_R", observed["variation_at_R"],
                       dense_variation(out.witness, float(params["R"]))))
    if observed["tail_at_S0"] is not None:
        checks.append(("tail_at_S0", observed["tail_at_S0"],
                       dense_tail(out.witness, float(params["S0"]))))
    pipeline = sc.doc["pipeline"]
    if pipeline in ("bell", "separated", "group-pipeline"):
        if pipeline == "group-pipeline":
            space = word_metric_space(load_group(_input(sc.doc, base_dir, "group")))
        else:
            space = load_space(_input(sc.doc, base_dir, "space"))
        part = _CertPartition(space, cert["partition"]["values"])
        if pipeline == "bell":
            for r, v in cert["details"]["partition_variation"]:
                checks.append(("partition_variation_R=%g" % r, v,
                               dense_partition_variation(part, r)))
        else:
            rec_name = "separated_variation_at_R" if pipeline == "separated" \
                else "group_epsilon_chain"
            rec = next(r for r in cert["checked_inequalities"] if r["name"] == rec_name)
            checks.append((rec_name, rec["lhs"], dense_partition_variation(part, float(params["R"]))))
    bad = ["%s: certificate %r, dense oracle %r" % (what, got, want)
           for what, got, want in checks if not abs(got - want) <= ORACLE_TOL]
    return len(checks), bad


def check_outputs(scenarios, paths, out_dir, seed, ledger):
    """Verdicts of every certificate plus a seeded oracle sample; returns the digest."""
    certs = {}
    for sc in scenarios:
        try:
            with open(os.path.join(out_dir, sc.name + ".certificate.json"), encoding="utf-8") as fh:
                certs[sc.name] = json.load(fh)
        except (OSError, ValueError) as exc:
            ledger.condemn(sc.name, "no readable certificate: %s" % exc)
            continue
        if certs[sc.name]["pass"] is not sc.expect_pass:
            ledger.condemn(sc.name, "verdict pass=%r, expected %r"
                           % (certs[sc.name]["pass"], sc.expect_pass))
    eligible = [i for i, sc in enumerate(scenarios) if sc.name in certs and (
        {"R", "S0"} & set(sc.doc.get("parameters", {}))
        or sc.doc["pipeline"] in ("bell", "separated", "group-pipeline"))]
    rng = np.random.default_rng([seed, 7])
    picked = sorted(rng.choice(eligible, size=min(ORACLE_SAMPLE, len(eligible)),
                               replace=False).tolist()) if eligible else []
    report = []
    for i in picked:
        sc = scenarios[i]
        try:
            n, bad = oracle_mismatches(sc, paths[i], certs[sc.name])
        except Exception as exc:  # an oracle re-run that raises is a wrong certificate
            n, bad = 0, ["oracle re-run raised %s: %s" % (type(exc).__name__, exc)]
        report.append("%s (%d values)" % (sc.name, n))
        for reason in bad:
            ledger.condemn(sc.name, reason)
    return certificate_digest(out_dir), report


# --------------------------------------------------------------- provenance

def provenance(workload, seed, seconds, trace, scenarios):
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_hash = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "coarse_lab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src_hash.update(fname.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 caller, 1 process, no threads",
        "scenarios": len(scenarios),
        "sizes": {sc.name: sc.size for sc in scenarios},
        "tail_percentile": TAIL_PERCENTILE[workload],
    }


# ---------------------------------------------------------------------- main

def timed_phase(args, scenarios, paths, out_dir, ledger):
    """Whole untraced passes; the call samples and each pass's wall time."""
    samples, pass_walls = [], []
    need = min_samples(TAIL_PERCENTILE[args.workload])
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        run_pass(scenarios, paths, out_dir, PROFILES.get(args.workload), ledger, samples)
        pass_walls.append(time.perf_counter() - t)
        # stop at the pass boundary nearest to --seconds
        projected = time.perf_counter() - start + statistics.median(pass_walls) / 2
        if projected >= MAX_TIMED_S or (projected >= args.seconds and len(samples) >= need):
            return samples, pass_walls


def traced_phase(args, scenarios, paths, out_dir, ledger, spans_path):
    """Alternate untraced and traced passes; per-layer values and a summary."""
    profiles = PROFILES.get(args.workload)
    tr = tracer.Tracer()
    untraced, traced, layers, entries, counts = [], [], [], [], None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        run_pass(scenarios, paths, out_dir, profiles, ledger, [])
        untraced.append(time.perf_counter() - t)
        first = len(tr.spans)
        tr.reset_counts()
        tr.install()
        try:
            t = time.perf_counter()
            run_pass(scenarios, paths, out_dir, profiles, ledger, [], trace=tr,
                     tag="p%d/" % len(traced))
            traced.append(time.perf_counter() - t)
        finally:
            tr.remove()
        layer, selfs = tracer.layer_summary(tr.span_dicts(first))
        layers.append(layer)
        entries.append(selfs)
        if counts is None:
            counts = dict(tr.counts)
        elif counts != dict(tr.counts):
            raise SystemExit("bench: counts differ between traced passes of one seed")
        pair = statistics.median(untraced) + statistics.median(traced)
        projected = time.perf_counter() - start + pair / 2
        if projected >= MAX_TIMED_S or projected >= args.seconds:
            break

    values = {}
    for m in tracer.LAYERS:
        values[m + ".self_s"] = statistics.median(p[m]["self_s"] for p in layers)
        values[m + ".calls"] = layers[0][m]["calls"]
        values[m + ".errors"] = layers[0][m]["errors"]
    for name in ENTRY_SELF:
        values[name + ".self_s"] = statistics.median(p.get(name, 0.0) for p in entries)
    for name in tracer.COUNT_NAMES:
        values[name] = counts.get(name, 0)
    for name, num, den in YIELDS:
        values[name] = values[num] / values[den] if values[den] else 0.0
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": list(tracer.SPAN_FIELDS), "spans": tr.span_dicts(),
                   "counts_per_pass": counts}, fh)
    total = sum(values[m + ".self_s"] for m in tracer.LAYERS)
    summary = {"traced_passes": len(traced), "untraced_passes": len(untraced),
               "spans": len(tr.spans),
               "shares": {m: values[m + ".self_s"] / total if total else 0.0
                          for m in tracer.LAYERS}}
    return values, summary


def setup_child(args):
    load_program()
    prepare(args.workload, args.seed, args.setup_child)
    print("ready %.9f" % time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child is not None:
        return setup_child(args)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    load_program()
    os.makedirs(WORK, exist_ok=True)

    setup = measure_setup(args.workload, args.seed)
    run_dir = os.path.join(WORK, "%s-s%d" % (args.workload, args.seed))
    scenarios, paths = prepare(args.workload, args.seed, run_dir)
    out_dir = os.path.join(run_dir, "certificates")
    ledger = Ledger(scenarios)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace, scenarios)
    print("bench: workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: " + json.dumps(prov, sort_keys=True))

    if args.trace:
        spans_path = os.path.join(WORK, "trace_%s_seed%d.json" % (args.workload, args.seed))
        values, summary = traced_phase(args, scenarios, paths, out_dir, ledger, spans_path)
        units = dict(per_layer_units())
        shares = sorted(summary["shares"].items(), key=lambda kv: -kv[1])
        info = ["traced passes: %d, untraced passes: %d, spans: %d -> %s"
                % (summary["traced_passes"], summary["untraced_passes"], summary["spans"],
                   os.path.relpath(spans_path, ROOT)),
                "layer share of traced self time: "
                + ", ".join("%s %.1f%%" % (m, 100 * s) for m, s in shares)]
    else:
        samples, pass_walls = timed_phase(args, scenarios, paths, out_dir, ledger)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p = TAIL_PERCENTILE[args.workload]
        tail, beyond = percentile(samples, p)
        values = {"setup_s": statistics.median(setup),
                  "cert_p50_s": statistics.median(samples),
                  "cert_tail_s": tail,
                  "certs_per_s": len(scenarios) / statistics.median(pass_walls),
                  "peak_rss_mb": rss_mb}
        units = dict(END_TO_END)
        info = ["setup_s: median of %d fresh processes (spawn to ready): %s"
                % (len(setup), " ".join("%.3f" % s for s in setup)),
                "cert_p50_s: median of %d samples" % len(samples),
                "cert_tail_s: p%d of %d samples, %d beyond it" % (p, len(samples), beyond),
                "certs_per_s: %d certificates per pass, median of %d pass times: %s"
                % (len(scenarios), len(pass_walls), " ".join("%.3f" % w for w in pass_walls))]

    digest, oracle_report = check_outputs(scenarios, paths, out_dir, args.seed, ledger)
    attempted, failed = ledger.attempted, ledger.failed
    for name, unit in units.items():
        print("%s %r %s" % (name, values[name], unit))
    if not args.trace:
        print("failed_frac %r ratio (%d of %d runs)" % (failed / attempted, failed, attempted))
    for line in info:
        print("  " + line)
    print("digest sha256:%s (%d scenarios, inputs_timestamp removed)" % (digest, len(scenarios)))
    print("oracle sample: " + (", ".join(oracle_report) or "none eligible"))
    for reason in ledger.reasons():
        print("FAILED " + reason)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    with open(os.path.join(WORK, "BENCH_%s_seed%d_trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, provenance=prov, digest=digest, failures=ledger.reasons(),
                       failed_frac=failed / attempted, notes=info), fh, indent=1, sort_keys=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
