"""Command line entry points: run a scenario, run a suite, check a space.

Exit codes: 0 all checked inequalities pass, 1 a certificate with a failed
inequality was written (the instance is falsified), 2 invalid input or violated
precondition, 3 a bug (a bound violation or any other exception, traced).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import traceback

import numpy as np

from . import __version__
from .construct import (GlueInput, _sample_grid, dirac_piece_family, fibering_pipeline,
                        glue_with_report, separated_cover_pipeline,
                        subspace_construction, net_construction)
from .cover import (_piece_distances, direct_limit_cover, enlarge, family_separation,
                    lebesgue_report, multiplicity, r_multiplicity)
from .errors import BoundViolationError, CoarseLabError, ValidationError
from .group import certify_quasi_action, group_pipeline
from .jsonio import (_as_jsonable, _check, _is_number, _need, _object, dumps_deterministic,
                     load_action_maps, load_chain, load_cover, load_group,
                     load_map_assignment, load_space, load_witness, norm_id,
                     parse_json, partition_to_json)
from .partition import (_bell_lipschitz_check, bell_lipschitz_constant, bell_partition,
                        partition_variation_profile)
from .report import InequalityRecord, all_passed, check_le, json_number
from .space import check_coarse_map
from .witness import dirac_witness, tail_profile, variation_profile

_CONSUME_EPSILON = {"separated", "group-pipeline"}
_NUMBERS = ("R", "S0", "epsilon", "delta", "L", "sigma", "c", "A_ceiling", "B_ceiling")
_GRIDS = ("radii", "tail_radii")
_PROFILED = " ?R ?S0 ?epsilon ?delta ?radii ?tail_radii"  # the witness profiles read these


def _load_json(path):
    """The JSON document in the file at ``path``, and the SHA-256 of its bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        digest, text = hashlib.sha256(data).digest(), data.decode("utf-8")
        del data  # not held while the document is parsed
        return parse_json(text, path), digest
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError("cannot parse %s: %s" % (path, exc)) from exc


def _check_keys(pipeline, what, given, spec):
    """``given`` holds every key of ``spec`` not marked optional ("?") and no other."""
    known = [key.lstrip("?") for key in spec.split()]
    for key in spec.split():
        if key[0] != "?" and key not in given:
            raise ValidationError("pipeline %r needs %s %r" % (pipeline, what, key))
    for key in given:
        if key not in known:
            raise ValidationError("pipeline %r reads no %s %r; it reads %s"
                                  % (pipeline, what, key, ", ".join(known)))


def _read_inputs(inputs, base_dir):
    """Each input document by key, and the SHA-256 of each input file in key order."""
    docs, digests = dict(inputs), []
    for key in sorted(inputs):
        if isinstance(inputs[key], str):
            docs[key], digest = _load_json(os.path.join(base_dir, inputs[key]))
            digests.append(digest)
        elif not isinstance(inputs[key], dict):
            raise ValidationError("input %r must be a path or an inline object" % (key,))
    return docs, digests


def _check_parameters(params):
    if not isinstance(params.get("require_lebesgue", True), bool):
        raise ValidationError("parameter 'require_lebesgue' must be true or false")
    for key in _NUMBERS + _GRIDS:
        if key in params:
            values = params[key] if key in _GRIDS else [params[key]]
            if not (isinstance(values, list) and all(_is_number(v) for v in values)):
                raise ValidationError("parameter %r must be %s" % (
                    key, "a list of numbers" if key in _GRIDS else "a number"))
            # false for NaN, the infinities and integers past the float range
            if not all(abs(v) <= sys.float_info.max for v in values):
                raise ValidationError("parameter %r must be finite, not NaN or infinite" % key)


def _grid(space, params, key, cap=12):
    if key in params:
        return sorted(float(v) for v in params[key])
    return _sample_grid(space, cap=cap)


def _piece_family(inputs):
    """The scenario's piece witnesses as a function of the cover they are glued
    over: one witness spec for every piece, or a "list" of one document each."""
    spec = inputs.get("pieces")
    if spec is None:
        return dirac_piece_family
    if "list" not in _object(spec, "input 'pieces'"):
        return lambda cover: tuple(load_witness(spec, cover.space.restrict(p))
                                   for p in cover.pieces)

    def listed(cover):
        docs = spec["list"]
        if not isinstance(docs, list) or len(docs) != len(cover.pieces):
            raise ValidationError("need one piece witness document per cover piece")
        family = []
        for i, doc in enumerate(docs):
            if not isinstance(doc, dict) or "vectors" not in doc:
                raise ValidationError("piece %d: explicit piece witnesses need vectors" % i)
            # restrict to the points the document mentions; the glue input
            # validation then reports any mismatch against the actual piece
            pts = [norm_id(_need(row, "point", "witness vector"))
                   for row in _need(doc, "vectors", "witness document", list)]
            family.append(load_witness(doc, cover.space.restrict(pts)))
        return tuple(family)
    return listed


class _RunOutput:
    def __init__(self, checked=(), info=(), witness=None, details=None,
                 truncation_flags=(), notes=(), partition_json=None):
        self.checked = list(checked)
        self.info = list(info)
        self.witness = witness
        self.details = details or {}
        self.truncation_flags = list(truncation_flags)
        self.notes = list(notes)
        self.partition_json = partition_json


def _run_verify_cover(inputs, params):
    space = load_space(inputs["space"])
    cov = load_cover(inputs["cover"], space)
    leb, failing = lebesgue_report(cov)
    notes = ["multiplicity %d" % multiplicity(cov), "lebesgue_number %g" % leb]
    if failing is not None:
        notes.append("smallest radius with an unfit ball: %g" % failing)
    checked = []
    if "L" in params:
        L = float(params["L"])
        kp1 = r_multiplicity(cov, L)
        if cov.coloring is not None:
            k = len(set(cov.coloring)) - 1
            min_sep = family_separation(cov, k)
            checked.append(InequalityRecord(
                "family_separation_exceeds_2L", 2.0 * L, min_sep, min_sep > 2.0 * L,
                note="strict inequality, vacuous when families are singletons"))
            checked.append(check_le("L_multiplicity_le_k_plus_1", kp1, k + 1))
        enl = enlarge(cov, L)
        checked.append(check_le("enlarged_multiplicity_le_L_multiplicity",
                                multiplicity(enl), kp1))
        checked.append(check_le("enlarged_lebesgue_ge_L", L, lebesgue_report(enl)[0]))
    return _RunOutput(checked=checked, notes=notes)


def _run_bell(inputs, params):
    space = load_space(inputs["space"])
    cov = load_cover(inputs["cover"], space)
    part = bell_partition(cov, require_lebesgue=params.get("require_lebesgue", True))
    checked = []
    notes = []
    leb = lebesgue_report(cov)[0]
    if leb > 0:
        C = bell_lipschitz_constant(cov)
        notes.append("certified Lipschitz constant %.17g" % C)
        rec = _bell_lipschitz_check(part, C)
        if rec is not None:
            checked.append(rec)
    else:
        notes.append("Lebesgue number 0: no Lipschitz certificate")
    var = partition_variation_profile(part, _grid(space, params, "radii"))
    out = _RunOutput(checked=checked, notes=notes,
                     partition_json=partition_to_json(part))
    out.details["partition_variation"] = [[r, v] for r, v, _ in var]
    return out


def _run_glue(inputs, params):
    space = load_space(inputs["space"])
    cov = load_cover(inputs["cover"], space)
    part = bell_partition(cov, require_lebesgue=params.get("require_lebesgue", True))
    pieces = _piece_family(inputs)(cov)
    res = glue_with_report(GlueInput(part, pieces), tail_radii=params.get("tail_radii"))
    return _RunOutput(checked=res.checks, witness=res.witness,
                      partition_json=partition_to_json(part))


def _run_subspace(inputs, params):
    space = load_space(inputs["space"])
    wit = load_witness(inputs["witness"], space)
    members = [norm_id(p) for p in _check(params["subspace"], list, "parameter 'subspace'")]
    if not members:
        raise ValidationError("parameter 'subspace' must not be empty")
    res = subspace_construction(wit, members, tail_radii=params.get("tail_radii"))
    details = {"retraction": [[_as_jsonable(s), _as_jsonable(p)]
                              for s, p in sorted(res.retraction.items(),
                                                 key=lambda kv: space.index(kv[0]))]}
    return _RunOutput(checked=res.checks, info=res.tail_checks,
                      witness=res.collapsed, details=details)


def _run_net(inputs, params):
    space = load_space(inputs["space"])
    members = [norm_id(p) for p in _check(params["net"], list, "parameter 'net'")]
    if not members:
        raise ValidationError("parameter 'net' must not be empty")
    net_space = space.restrict(members)
    wit = load_witness(inputs["witness"], net_space)
    res = net_construction(space, members, wit, c=params.get("c"),
                           radii=params.get("radii"),
                           tail_radii=params.get("tail_radii"))
    return _RunOutput(checked=res.checks, witness=res.witness,
                      details={"c": res.c})


def _run_direct_limit(inputs, params):
    chain = load_chain(inputs["chain"], load_space(inputs["space"]))
    L = float(params["L"])
    res = direct_limit_cover(chain, L)
    cov = res.cover
    # the pairs of pieces i, j >= i + 2
    far = np.triu(np.ones((len(cov.pieces),) * 2, dtype=bool), 2)
    mask = cov.mask.astype(np.float64)
    overlap = (mask @ mask.T)[far].max(initial=0.0)
    min_gap = _piece_distances(cov)[far].min(initial=float("inf"))
    checked = [
        check_le("cover_multiplicity_le_2", multiplicity(cov), 2),
        check_le("cover_lebesgue_ge_L", L, lebesgue_report(cov)[0]),
        check_le("nonadjacent_piece_overlap", float(overlap), 0.0),
    ]
    part = bell_partition(cov)
    glue_res = glue_with_report(GlueInput(part, dirac_piece_family(cov)),
                                tail_radii=params.get("tail_radii"))
    details = {"selected_stages": list(res.indices),
               "piece_count": len(cov.pieces),
               "nonadjacent_min_gap": json_number(min_gap)}
    return _RunOutput(checked=checked + list(glue_res.checks),
                      witness=glue_res.witness, details=details,
                      truncation_flags=res.truncation_flags)


def _run_fibering(inputs, params):
    source = load_space(inputs["space"])
    target = load_space(inputs["target_space"])
    img = load_map_assignment(inputs["map"], source, target)
    cov = load_cover(inputs["cover"], target)
    cert = check_coarse_map(source, target, img)
    part = bell_partition(cov, require_lebesgue=params.get("require_lebesgue", True))
    res = fibering_pipeline(cert, part, _piece_family(inputs),
                            radii=params.get("radii"),
                            tail_radii=params.get("tail_radii"))
    details = {"kept_pieces": list(res.kept_pieces),
               "modulus": [[r, v] for r, v in cert.modulus.samples()]}
    return _RunOutput(checked=res.checks, witness=res.witness, details=details)


def _run_separated(inputs, params):
    space = load_space(inputs["space"])
    cov = load_cover(inputs["cover"], space)
    res = separated_cover_pipeline(space, cov, params["L"], params["sigma"], params["R"],
                                   params["epsilon"], _piece_family(inputs),
                                   tail_radii=params.get("tail_radii"))
    details = {"k": res.k, "L": res.L}
    return _RunOutput(checked=res.checks, info=res.info, witness=res.witness,
                      details=details, partition_json=partition_to_json(res.partition))


def _run_group(inputs, params):
    grp = load_group(inputs["group"])
    space = load_space(inputs["space"])
    img = load_action_maps(inputs["action"], grp, space)
    cov = load_cover(inputs["cover"], space)
    action = certify_quasi_action(grp, space, img,
                                  A_ceiling=params.get("A_ceiling"),
                                  B_ceiling=params.get("B_ceiling"))
    spec = inputs.get("provider")
    provider = dirac_witness if spec is None else (lambda sp: load_witness(spec, sp))
    res = group_pipeline(action, norm_id(params["x0"]), cov, params["R"],
                         epsilon=params.get("epsilon"), provider=provider,
                         tail_radii=params.get("tail_radii"))
    details = {
        "A": action.A, "B": action.B, "lambda": res.lam,
        "T": res.T, "threshold": res.threshold, "epsilon": res.epsilon,
        "k": res.k, "L": res.L,
        "representatives": [_as_jsonable(g) for g in res.reps],
        "stabilizer_size": len(res.stabilizer.members),
        "kept_pieces": list(res.kept_pieces),
    }
    return _RunOutput(checked=list(res.checks) + list(action.checks), info=res.info,
                      witness=res.witness, details=details,
                      truncation_flags=res.truncation_flags,
                      partition_json=partition_to_json(res.partition))


_PIPELINES = {
    "verify-cover": _run_verify_cover,
    "bell": _run_bell,
    "glue": _run_glue,
    "subspace": _run_subspace,
    "net": _run_net,
    "direct-limit": _run_direct_limit,
    "fibering": _run_fibering,
    "separated": _run_separated,
    "group-pipeline": _run_group,
}

# The inputs and the parameters each pipeline reads, "?" marking optional ones;
# any other key is rejected, so a misspelling cannot silently turn a check off.
_READS = {
    "verify-cover": ("space cover", "?L"),
    "bell": ("space cover", "?require_lebesgue ?radii"),
    "glue": ("space cover ?pieces", "?require_lebesgue" + _PROFILED),
    "subspace": ("space witness", "subspace" + _PROFILED),
    "net": ("space witness", "net ?c" + _PROFILED),
    "direct-limit": ("space chain", "L" + _PROFILED),
    "fibering": ("space target_space map cover ?pieces", "?require_lebesgue" + _PROFILED),
    "separated": ("space cover ?pieces", "L sigma R epsilon ?S0 ?delta ?radii ?tail_radii"),
    "group-pipeline": ("group space action cover ?provider", "x0 R ?epsilon ?S0 ?delta "
                       "?radii ?tail_radii ?A_ceiling ?B_ceiling"),
}


def execute_scenario(scenario, base_dir):
    """Run a parsed scenario document; returns (certificate dict, output)."""
    _object(scenario, "a scenario")
    inputs = _object(scenario.get("inputs", {}), "scenario 'inputs'")
    pipeline = scenario.get("pipeline")
    if not isinstance(pipeline, str) or pipeline not in _PIPELINES:
        raise ValidationError("unknown pipeline %r; expected one of %s"
                              % (pipeline, ", ".join(sorted(_PIPELINES))))
    params = dict(_object(scenario.get("parameters", {}), "scenario 'parameters'"))
    _check_keys(pipeline, "field", scenario, "?name pipeline ?inputs ?parameters")
    _check_keys(pipeline, "input", inputs, _READS[pipeline][0])
    _check_keys(pipeline, "parameter", params, _READS[pipeline][1])
    _check_parameters(params)
    docs, digests = _read_inputs(inputs, base_dir)
    out = _PIPELINES[pipeline](docs, params)
    out.input_digests = digests  # for the certificate's inputs_sha256

    profiles = {"variation": [], "tail": []}
    observed = {"variation_at_R": None, "tail_at_S0": None}
    R = params.get("R")
    S0 = params.get("S0")
    if out.witness is not None:
        w = out.witness
        radii = _grid(w.space, params, "radii")
        tails = _grid(w.space, params, "tail_radii")
        # R and S0 ride along in the grid sweeps; the profiles list the grids only
        var = dict(variation_profile(w, radii + ([float(R)] if R is not None else [])))
        tail = dict(tail_profile(w, tails + ([float(S0)] if S0 is not None else [])))
        profiles["variation"] = [[r, var[r]] for r in radii]
        profiles["tail"] = [[s, tail[s]] for s in tails]
        if R is not None:
            observed["variation_at_R"] = var[float(R)]
            if "epsilon" in params and pipeline not in _CONSUME_EPSILON:
                out.checked.append(check_le("variation_at_R_le_epsilon",
                                            observed["variation_at_R"],
                                            float(params["epsilon"])))
        if S0 is not None:
            observed["tail_at_S0"] = tail[float(S0)]
            if "delta" in params:
                out.checked.append(check_le("tail_at_S0_le_delta",
                                            observed["tail_at_S0"],
                                            float(params["delta"])))

    epsilon = out.details.get("epsilon", params.get("epsilon"))
    certificate = {
        "scenario": scenario.get("name", "unnamed"),
        "pipeline": pipeline,
        "pass": all_passed(out.checked),
        "R": float(R) if R is not None else None,
        "epsilon": float(epsilon) if epsilon is not None else None,
        "S0": float(S0) if S0 is not None else None,
        "delta": float(params["delta"]) if "delta" in params else None,
        "observed": observed,
        "checked_inequalities": [r.as_dict() for r in out.checked],
        "info_inequalities": [r.as_dict() for r in out.info],
        "profiles": profiles,
        "truncation_flags": list(out.truncation_flags),
        "notes": list(out.notes),
        "details": out.details,
    }
    if out.partition_json is not None:
        certificate["partition"] = out.partition_json
    return certificate, out


def _check_profile_format(fmt):
    if fmt != "csv":
        raise ValidationError("unsupported profile format %r" % (fmt,))


def export_profiles(certificate, fmt, out_dir, base_name):
    _check_profile_format(fmt)
    paths = []
    for kind, header in (("variation", "R,variation"), ("tail", "S,tail")):
        path = os.path.join(out_dir, "%s.%s.csv" % (base_name, kind))
        rows = certificate["profiles"][kind]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for r, v in rows:
                fh.write("%.17g,%.17g\n" % (r, v))
        paths.append(path)
    return paths


def _output_name(name):
    """The scenario name as a file name stem inside the output directory."""
    name = str(name)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValidationError("scenario name %r is not a plain file name" % (name,))
    return name


def run_scenario(path, out_dir=".", profiles_fmt=None, quiet=False, written=None):
    """Run one scenario file; ``written`` holds the names this run already wrote."""
    if profiles_fmt is not None:
        _check_profile_format(profiles_fmt)
    scenario, scenario_digest = _load_json(path)
    _object(scenario, "scenario %s" % (path,))
    name = _output_name(scenario.get("name", "unnamed"))
    if written is not None and name in written:
        raise ValidationError("scenario name %r was already written in this run" % (name,))
    base_dir = os.path.dirname(os.path.abspath(path))
    certificate, out = execute_scenario(scenario, base_dir)
    # the inputs' content, not a clock: a re-run reproduces the certificate
    parts = [__version__.encode(), b"\0", scenario_digest] + out.input_digests
    certificate["inputs_sha256"] = hashlib.sha256(b"".join(parts)).hexdigest()
    text = dumps_deterministic(certificate) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    cert_path = os.path.join(out_dir, "%s.certificate.json" % name)
    with open(cert_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if written is not None:
        written.add(name)
    if profiles_fmt is not None:
        export_profiles(certificate, profiles_fmt, out_dir, name)
    if not quiet:
        for rec in out.checked:
            at = "" if rec.passed or rec.witness is None else " at %r" % (rec.witness,)
            print("[%s] %s: %.17g <= %.17g%s"
                  % ("PASS" if rec.passed else "FAIL", rec.name, rec.lhs, rec.rhs, at))
        print("%s: %s -> %s"
              % (name, "pass" if certificate["pass"] else "FALSIFIED", cert_path))
    return 0 if certificate["pass"] else 1


def run_suite(directory, out_dir=".", quiet=False):
    try:
        files = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    except OSError as exc:
        raise ValidationError("cannot list %s: %s" % (directory, exc)) from exc
    codes = {}
    errors = {}
    written = set()
    for fname in files:
        try:
            codes[fname] = run_scenario(os.path.join(directory, fname),
                                        out_dir=out_dir, quiet=True, written=written)
        except BoundViolationError:
            raise
        except CoarseLabError as exc:
            errors[fname] = str(exc)
            codes[fname] = 2
    n_pass = sum(1 for c in codes.values() if c == 0)
    for fname in files:
        line = "%s: %s" % (fname, {0: "pass", 1: "FALSIFIED", 2: "ERROR"}[codes[fname]])
        if fname in errors:
            line += " (%s)" % errors[fname]
        print(line)
    print("passed %d/%d" % (n_pass, len(files)))
    return 0 if n_pass == len(files) else 1


def check_space(path):
    space = load_space(_load_json(path)[0])
    print("points: %d" % len(space))
    print("diameter: %.17g" % space.diameter)
    print("uniform_discreteness: %.17g" % space.uniform_discreteness)
    for r in (1.0, 2.0):
        print("bounded_geometry_N_%g: %d" % (r, space.bounded_geometry(r)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coarse-lab",
        description="Finite-scale embeddability workbench: run scenario "
                    "pipelines and emit inequality certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--profiles", default=None, help="also export profiles (csv)")
    p_suite = sub.add_parser("suite", help="run every scenario in a directory")
    p_suite.add_argument("directory")
    p_suite.add_argument("--out", default=".", help="output directory")
    p_check = sub.add_parser("check-space", help="validate a space document")
    p_check.add_argument("space")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.scenario, out_dir=args.out,
                                profiles_fmt=args.profiles)
        if args.command == "suite":
            return run_suite(args.directory, out_dir=args.out)
        return check_space(args.space)
    except Exception as exc:
        if isinstance(exc, CoarseLabError) and not isinstance(exc, BoundViolationError):
            print("error: %s" % exc, file=sys.stderr)
            return 2
        traceback.print_exc()  # a bug: neither bad input nor a falsified instance
        return 3


if __name__ == "__main__":
    sys.exit(main())
