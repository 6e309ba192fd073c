"""Command-line front end.

Commands: ``t1``, ``rigidity``, ``localcoh``, ``cy``, ``check-fan``.  Fans
are JSON files with 0-based ray indices; human-readable output uses 1-based
variable names.  Reports render as text or as canonical JSON (sorted keys),
so identical inputs produce byte-identical reports.

Exit codes: 0 success, 1 input error, 2 unsupported input or hypothesis
failure, 3 no rigidity certificate, 4 internal oracle mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .localcoh import cech_piece, h2_via_graph, local_coh_piece, negative
from .rigidity import (
    RigidityCertificate,
    Verdict,
    der_vanishing_gamma,
    fano_rigidity,
    qgorenstein_rigidity,
    quotient_rigidity,
    wps_rigidity,
)
from .t1 import (
    T1Report,
    UnsupportedModeError,
    cox_polynomial,
    cy_t1,
    t1_affine,
    t1_polygon,
)
from .toric import (
    Fan,
    FanValidationError,
    TorusFactorError,
    WeightSystem,
    _is_hull_face_fan,
    class_group,
    graph_gamma,
    irrelevant_ideal,
    is_complete,
    is_simplicial,
    is_smooth,
    simplicial_codim,
    singular_codim,
    validate_fan,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_RIGID = 3
EXIT_ORACLE_MISMATCH = 4


class InputError(Exception):
    pass


def _read_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top-level JSON object expected")
    return data, digest


def _is_int(x) -> bool:
    """A JSON integer; true and false parse as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_fan(path: str) -> tuple[Fan, str]:
    """Parse the fan file format {"rays": [[int,..],..], "max_cones": [[idx,..],..]}."""
    data, digest = _read_json(path)
    for key in ("rays", "max_cones"):
        if key not in data:
            raise InputError(f"{path}: missing field {key!r}")
    rays = data["rays"]
    cones = data["max_cones"]
    if not isinstance(rays, list) or not all(
        isinstance(r, list) and all(_is_int(x) for x in r) for r in rays
    ):
        raise InputError(f"{path}: field 'rays' must be a list of integer vectors")
    if not isinstance(cones, list) or not all(
        isinstance(c, list) and all(_is_int(i) for i in c) for c in cones
    ):
        raise InputError(f"{path}: field 'max_cones' must be a list of index lists")
    try:
        fan = validate_fan(
            [tuple(r) for r in rays],
            [tuple(c) for c in cones],
            name=str(data.get("name", "")),
        )
    except FanValidationError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return fan, digest


def load_polynomial(path: str, fan: Fan):
    """Parse {"terms": [{"coeff": "p/q", "exp": [int,..]}, ...]}."""
    data, digest = _read_json(path)
    if "terms" not in data or not isinstance(data["terms"], list) or not data["terms"]:
        raise InputError(f"{path}: field 'terms' must be a nonempty list")
    terms = []
    for k, term in enumerate(data["terms"]):
        if not isinstance(term, dict) or "coeff" not in term or "exp" not in term:
            raise InputError(f"{path}: term {k} needs 'coeff' and 'exp'")
        text = str(term["coeff"])
        try:
            # int parses the integers Fraction accepts to the same values, faster
            coeff = int(text)
        except ValueError:
            try:
                coeff = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"{path}: term {k} has bad coefficient {term['coeff']!r}") from exc
        exp = term["exp"]
        if not isinstance(exp, list) or not all(map(_is_int, exp)) or (exp and min(exp) < 0):
            raise InputError(f"{path}: term {k} has a bad exponent vector")
        terms.append((coeff, tuple(exp)))
    try:
        poly = cox_polynomial(fan, terms)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return poly, digest


def _resolve_bound(args) -> int:
    """The gamma criterion's search bound from --bound, else TORRIGID_BOUND,
    else 8; a bound below 1 is an input error.  ``cmd_rigidity`` reads it
    only when the gamma criterion runs, and checks an explicit --bound
    first whatever runs."""
    if args.bound is not None:
        bound, source = args.bound, "--bound"
    else:
        env = os.environ.get("TORRIGID_BOUND")
        if env is None:
            return 8
        try:
            bound, source = int(env), "TORRIGID_BOUND"
        except ValueError as exc:
            raise InputError(f"TORRIGID_BOUND={env!r} is not an integer") from exc
    if bound < 1:
        raise InputError(f"{source} must be at least 1, got {bound}")
    return bound


def _one_based(indices) -> list[int]:
    return [i + 1 for i in sorted(indices)]


def _hypotheses_payload(hyps) -> list[dict]:
    return [
        {"name": h.name, "status": h.status, "detail": h.detail} for h in hyps
    ]


def _certificate_payload(cert: RigidityCertificate) -> dict:
    return {
        "criterion": cert.criterion,
        "verdict": cert.verdict.value,
        "hypotheses": _hypotheses_payload(cert.hypotheses),
        "search_bound": cert.search_bound,
        "reason": cert.reason,
    }


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"torrigid {report['command']}"]
    if report.get("name"):
        lines.append(f"input: {report['name']}")
    lines.append(f"digest: {report['input_digest'][:16]}")
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    lines.extend(_render_body(report))
    return "\n".join(lines) + "\n"


def _render_body(report: dict) -> list[str]:
    lines = []
    for key in sorted(report):
        if key in ("command", "name", "input_digest", "warnings", "hypotheses", "certificates"):
            continue
        lines.append(f"{key}: {report[key]}")
    for h in report.get("hypotheses", []):
        lines.append(f"  [{h['status']:>9}] {h['name']}  {h['detail']}")
    for cert in report.get("certificates", []):
        lines.append(f"criterion {cert['criterion']}: {cert['verdict']}")
        for h in cert["hypotheses"]:
            lines.append(f"  [{h['status']:>9}] {h['name']}  {h['detail']}")
    return lines


def _base_report(command: str, digest: str, fan_name: str = "", warnings=()) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "name": fan_name,
        "warnings": list(warnings),
    }


def _t1_payload(report: T1Report) -> dict:
    payload = {
        "mode": report.mode,
        "hypotheses": _hypotheses_payload(report.hypotheses),
        "completeness": report.completeness.value,
    }
    if report.witness_face is not None:
        face, total = report.witness_face
        payload.update(total="infinite", witness_face={"rays": _one_based(face), "t1": total})
        return payload
    payload.update(
        {
            "der_dimension": report.der_dimension,
            "der_completeness": "guaranteed",
            "homq_dimension": report.homq_dimension,
            "homq_completeness": "guaranteed",
            "total": report.total,
            "contributing_degrees": [
                {"fine_degree": list(c.fine_degree), "dimension": c.dimension}
                for c in report.contributions
            ],
        }
    )
    return payload


def cmd_t1(args) -> int:
    if args.polygon:
        data, digest = _read_json(args.fanfile)
        if "vertices" not in data:
            raise InputError(f"{args.fanfile}: polygon file needs a 'vertices' field")
        vertices = data["vertices"]
        if not isinstance(vertices, list) or not all(
            isinstance(v, list) and len(v) == 2 and all(_is_int(x) for x in v)
            for v in vertices
        ):
            raise InputError(f"{args.fanfile}: field 'vertices' must be a list of integer pairs")
        try:
            poly = t1_polygon([tuple(v) for v in vertices])
        except UnsupportedModeError as exc:
            report = _base_report("t1", digest, str(data.get("name", "")))
            report.update({"mode": "unsupported", "error": str(exc)})
            sys.stdout.write(render(report, args.format))
            return EXIT_UNSUPPORTED
        report = _base_report("t1", digest, str(data.get("name", "")))
        report.update(
            {
                "mode": "polygon",
                "total": poly.dimension,
                "vertex_count": poly.vertex_count,
                "minor_condition": poly.minor_condition,
                "completeness": "guaranteed",
            }
        )
        sys.stdout.write(render(report, args.format))
        return EXIT_OK
    fan, digest = load_fan(args.fanfile)
    if len(fan.max_cones) != 1:
        raise InputError(
            "t1 expects an affine input: a fan file with exactly one maximal cone"
        )
    cone = fan.cone(fan.max_cones[0])
    try:
        t1 = t1_affine(cone)
    except (ValueError, UnsupportedModeError) as exc:
        raise InputError(str(exc)) from exc
    report = _base_report("t1", digest, fan.name, fan.warnings)
    report.update(_t1_payload(t1))
    sys.stdout.write(render(report, args.format))
    return EXIT_OK


_CONE_CRITERIA = ("qgorenstein", "quotient", "gamma")


def cmd_rigidity(args) -> int:
    if (args.wps is None) == (args.fanfile is None):
        raise InputError("provide exactly one of a fan file or --wps weights")
    if args.bound is not None:
        _resolve_bound(args)  # an explicit bound below 1 is an error whatever runs
    certificates: list[RigidityCertificate] = []
    if args.wps is not None:
        try:
            weights = tuple(int(x) for x in args.wps.split(","))
            system = WeightSystem(weights)
        except ValueError as exc:
            raise InputError(f"bad weight system {args.wps!r}: {exc}") from exc
        if args.criterion not in ("all", "wps"):
            raise InputError("weight-system input supports only the wps criterion")
        certificates.append(wps_rigidity(system))
        digest = hashlib.sha256(args.wps.encode()).hexdigest()
        name = f"P({args.wps})"
        warnings = ()
    else:
        fan, digest = load_fan(args.fanfile)
        name, warnings = fan.name, fan.warnings
        affine = len(fan.max_cones) == 1
        wanted = (
            list(_CONE_CRITERIA) if affine else ["fano"]
        ) if args.criterion == "all" else [args.criterion]
        for crit in wanted:
            if crit in _CONE_CRITERIA:
                if not affine:
                    raise InputError(f"criterion {crit} needs a single-cone fan")
                cone = fan.cone(fan.max_cones[0])
                if crit == "qgorenstein":
                    certificates.append(qgorenstein_rigidity(cone))
                elif crit == "quotient":
                    certificates.append(quotient_rigidity(cone))
                else:
                    certificates.append(der_vanishing_gamma(cone, search_bound=_resolve_bound(args)))
            elif crit == "fano":
                certificates.append(fano_rigidity(fan))
            elif crit == "wps":
                raise InputError("criterion wps needs --wps weights")
            else:
                raise InputError(f"unknown criterion {crit!r}")
    report = _base_report("rigidity", digest, name, warnings)
    report["certificates"] = [_certificate_payload(c) for c in certificates]
    rigid = any(c.verdict is Verdict.RIGID for c in certificates)
    report["rigid"] = rigid
    sys.stdout.write(render(report, args.format))
    return EXIT_OK if rigid else EXIT_NOT_RIGID


def cmd_localcoh(args) -> int:
    fan, digest = load_fan(args.fanfile)
    try:
        p = tuple(int(x) for x in args.p.split(","))
    except ValueError as exc:
        raise InputError(f"bad degree vector {args.p!r}") from exc
    if len(p) != fan.num_rays:
        raise InputError(
            f"degree vector has length {len(p)}, fan has {fan.num_rays} rays"
        )
    ideal = irrelevant_ideal(fan)
    piece = local_coh_piece(ideal, args.i, p)
    pattern = negative(p)
    report = _base_report("localcoh", digest, fan.name, fan.warnings)
    report.update(
        {
            "i": args.i,
            "p": list(p),
            "negative_pattern": _one_based(pattern),
            "ideal_generators": [
                _one_based(g) for g in ideal.generators
            ],
            "dimension": piece.dimension,
            "t_complex_facets": [sorted(x + 1 for x in f) for f in piece.complex.facets],
        }
    )
    if args.i == 2:
        comps = graph_gamma(fan).induced(pattern).connected_components()
        report["gamma_components"] = [_one_based(c) for c in comps]
        report["h2_via_graph"] = h2_via_graph(fan, p)
    if args.oracle:
        oracle = cech_piece(ideal, args.i, p)
        report["cech_dimension"] = oracle
        report["oracle_agrees"] = oracle == piece.dimension
        if oracle != piece.dimension:
            sys.stdout.write(render(report, args.format))
            return EXIT_ORACLE_MISMATCH
    sys.stdout.write(render(report, args.format))
    return EXIT_OK


def cmd_cy(args) -> int:
    fan, fan_digest = load_fan(args.fanfile)
    poly, poly_digest = load_polynomial(args.polyfile, fan)
    result = cy_t1(fan, poly)
    digest = hashlib.sha256((fan_digest + poly_digest).encode()).hexdigest()
    report = _base_report("cy", digest, fan.name, fan.warnings)
    report["hypotheses"] = _hypotheses_payload(result.hypotheses)
    report["hypotheses_ok"] = result.hypotheses_ok
    if result.dimension is not None:
        report.update(
            {
                "dimension": result.dimension,
                "monomial_count": result.monomial_count,
                "jacobian_rank": result.jacobian_rank,
            }
        )
    sys.stdout.write(render(report, args.format))
    return EXIT_OK if result.hypotheses_ok else EXIT_UNSUPPORTED


def cmd_check_fan(args) -> int:
    fan, digest = load_fan(args.fanfile)
    report = _base_report("check-fan", digest, fan.name, fan.warnings)
    cones_payload = []
    for idx in fan.max_cones:
        cone = fan.cone(idx)
        cones_payload.append(
            {
                "rays": _one_based(idx),
                "dim": cone.dim,
                "smooth": is_smooth(cone),
                "simplicial": is_simplicial(cone),
            }
        )
    complete = is_complete(fan)
    report.update(
        {
            "rays": [list(r) for r in fan.rays],
            "ambient_rank": fan.ambient_rank,
            "max_cones": cones_payload,
            "singular_codim": str(singular_codim(fan)),
            "simplicial_codim": str(simplicial_codim(fan)),
            "complete": complete,
            "fano": complete and _is_hull_face_fan(fan),
        }
    )
    try:
        cox = class_group(fan)
        report["class_group"] = {
            "free_rank": cox.free_rank,
            "torsion": list(cox.torsion),
            "grading_matrix": [list(r) for r in cox.grading_matrix],
        }
    except TorusFactorError as exc:
        report["class_group"] = {"error": str(exc)}
    sys.stdout.write(render(report, args.format))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it."""
    parser = argparse.ArgumentParser(
        prog="torrigid",
        description=(
            "Exact deformation invariants of toric varieties from fans. "
            "Fan files use 0-based ray indices; reports use 1-based variables."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_t1 = sub.add_parser("t1", help="tangent-space dimension of an affine cone")
    p_t1.add_argument("fanfile")
    p_t1.add_argument(
        "--polygon",
        action="store_true",
        help="treat the input as {'vertices': [[x,y],..]} and use the polygon formula",
    )
    add_common(p_t1)
    p_t1.set_defaults(func=cmd_t1)

    p_r = sub.add_parser("rigidity", help="rigidity certificates")
    p_r.add_argument("fanfile", nargs="?")
    p_r.add_argument("--wps", default=None, help="comma-separated weights q0,q1,...")
    p_r.add_argument(
        "--criterion",
        choices=("all", "qgorenstein", "quotient", "fano", "gamma", "wps"),
        default="all",
    )
    add_common(p_r)
    p_r.add_argument(
        "--bound",
        type=int,
        default=None,
        help="integer search radius, at least 1, of the gamma criterion "
        "(default: TORRIGID_BOUND, else 8)",
    )
    p_r.set_defaults(func=cmd_rigidity)

    p_l = sub.add_parser("localcoh", help="one graded piece of local cohomology")
    p_l.add_argument("fanfile")
    p_l.add_argument("--i", type=int, required=True, help="cohomological index")
    p_l.add_argument("--p", required=True, help="comma-separated fine degree")
    p_l.add_argument(
        "--oracle",
        action="store_true",
        help="also run the independent oracle and compare (exit 4 on mismatch)",
    )
    add_common(p_l)
    p_l.set_defaults(func=cmd_localcoh)

    p_cy = sub.add_parser("cy", help="anticanonical hypersurface tangent dimension")
    p_cy.add_argument("fanfile")
    p_cy.add_argument("polyfile")
    add_common(p_cy)
    p_cy.set_defaults(func=cmd_cy)

    p_c = sub.add_parser("check-fan", help="validate a fan file and summarize it")
    p_c.add_argument("fanfile")
    add_common(p_c)
    p_c.set_defaults(func=cmd_check_fan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except UnsupportedModeError as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
