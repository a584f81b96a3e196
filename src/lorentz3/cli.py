"""Command-line surface.

Subcommands
-----------
classify   derivation / b / alpha / class name  ->  space report JSON
curvature  chart + point or grid                ->  report JSON or sweep CSV
geodesic   chart + initial state or family      ->  trajectory CSV or verdict JSON
transform  alpha                                ->  transform report JSON
survey     grid of b values                     ->  class/flags table (CSV or JSON)
verify     invariant suite                      ->  pass/fail lines, nonzero exit on failure

Conventions: exactly one input source among --derivation/--b/--alpha/--class;
rational strings ("-1/4") are exact, floats are rationalized (denominator
<= 10^6) and the report records that; usage errors exit 2, domain or math
errors exit 1 with a JSON error object naming the violated precondition;
output is byte-identical across repeated runs with the same config and seed.
No tolerance is settable: the verify checks, the transform pullback gate, the
completeness horizon and the geodesic work bound are module constants, and no
command reads the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from .classifier import SpaceClass, class_from_b, report_from_class, space_report
from .geometry import (
    RosenChart,
    boost_field,
    brinkmann_profile_derivative,
    brinkmann_profile_value,
    coordinate_field,
    curvature_report,
    covariant_R_derivative,
    default_grid,
    heis_killing_fields,
    killing_residual,
    pullback_residual,
    riemann_tensor,
    rosen_to_brinkmann,
    roundtrip_residual,
)
from .lie_core import Derivation, _as_matrix, as_rational, is_derivation
from .verify import run_suite, suite_names

_CLASS_NAMES = {
    "MinkowskiFlat": SpaceClass("MinkowskiFlat"),
    "HalfMinkowskiFlat": SpaceClass("HalfMinkowskiFlat", Fraction(0)),
    "CahenWallachHyperbolic": SpaceClass("CahenWallachHyperbolic"),
    "CahenWallachElliptic": SpaceClass("CahenWallachElliptic"),
}

PULLBACK_TOL = 1e-9  # the transform --verify-grid gate

_PRECONDITIONS = {
    "DomainError": "point lies in the chart domain (u > 0 on half-space charts)",
    "NoInvariantMetric": "an invariant Lorentz metric exists for some isotropy choice",
    "UnimodularInput": "tr(A-bar) != 0",
    "HomothetyInput": "the quotient action is not a homothety",
    "DegeneratePlane": "the tangent plane is non-degenerate",
    "ProfileNotFinite": "u is far enough from 0 that the profile H(u) and its derivative are finite floats",
    "TransversePhaseTooLarge": (
        "the transverse phase of each integration is within the work bound: sqrt|h| |du| |span| "
        "on Constant charts, (sqrt|1+4b|/2) ln(u_max/u_min) on PowerLaw charts"
    ),
    "SolutionLeftFloatRange": "the solution stays within float range until the end of the span or until u reaches u_min",
    "ZeroDivisionError": "input data is non-degenerate",
    "OverflowError": "every number is finite and fits in a float",
    "OutputNotWritable": "--out names a file that can be written",
    "ValueError": "input satisfies the documented preconditions",
}


class OutputNotWritable(ValueError):
    """The --out path cannot be opened for writing."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputNotWritable(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(payload: dict, out_path: str | None) -> None:
    # inf and nan have no JSON spelling: refuse them (ValueError) rather
    # than print Infinity or NaN
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), out_path)


def _emit_csv(header: list[str], rows: list[list], out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out_path)


def _parse_rational(text: str) -> tuple[Fraction, bool]:
    """An exact spelling ("-1/4", "0.3"); other decimal text, such as
    "inf", goes through float and fails there."""
    try:
        return as_rational(text)
    except ValueError:
        if "/" in text:  # a fraction spelling: float cannot read it either
            raise
    return as_rational(float(text))


def _parse_derivation(text: str) -> tuple[Derivation, bool]:
    """JSON text or a path to a JSON file; row-major 3x3, basis (Z, X, Y)."""
    try:
        text = Path(text).read_text(encoding="utf-8")
    except (OSError, ValueError):  # no such file, or a name no file can have
        pass
    matrix, rationalized = _as_matrix(json.loads(text))
    d = Derivation(matrix)
    if not is_derivation(d):
        raise ValueError(
            "matrix violates the derivation law: the Z column must equal (A_XX + A_YY, 0, 0)"
        )
    return d, rationalized


class ProfileNotFinite(ValueError):
    """u is so close to 0 that the profile of a half-space chart is not a
    finite float: H(u) = b/u^2 or H'(u) on PowerLaw (u*u underflows below
    about 1e-162, u**3 below about 1e-108), delta(u), H(u) or H'(u) on a
    Rosen chart."""


def _check_profile_finite(chart, u: float) -> None:
    if not (chart.half_space and u > 0.0):  # u <= 0 is a DomainError
        return
    if isinstance(chart, RosenChart):
        what = f"delta(u) = {chart.label}, H(u) and H'(u)"
        terms = (
            chart.delta,
            partial(brinkmann_profile_value, chart),
            partial(brinkmann_profile_derivative, chart),
        )
    else:
        what = f"H(u) = {chart.b}/u^2 and H'(u)"
        terms = (chart.h, chart.dh)
    try:
        finite = all(math.isfinite(term(u)) for term in terms)
    except (ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        raise ProfileNotFinite(f"u = {u} is too close to 0 for {what} to be finite floats")


def _parse_number(text: str) -> float:
    """One coordinate: an exact spelling ("-1/2", "0.3", "1e-3") as a float."""
    return float(as_rational(text)[0])


def _parse_point(text: str) -> tuple[float, float, float]:
    parts = [_parse_number(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--point expects u,v,x")
    return tuple(parts)


def _parse_grid(text: str) -> list[tuple[float, float, float]]:
    """nu,nv,nx:umin..umax,vmin..vmax,xmin..xmax"""
    shape_part, _, range_part = text.partition(":")
    shape = [int(s) for s in shape_part.split(",")]
    if len(shape) != 3 or not range_part:
        raise ValueError("--grid expects nu,nv,nx:umin..umax,vmin..vmax,xmin..xmax")
    ranges = []
    for chunk in range_part.split(","):
        lo, sep, hi = chunk.partition("..")
        if not sep:
            raise ValueError(f"bad range {chunk!r}: expected lo..hi")
        ranges.append((_parse_number(lo), _parse_number(hi)))
    if len(ranges) != 3:
        raise ValueError("--grid expects three ranges")
    return default_grid(*ranges, shape=shape)


def _add_source_flags(sub, include_alpha=True):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--derivation", help="3x3 JSON matrix (or path), basis (Z, X, Y)")
    source.add_argument("--b", help="exact rational b of the Brinkmann profile b/u^2")
    if include_alpha:
        source.add_argument("--alpha", help="Rosen power-law exponent; the space has b = alpha^2 - alpha")
    source.add_argument(
        "--class",
        dest="klass",
        choices=sorted(_CLASS_NAMES),
        help="named symmetric/flat class",
    )


def _resolve_report(args):
    if args.derivation is not None:
        d, rationalized = _parse_derivation(args.derivation)
        return space_report(d, rationalized_input=rationalized)
    if args.b is not None:
        b, rationalized = _parse_rational(args.b)
        return report_from_class(
            class_from_b(b), normalization={"rationalized_input": rationalized}
        )
    if getattr(args, "alpha", None) is not None:
        alpha, rationalized = _parse_rational(args.alpha)
        return report_from_class(
            class_from_b(alpha * alpha - alpha),
            normalization={"rationalized_input": rationalized},
        )
    return report_from_class(_CLASS_NAMES[args.klass])


def _resolve_chart(args):
    if getattr(args, "alpha", None) is not None:  # geodesic has no --alpha
        alpha, _ = _parse_rational(args.alpha)
        return RosenChart(float(alpha))
    return _resolve_report(args).brinkmann_chart


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_classify(args, parser) -> int:
    report = _resolve_report(args)
    _emit_json(report.to_json(), args.out)
    return 0


def _cmd_curvature(args, parser) -> int:
    chart = _resolve_chart(args)
    if args.point is not None:
        point = _parse_point(args.point)
        _check_profile_finite(chart, point[0])
        _emit_json(curvature_report(chart, point).to_json(), args.out)
        return 0
    grid = _parse_grid(args.grid)
    fields = [coordinate_field("v")]
    if isinstance(chart, RosenChart):
        fields.append(heis_killing_fields(chart)[2])
    else:
        fields.append(boost_field())
    rows = []
    for p in grid:
        _check_profile_finite(chart, p[0])
        max_r = float(np.max(np.abs(riemann_tensor(chart, p))))
        max_nabla = max(covariant_R_derivative(chart, p, d) for d in ("u", "v", "x"))
        k0 = killing_residual(chart, fields[0], [p])
        k1 = killing_residual(chart, fields[1], [p])
        rows.append([p[0], p[1], p[2], max_r, max_nabla, k0, k1])
    _emit_csv(
        ["u", "v", "x", "max_abs_R", "max_nabla_R", "killing_residual_dv", "killing_residual_extra"],
        rows,
        args.out,
    )
    return 0


def _cmd_geodesic(args, parser) -> int:
    from . import geodesics as geo  # scipy loads only for this command

    chart = _resolve_chart(args)
    if args.init is not None:
        parts = [_parse_number(p) for p in args.init.split(",")]
        if len(parts) != 6:
            parser.error("--init expects u,v,x,du,dv,dx")
        _check_profile_finite(chart, parts[0])
        state = geo.GeodesicState.of(*parts)
        res = geo.integrate_geodesic(chart, state, (0.0, args.span))
        _emit_csv(
            ["t", "u", "v", "x", "du", "dv", "dx", "vel_norm_sq"],
            res.csv_rows(chart),
            args.out,
        )
        return 0
    families = tuple(args.family.split(","))
    report = geo.completeness_report(chart, families=families, count=args.count, seed=args.seed)
    _emit_json(report.to_json(), args.out)
    return 0


def _cmd_transform(args, parser) -> int:
    alpha, _ = _parse_rational(args.alpha)
    tr = rosen_to_brinkmann(float(alpha))
    payload = {
        "alpha": float(alpha),
        "b": tr.b,
        "rosen_metric": f"2 du dv + {tr.rosen_chart.label} dx^2 on u > 0",
        "brinkmann_metric": f"2 du dv + ({tr.b:g}/u^2) x^2 du^2 + dx^2 on u > 0",
        "point_map": "u = u', v = v' + (alpha/2) u'^-1 x'^2, x = u'^-alpha x'",
        "inverse_map": "u' = u, x' = u^alpha x, v' = v - (alpha/2) u^(2 alpha - 1) x^2",
    }
    if args.verify_grid:
        n = args.verify_grid
        grid = default_grid(shape=(n, n, n))
        payload["verify_grid_shape"] = [n, n, n]
        payload["pullback_residual"] = pullback_residual(
            tr.point_map, tr.rosen_chart, tr.brinkmann_chart, grid
        )
        payload["roundtrip_residual"] = roundtrip_residual(tr.point_map, tr.inverse_map, grid)
        if payload["pullback_residual"] > PULLBACK_TOL:
            raise ValueError(
                f"pullback residual {payload['pullback_residual']:.3e} exceeds tolerance {PULLBACK_TOL}"
            )
    _emit_json(payload, args.out)
    return 0


def _cmd_survey(args, parser) -> int:
    values: list[Fraction] = []
    for chunk in args.b_grid.split(","):
        if ".." in chunk:
            lo_hi, _, count = chunk.partition(":")
            lo, _, hi = lo_hi.partition("..")
            n = int(count) if count else 9
            lo_q, _ = _parse_rational(lo)
            hi_q, _ = _parse_rational(hi)
            step = (hi_q - lo_q) / (n - 1) if n > 1 else Fraction(0)
            values.extend(lo_q + step * k for k in range(n))
        else:
            q, _ = _parse_rational(chunk)
            values.append(q)
    entries = []
    for b in values:
        report = report_from_class(class_from_b(b)).to_json()
        entries.append({"b": str(b), "class": report["class"], **report["flags"]})
    if args.json:
        _emit_json({"entries": entries}, args.out)
    else:
        header = list(entries[0].keys()) if entries else ["b", "class"]
        _emit_csv(header, [[e[k] for k in header] for e in entries], args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    results = run_suite(args.suite)
    all_passed = all(r.passed for r in results)
    if args.json:
        payload = {
            "suite": args.suite,
            "passed": all_passed,
            "checks": [
                {
                    "name": r.name,
                    "suite": r.suite,
                    "passed": r.passed,
                    "detail": r.detail,
                    "elapsed_seconds": round(r.elapsed, 3),
                }
                for r in results
            ],
        }
        _emit_json(payload, args.out)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ]
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
        _emit("\n".join(lines), args.out)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentz3",
        description="Classify and numerically verify 3-dimensional homogeneous Lorentzian plane waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="space report for a derivation, b value, alpha, or named class")
    _add_source_flags(p_classify)
    p_classify.add_argument("--out", help="write JSON here instead of stdout")
    p_classify.set_defaults(func=_cmd_classify)

    p_curv = sub.add_parser("curvature", help="curvature report at a point or sweep CSV over a grid")
    _add_source_flags(p_curv)
    mode = p_curv.add_mutually_exclusive_group(required=True)
    mode.add_argument("--point", help="u,v,x")
    mode.add_argument("--grid", help="nu,nv,nx:umin..umax,vmin..vmax,xmin..xmax")
    p_curv.add_argument("--out")
    p_curv.set_defaults(func=_cmd_curvature)

    p_geo = sub.add_parser("geodesic", help="integrate one geodesic (CSV) or report verdicts per family (JSON)")
    _add_source_flags(p_geo, include_alpha=False)
    mode = p_geo.add_mutually_exclusive_group(required=True)
    mode.add_argument("--init", help="u,v,x,du,dv,dx; the CSV has one row per accepted solver step")
    mode.add_argument("--family", help="comma list from: timelike,null,dv_orbit,spacelike")
    p_geo.add_argument("--span", type=float, default=10.0, help="affine span for --init runs")
    p_geo.add_argument("--count", type=int, default=20, help="samples per family")
    p_geo.add_argument("--seed", type=int, default=12345, help="seed for initial conditions (recorded in output)")
    p_geo.add_argument("--out")
    p_geo.set_defaults(func=_cmd_geodesic)

    p_tr = sub.add_parser("transform", help="Rosen <-> Brinkmann maps for a power-law exponent")
    p_tr.add_argument("--alpha", required=True, help="Rosen exponent (rational)")
    p_tr.add_argument("--verify-grid", type=int, metavar="N", help="check the pullback on an N^3 grid")
    p_tr.add_argument("--out")
    p_tr.set_defaults(func=_cmd_transform)

    p_survey = sub.add_parser("survey", help="class/flags table over a grid of b values")
    p_survey.add_argument(
        "--b-grid",
        required=True,
        help="comma list of rationals and/or ranges lo..hi:count, e.g. '2,1,-1/4,-1/2' or '-1..3:17'",
    )
    p_survey.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_survey.add_argument("--out")
    p_survey.set_defaults(func=_cmd_survey)

    p_verify = sub.add_parser("verify", help="run the invariant suite; nonzero exit on any failure")
    p_verify.add_argument("--suite", default="all", choices=suite_names())
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _absorb_negative_values(argv: list[str]) -> list[str]:
    """Join '--flag -1/2' into '--flag=-1/2' so argparse does not mistake
    negative rationals, points, or ranges for option names.  The only
    positional is the subcommand, so a '-digit' token after a '--name'
    token can only be that flag's value; a flag that takes none still fails
    on it, and '--help' (or a prefix of it) is never joined."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            re.fullmatch(r"--[^=]+", tok)
            and not "--help".startswith(tok)
            and i + 1 < len(argv)
            and re.match(r"^-[\d.]", argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_absorb_negative_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args, parser)
    except (ValueError, ArithmeticError) as exc:
        payload = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "precondition": _PRECONDITIONS.get(
                    type(exc).__name__, _PRECONDITIONS["ValueError"]
                ),
            }
        }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
