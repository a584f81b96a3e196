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

One parser serves every :func:`main` call in a process: :func:`build_parser`
runs at the first call, and each call parses its argv into a fresh namespace,
so no call sees another's values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import numpy as np

from .classifier import SpaceClass, brinkmann_chart, class_from_b, classify, report_from_class, space_report
from .geometry import (
    RosenChart,
    boost_field,
    brinkmann_profile_derivative,
    brinkmann_profile_value,
    check_domain,
    coordinate_field,
    curvature_report,
    covariant_R_derivative,
    default_grid,
    heis_killing_fields,
    killing_residual,
    metric_at,
    metric_partials,
    pullback_residual,
    riemann_tensor,
    roundtrip_residual,
    sup_norm,
)
from .lie_core import Derivation, _as_matrix, as_rational, invariant_b, is_derivation
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
    "ProfileNotFinite": (
        "u is far enough from 0, and small enough, that the profile H(u) and its derivative are finite floats"
    ),
    "MetricNotFinite": "the metric g_ij and its partials d_k g_ij are finite floats at the point",
    "TransversePhaseTooLarge": (
        "the transverse phase of each integration is within the work bound: sqrt|h| |du| |span| "
        "on Constant charts, (sqrt|1+4b|/2) ln(u_max/u_min) on PowerLaw charts"
    ),
    "SolutionLeftFloatRange": "the solution stays within float range until the end of the span or until u reaches u_min",
    "EvidenceGapTooLarge": "every sample agrees with its exact affine law and closed-form transverse solution",
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


def _check_b_fits(b: Fraction, what: str) -> None:
    """Every chart and report carries float(b): refuse a b that has none,
    and a nonzero b whose float is 0.0 (a flat chart under a curved class)."""
    try:
        fits = float(b) != 0.0 or b == 0
    except OverflowError:
        fits = False
    if not fits:
        raise OverflowError(f"{what} does not fit in a float")


def _parse_b(text: str, flag: str) -> tuple[Fraction, bool]:
    b, rationalized = _parse_rational(text)
    _check_b_fits(b, f"{flag} {text}: b")
    return b, rationalized


def _parse_alpha(text: str) -> tuple[Fraction, bool]:
    alpha, rationalized = _parse_rational(text)
    _check_b_fits(alpha * alpha - alpha, f"--alpha {text}: b = alpha^2 - alpha")
    return alpha, rationalized


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
    if d.trace_quotient != 0:
        _check_b_fits(invariant_b(d), "--derivation: b = -det(A-bar)/tr(A-bar)^2")
    return d, rationalized


class ProfileNotFinite(ValueError):
    """The profile of a half-space chart is not a finite float at u: H(u) =
    b/u^2 or H'(u) on PowerLaw, delta(u), H(u) or H'(u) on a Rosen chart.
    It leaves the float range on either side: near 0, u*u underflows below
    about 1e-162 and u**3 below about 1e-108; for large u, u**3 overflows
    above about 5.6e102, and u^(2 alpha) once |2 alpha log10 u| passes 308.
    PowerLaw(0), flat half Minkowski, has the profile 0 at every u > 0."""


class MetricNotFinite(ValueError):
    """The profile is finite at the point but the metric or one of its first
    partials is not: on a Brinkmann chart H(u) x^2, H'(u) x^2 or 2 H(u) x
    overflows for large |x|.  The Killing residuals and the Ricci form
    would then read inf * 0 = NaN."""


def _profile_check(chart):
    """u -> None, raising ProfileNotFinite where the chart's profile is not
    a finite float; u <= 0 is left to the domain check.  The profile terms
    are built once per chart, not once per point."""
    if not chart.half_space:
        return lambda u: None
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

    def check(u: float) -> None:
        if not u > 0.0:  # a DomainError
            return
        try:
            finite = all(math.isfinite(term(u)) for term in terms)
        except (ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            raise ProfileNotFinite(f"{what} leave the float range at u = {u}")

    return check


def _check_metric_finite(chart, points: list) -> None:
    """Raise MetricNotFinite at the first point, in order, where g_ij or
    d_k g_ij is not a finite float; the profile is finite at every point."""
    finite = np.isfinite(metric_at(chart, points)).all(axis=(1, 2))
    finite &= np.isfinite(metric_partials(chart, points)).all(axis=(1, 2, 3))
    if not finite.all():
        p = points[int(np.argmin(finite))]
        raise MetricNotFinite(f"the metric or its partials leave the float range at (u, v, x) = {tuple(p)}")


def _parse_number(text: str) -> float:
    """One coordinate: an exact spelling ("-1/2", "0.3", "1e-3") as a float."""
    return float(as_rational(text)[0])


def _parse_point(text: str) -> tuple[float, float, float]:
    parts = [_parse_number(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--point expects u,v,x")
    return tuple(parts)


def _sample_count(n: int, flag: str) -> int:
    """A count of sample points: no verdict may rest on an empty sample."""
    if n < 1:
        raise ValueError(f"{flag} count = {n}: a sample needs at least one point")
    return n


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
    return default_grid(*ranges, shape=[_sample_count(n, "--grid") for n in shape])


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


def _resolve_report(args) -> dict:
    if args.derivation is not None:
        d, rationalized = _parse_derivation(args.derivation)
        return space_report(d, rationalized_input=rationalized)
    if args.klass is not None:
        return report_from_class(_CLASS_NAMES[args.klass])
    if args.b is not None:
        b, rationalized = _parse_b(args.b, "--b")
    else:
        alpha, rationalized = _parse_alpha(args.alpha)
        b = alpha * alpha - alpha
    return report_from_class(class_from_b(b), rationalized_input=rationalized)


def _resolve_chart(args):
    """The chart of the input source; a derivation is classified, not reported on."""
    if getattr(args, "alpha", None) is not None:  # geodesic has no --alpha
        alpha, _ = _parse_alpha(args.alpha)
        return RosenChart(float(alpha))
    if args.derivation is not None:
        cls = classify(_parse_derivation(args.derivation)[0])
    elif args.klass is not None:
        cls = _CLASS_NAMES[args.klass]
    else:
        cls = class_from_b(_parse_b(args.b, "--b")[0])
    return brinkmann_chart(cls)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_classify(args, parser) -> int:
    _emit_json(_resolve_report(args), args.out)
    return 0


def _cmd_curvature(args, parser) -> int:
    chart = _resolve_chart(args)
    if args.point is not None:
        point = _parse_point(args.point)
        _profile_check(chart)(point[0])
        _check_metric_finite(chart, [point])
        _emit_json(curvature_report(chart, point), args.out)
        return 0
    grid = _parse_grid(args.grid)
    check_profile = _profile_check(chart)
    for p in grid:  # in grid order, so the first bad point names the error
        check_domain(chart, p)
        check_profile(p[0])
    _check_metric_finite(chart, grid)
    points = np.array(grid)
    extra = heis_killing_fields(chart)[2] if isinstance(chart, RosenChart) else boost_field()
    columns = (
        sup_norm(riemann_tensor(chart, points), 4),
        # del_v R = del_x R = 0 on every plane wave: u is the only direction
        covariant_R_derivative(chart, points, "u"),
        killing_residual(chart, coordinate_field("v"), points),
        killing_residual(chart, extra, points),
    )
    rows = [[*p, *values] for p, *values in zip(grid, *(c.tolist() for c in columns))]
    _emit_csv(
        ["u", "v", "x", "max_abs_R", "max_nabla_R", "killing_residual_dv", "killing_residual_extra"],
        rows,
        args.out,
    )
    return 0


def _cmd_geodesic(args, parser) -> int:
    from . import geodesics as geo  # scipy loads only for this command

    mode, other_flags = ("--init", ("--count", "--seed")) if args.init is not None else ("--family", ("--span",))
    for flag in other_flags:
        if getattr(args, flag[2:]) is not None:
            parser.error(f"argument {flag}: not allowed with argument {mode}")
    chart = _resolve_chart(args)
    if args.init is not None:
        parts = [_parse_number(p) for p in args.init.split(",")]
        if len(parts) != 6:
            parser.error("--init expects u,v,x,du,dv,dx")
        _profile_check(chart)(parts[0])
        res = geo.integrate_geodesic(chart, parts, (0.0, 10.0 if args.span is None else args.span))
        _emit_csv(
            ["t", "u", "v", "x", "du", "dv", "dx", "vel_norm_sq"],
            res.csv_rows(chart),
            args.out,
        )
        return 0
    families = tuple(args.family.split(","))
    count = _sample_count(20 if args.count is None else args.count, "--count")
    seed = 12345 if args.seed is None else args.seed
    if seed < 0:
        raise ValueError(f"--seed {seed}: a seed is a non-negative integer")
    _emit_json(geo.completeness_report(chart, families=families, count=count, seed=seed), args.out)
    return 0


def _cmd_transform(args, parser) -> int:
    alpha = float(_parse_alpha(args.alpha)[0])
    rosen = RosenChart(alpha)
    payload = {
        "alpha": alpha,
        "b": rosen.b,
        "rosen_metric": f"2 du dv + {rosen.label} dx^2 on u > 0",
        "brinkmann_metric": f"2 du dv + ({rosen.b:g}/u^2) x^2 du^2 + dx^2 on u > 0",
        "point_map": "u = u', v = v' + (alpha/2) u'^-1 x'^2, x = u'^-alpha x'",
        "inverse_map": "u' = u, x' = u^alpha x, v' = v - (alpha/2) u^(2 alpha - 1) x^2",
    }
    if args.verify_grid is not None:
        n = _sample_count(args.verify_grid, "--verify-grid")
        grid = default_grid(shape=(n, n, n))
        payload["verify_grid_shape"] = [n, n, n]
        payload["pullback_residual"] = pullback_residual(alpha, grid)
        payload["roundtrip_residual"] = roundtrip_residual(alpha, grid)
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
            lo_q, _ = _parse_b(lo, "--b-grid")
            hi_q, _ = _parse_b(hi, "--b-grid")
            _sample_count(n, "--b-grid")
            step = (hi_q - lo_q) / (n - 1) if n > 1 else Fraction(0)
            values.extend(lo_q + step * k for k in range(n))
        else:
            q, _ = _parse_b(chunk, "--b-grid")
            values.append(q)
    entries = []
    for b in values:
        report = report_from_class(class_from_b(b))
        entries.append({"b": str(b), "class": report["class"], **report["flags"]})
    if args.json:
        _emit_json({"entries": entries}, args.out)
    else:
        header = list(entries[0])
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
                {"name": r.name, "suite": r.suite, "passed": r.passed, "detail": r.detail}
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
    mode.add_argument("--grid", help=(
        "nu,nv,nx:umin..umax,vmin..vmax,xmin..xmax, each count at least 1; one CSV row per point: u, v, x, "
        "max_abs_R (max |R_ijkl|), max_nabla_R (max over directions of |del R|), killing_residual_dv and "
        "killing_residual_extra (max |L_xi g| for xi = d_v and for the boost on Brinkmann charts or the "
        "Heisenberg shear field on Rosen charts)"))
    p_curv.add_argument("--out")
    p_curv.set_defaults(func=_cmd_curvature)

    p_geo = sub.add_parser("geodesic", help="integrate one geodesic (CSV) or report verdicts per family (JSON)")
    _add_source_flags(p_geo, include_alpha=False)
    mode = p_geo.add_mutually_exclusive_group(required=True)
    mode.add_argument("--init", help=(
        "u,v,x,du,dv,dx; the CSV has one row per accepted solver step; the absolute error of its "
        "vel_norm_sq = g(gamma', gamma') scales with its largest term (|2 du dv|, |H x^2 du^2|, dx^2)"))
    mode.add_argument("--family", help="comma list from: timelike,null,dv_orbit,spacelike")
    p_geo.add_argument("--span", type=float, help="--init mode only: affine span of the run (default 10)")
    p_geo.add_argument("--count", type=int, help="--family mode only: samples per family (default 20)")
    p_geo.add_argument("--seed", type=int, help=(
        "--family mode only: seed for the initial conditions, recorded in the output (default 12345)"))
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


_parser = cache(build_parser)  # the one tree every main call parses with


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
    parser = _parser()
    args = parser.parse_args(_absorb_negative_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        try:
            code = args.func(args, parser)
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
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`lorentz3 ... | head -1`).  As the Python
        # docs advise for SIGPIPE, point stdout at devnull so that the flush
        # at interpreter exit cannot raise again, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
