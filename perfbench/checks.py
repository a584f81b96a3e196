"""Output checks for the benchmark's ops, run outside the timed region.

Tolerances are the ones the package's verify registry and tests pin:
affine gap <= 1e-5, transverse-fit and closed-form gaps <= 1e-6, Killing
residual <= 1e-9, oracle gap <= 1e-6 (relative to max(1, |closed form|),
since R grows like b/u^2).  Verdicts are checked against the paper, and
class and b against the values the input was built from.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import lorentz3
from lorentz3.geometry import christoffels, riemann_tensor

from workloads import CONSTANT_H, chart_for

AFFINE_GAP = 1e-5
FIT_GAP = 1e-6
CLOSED_FORM_GAP = 1e-6
KILLING = 1e-9
ORACLE_GAP = 1e-6
CLOSED_FORM_CURVATURE = 1e-9  # |R| and |nabla R| against H(u) = b/u^2 or h
CONSERVATION = 1e-8  # g(gamma', gamma') drift relative to its largest term

UNIMODULAR_CLASSES = ("MinkowskiFlat", "CahenWallachHyperbolic", "CahenWallachElliptic")
CURVATURE_HEADER = ["u", "v", "x", "max_abs_R", "max_nabla_R", "killing_residual_dv", "killing_residual_extra"]
TRAJECTORY_HEADER = ["t", "u", "v", "x", "du", "dv", "dx", "vel_norm_sq"]


def _validators() -> dict:
    schemas = {}
    for path in (Path(lorentz3.__file__).parent / "schemas").glob("*.schema.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        schemas[doc["$id"]] = doc
    registry = Registry().with_resources(
        [(sid, Resource.from_contents(doc)) for sid, doc in schemas.items()]
    )
    return {
        sid.split("/", 1)[1]: Draft202012Validator(doc, registry=registry)
        for sid, doc in schemas.items()
    }


def paper_flags(klass: str, b) -> dict:
    """The space-report flags the paper assigns to a class."""
    symmetric = klass in UNIMODULAR_CLASSES
    flat = klass in ("MinkowskiFlat", "HalfMinkowskiFlat")
    return {
        "symmetric": symmetric,
        "locally_symmetric": symmetric or flat,
        "flat": flat,
        "complete": symmetric,
        "compact_model": klass == "MinkowskiFlat" or b == 2,
        "transverse_3d_group": klass not in ("NonUnimodularElliptic", "CahenWallachElliptic"),
    }


def _chart_label(expect: dict) -> str:
    if expect["b"] is not None:
        return f"PowerLaw(b={float(expect['b'])})"
    return f"Constant(h={CONSTANT_H[expect['class']]})"


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class Checker:
    """Checks an op's outcome; ``guards`` keeps the worst accuracy gaps seen."""

    def __init__(self):
        self.validators = _validators()
        self.guards = {"affine_gap": 0.0, "transverse_fit_gap": 0.0, "closed_form_gap": 0.0, "oracle_gap": 0.0}

    def _guard(self, name: str, value: float) -> None:
        self.guards[name] = max(self.guards[name], value)

    def _json(self, out: str, schema: str, problems: list):
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            problems.append(f"stdout is not JSON: {exc}")
            return None
        errors = list(self.validators[schema].iter_errors(payload))
        if errors:
            problems.append(f"{schema} schema: {errors[0].message}")
        return payload

    def check(self, op, outcome) -> list[str]:
        """Problems found in one op's output; empty when it passed."""
        if outcome.error is not None:
            return [f"unexpected exception: {outcome.error}"]
        problems: list[str] = []
        code, out = outcome.outputs[-1]
        if op.kind == "bad":
            self._check_bad(op, code, out, problems)
        elif [c for c, _ in outcome.outputs] != [0] * len(op.calls):
            problems.append(f"exit codes {[c for c, _ in outcome.outputs]}; stdout {out[:200]!r}")
        elif op.kind == "space":
            self._check_space_report(op, outcome.outputs[0][1], problems)
            self._check_sweep(op, outcome.outputs[1][1], problems)
            self._check_oracle(op, outcome.fd, problems)
        elif op.kind == "family":
            self._check_family(op, out, problems)
        else:
            self._check_trajectory(op, out, problems)
        return problems

    # -- space ---------------------------------------------------------------

    def _check_bad(self, op, code, out, problems) -> None:
        if code != 1:
            problems.append(f"bad input exited {code}, expected 1")
            return
        payload = self._json(out, "error", problems)
        if payload is not None and payload.get("error", {}).get("type") != op.expect["error"]:
            problems.append(f"error type {payload['error'].get('type')!r}, expected {op.expect['error']!r}")

    def _check_space_report(self, op, out, problems) -> None:
        exp = op.expect
        rep = self._json(out, "space_report", problems)
        if rep is None:
            return
        if rep["class"] != exp["class"]:
            problems.append(f"class {rep['class']}, built as {exp['class']}")
        want_b = None if exp["b"] is None else str(exp["b"])
        if rep["b"] != want_b:
            problems.append(f"b {rep['b']}, built as {want_b}")
        if rep["flags"] != paper_flags(exp["class"], exp["b"]):
            problems.append(f"flags {rep['flags']} differ from the paper's for {exp['class']}")
        norm = rep["normalization"]
        if norm.get("rationalized_input") != exp["rationalized"]:
            problems.append(f"rationalized_input {norm.get('rationalized_input')}, expected {exp['rationalized']}")
        if exp["b"] is not None:
            if norm.get("scale") != str(exp["scale"]) or norm.get("time_reversed") != (exp["scale"] < 0):
                problems.append(f"normalization {norm}, expected scale {exp['scale']}")
        sig = rep.get("invariant_metric", {}).get("signature")
        if sig != {"plus": 2, "minus": 1, "zero": 0}:
            problems.append(f"invariant metric signature {sig}")
        chart = rep["brinkmann_chart"]
        if exp["b"] is not None:
            if chart.get("form") != "power-law" or chart.get("b") != float(exp["b"]):
                problems.append(f"chart {chart}, expected power-law b={float(exp['b'])}")
        elif chart.get("form") != "constant" or chart.get("h") != CONSTANT_H[exp["class"]]:
            problems.append(f"chart {chart}, expected constant h={CONSTANT_H[exp['class']]}")

    def _check_sweep(self, op, out, problems) -> None:
        rows = _csv(out)
        if not rows or rows[0] != CURVATURE_HEADER:
            problems.append(f"curvature CSV header {rows[:1]}")
            return
        shape = [int(n) for n in op.expect["grid"].partition(":")[0].split(",")]
        if len(rows) - 1 != math.prod(shape):
            problems.append(f"curvature CSV has {len(rows) - 1} rows, expected {math.prod(shape)}")
        b = op.expect["b"]
        h = None if b is not None else CONSTANT_H[op.expect["class"]]
        boost_is_killing = b is not None or h == 0.0
        for row in rows[1:]:
            u, _, _, max_r, max_nabla, k_dv, k_extra = (float(c) for c in row)
            if b is not None:
                want_r, want_nabla = abs(float(b)) / u**2, 2 * abs(float(b)) / abs(u) ** 3
            else:
                want_r, want_nabla = abs(h), 0.0
            if abs(max_r - want_r) > CLOSED_FORM_CURVATURE * max(1.0, want_r):
                problems.append(f"max|R| {max_r} at u={u}, closed form {want_r}")
            if abs(max_nabla - want_nabla) > CLOSED_FORM_CURVATURE * max(1.0, want_nabla):
                problems.append(f"max|nabla R| {max_nabla} at u={u}, closed form {want_nabla}")
            if k_dv > KILLING or (boost_is_killing and k_extra > KILLING):
                problems.append(f"Killing residuals {k_dv}, {k_extra} at u={u}")

    def _check_oracle(self, op, fd, problems) -> None:
        chart = chart_for(op.expect)
        r_fd, gamma_fd = fd
        r = riemann_tensor(chart, op.fd_point)
        gamma = christoffels(chart, op.fd_point)
        gap = max(
            float(np.max(np.abs(r_fd - r))) / max(1.0, float(np.max(np.abs(r)))),
            float(np.max(np.abs(gamma_fd - gamma))) / max(1.0, float(np.max(np.abs(gamma)))),
        )
        self._guard("oracle_gap", gap)
        if not gap <= ORACLE_GAP:
            problems.append(f"oracle gap {gap:.2e} at {op.fd_point} exceeds {ORACLE_GAP}")

    # -- geodesics -----------------------------------------------------------

    def _check_family(self, op, out, problems) -> None:
        exp = op.expect
        rep = self._json(out, "geodesic_verdict", problems)
        if rep is None:
            return
        if rep["chart"] != _chart_label(exp) or rep["seed"] != exp["seed"]:
            problems.append(f"chart {rep['chart']} seed {rep['seed']}, built as {_chart_label(exp)} seed {exp['seed']}")
        fam = rep["verdicts"].get(exp["family"])
        if fam is None or len(rep["verdicts"]) != 1:
            problems.append(f"verdicts for {sorted(rep['verdicts'])}, asked for {exp['family']}")
            return
        if fam["verdict"] != exp["verdict"]:
            problems.append(f"{exp['family']} verdict {fam['verdict']}, the paper says {exp['verdict']}")
        if fam["count"] != exp["count"] or len(fam["details"]) != exp["count"]:
            problems.append(f"{len(fam['details'])} samples reported, {exp['count']} asked")
        for rec in fam["details"]:
            if exp["b"] is None:
                gap = rec.get("integrator_vs_closed_form_sup_rel_gap")
                if gap is None or not gap <= CLOSED_FORM_GAP:
                    problems.append(f"closed-form gap {gap}")
                else:
                    self._guard("closed_form_gap", gap)
            elif exp["verdict"] == "incomplete":
                affine, fit = rec.get("affine_prediction_gap"), rec.get("transverse_fit_gap")
                if affine is None or not affine <= AFFINE_GAP:
                    problems.append(f"affine prediction gap {affine}")
                else:
                    self._guard("affine_gap", affine)
                if fit is None or not fit <= FIT_GAP:
                    problems.append(f"transverse fit gap {fit}")
                else:
                    self._guard("transverse_fit_gap", fit)
            elif "boundary_affine_time" in rec:
                problems.append(f"d_v orbit hit the boundary: {rec}")

    def _check_trajectory(self, op, out, problems) -> None:
        rows = _csv(out)
        if not rows or rows[0] != TRAJECTORY_HEADER:
            problems.append(f"trajectory CSV header {rows[:1]}")
            return
        data = np.array([[float(c) for c in row] for row in rows[1:]])
        if len(data) < 2:
            problems.append(f"trajectory has {len(data)} rows")
            return
        init = op.expect["init"]
        if tuple(data[0, 1:7]) != init or data[0, 0] != 0.0:
            problems.append(f"first row {data[0].tolist()} is not the initial state {init}")
        if abs(data[-1, 0] - op.expect["span"]) > 1e-12 * op.expect["span"]:
            problems.append(f"trajectory ends at t={data[-1, 0]}, span {op.expect['span']}")
        t, u, x, du, dv, dx, q = data[:, 0], data[:, 1], data[:, 3], data[:, 4], data[:, 5], data[:, 6], data[:, 7]
        u_exact = init[0] + init[3] * t
        if np.max(np.abs(u - u_exact) / np.maximum(1.0, np.abs(u_exact))) > 1e-9:
            problems.append("u is not affine along the trajectory")
        x_exact = _constant_chart_x(CONSTANT_H[op.expect["class"]], init, t)
        gap = float(np.max(np.abs(x - x_exact) / np.maximum(1.0, np.abs(x_exact))))
        if not gap <= CLOSED_FORM_GAP:
            problems.append(f"closed-form gap {gap:.2e} along the trajectory")
        else:
            self._guard("closed_form_gap", gap)
        h = CONSTANT_H[op.expect["class"]]
        terms = np.abs(2 * du * dv) + np.abs(h * x * x * du * du) + dx * dx
        drift = float(np.max(np.abs(q - q[0]) / np.maximum(1.0, terms)))
        if not drift <= CONSERVATION:
            problems.append(f"vel_norm_sq drift {drift:.2e}")


def _constant_chart_x(h: float, init: tuple, t: np.ndarray) -> np.ndarray:
    """x(t) on the Constant chart, from x'' = h du^2 x in closed form."""
    x0, du, dx0 = init[2], init[3], init[5]
    k = h * du * du
    if k == 0.0:
        return x0 + dx0 * t
    w = math.sqrt(abs(k))
    if k > 0:
        return x0 * np.cosh(w * t) + dx0 / w * np.sinh(w * t)
    return x0 * np.cos(w * t) + dx0 / w * np.sin(w * t)
