"""Seeded op lists for the three workloads, and how one op runs.

Why these workloads:

* ``space`` takes seeded derivations through the exact layer (classify),
  the tensor layer (a curvature sweep with Killing residuals) and the
  finite-difference oracle.  It never integrates a geodesic, so scipy is
  never needed and work moved out of import shows in its set-up time.
* ``incomplete`` runs completeness families on ``PowerLaw(b)``: timelike
  and null geodesics run into u -> 0 at finite affine time, the costly
  boundary case of the geodesic layer.
* ``symmetric`` runs the geodesic layer on the complete ``Constant``
  charts: smooth integrations over a long span, and trajectory CSVs of
  about a thousand rows each.  A change that helps boundary hits but
  hurts smooth spans or the per-row post-processing shows here.

An op list is a pure function of (workload, seed): op ``i`` is built
from a generator seeded with the workload, the seed and ``i``'s block,
and every block holds the same mix of slots in a seeded order.  The
program sees only the argv built here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from lorentz3.cli import main as cli_main
from lorentz3.geometry import Constant, PowerLaw, metric_at
from lorentz3.geometry.findiff import christoffels_fd, riemann_fd
from lorentz3.lie_core import (
    Derivation,
    compose_automorphisms,
    conjugate_derivation,
    diagonal_automorphism,
    inner_automorphism,
    rotation_scale_automorphism,
    shear_automorphism,
)

QUARTER = Fraction(-1, 4)

UNIMODULAR = {
    "nilpotent": "MinkowskiFlat",
    "cw_hyperbolic": "CahenWallachHyperbolic",
    "cw_elliptic": "CahenWallachElliptic",
}
CONSTANT_H = {"MinkowskiFlat": 0.0, "CahenWallachHyperbolic": 1.0, "CahenWallachElliptic": -1.0}

# One block of each workload: every block holds exactly these slots.
SLOTS = {
    # 20 ops: 10% unimodular classes, a few float-entry and bad inputs, and
    # one 5^3 sweep, so the tail is a cluster of large sweeps, not stray stalls
    "space": ["exact"] * 13 + ["wide"] + ["float"] * 3 + ["unimodular"] * 2 + ["bad"],
    # 16 ops: (family, range of b).  Work per geodesic grows with |b|, so
    # six slots cost less than b = 2, six cost more and four are b = 2:
    # the median op lands inside the b = 2 cluster for every seed, and the
    # narrow "large" ranges keep the tail inside one cluster too.
    "incomplete": [
        ("dv_orbit", "hyperbolic"), ("dv_orbit", "elliptic"),
        ("timelike", "parabolic"), ("null", "parabolic"),
        ("timelike", "hyperbolic-small"), ("null", "elliptic-small"),
        ("timelike", "b2"), ("timelike", "b2"), ("null", "b2"), ("null", "b2"),
        ("timelike", "hyperbolic-large"), ("null", "hyperbolic-large"), ("null", "hyperbolic-large"),
        ("timelike", "elliptic-large"), ("null", "elliptic-large"), ("timelike", "elliptic-large"),
    ],
    # 12 ops: (Constant chart class, family or "trajectory")
    "symmetric": [
        ("CahenWallachHyperbolic", "timelike"), ("CahenWallachHyperbolic", "null"),
        ("CahenWallachHyperbolic", "trajectory"), ("CahenWallachHyperbolic", "trajectory"),
        ("CahenWallachElliptic", "timelike"), ("CahenWallachElliptic", "null"),
        ("CahenWallachElliptic", "trajectory"), ("CahenWallachElliptic", "trajectory"),
        ("MinkowskiFlat", "timelike"), ("MinkowskiFlat", "dv_orbit"),
        ("MinkowskiFlat", "trajectory"), ("CahenWallachHyperbolic", "dv_orbit"),
    ],
}

# samples per family: one keeps boundary-hit ops short, so a run holds many
INCOMPLETE_COUNT = 1
SYMMETRIC_COUNT = 2
TRAJECTORY_SPAN = "50"


@dataclass(frozen=True)
class Op:
    """One closed-loop request: CLI calls run in order, then (for
    ``space``) the oracle spot check at ``fd_point``."""

    index: int
    kind: str  # space | bad | family | trajectory
    calls: tuple
    expect: dict = field(default_factory=dict)
    fd_point: tuple | None = None


@dataclass
class Outcome:
    outputs: list = field(default_factory=list)  # (exit code, stdout) per call
    fd: tuple | None = None  # (riemann_fd, christoffels_fd) at the op's point
    error: str | None = None  # an exception that escaped the op


def class_of(b: Fraction) -> str:
    """The paper's classes by the invariant b (thresholds 0 and -1/4)."""
    if b == 0:
        return "HalfMinkowskiFlat"
    if b == QUARTER:
        return "NonUnimodularParabolic"
    return "NonUnimodularElliptic" if b < QUARTER else "NonUnimodularHyperbolic"


def chart_for(expect: dict):
    if expect["b"] is not None:
        return PowerLaw(float(expect["b"]))
    return Constant(CONSTANT_H[expect["class"]])


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _small_rational(rng: random.Random, integer: bool = False) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(num) if integer else Fraction(num, rng.randint(1, 3))


def _automorphism(rng: random.Random, integer: bool):
    """A random automorphism of heis from the lie_core families.  Integer
    parameters keep denominators small enough for float entries to snap
    back to the exact value."""
    kinds = ("diagonal", "shear", "inner") if integer else ("diagonal", "shear", "inner", "rotation")
    kind = rng.choice(kinds)
    if kind == "diagonal":
        return diagonal_automorphism(_small_rational(rng, integer), _small_rational(rng, integer))
    if kind == "shear":
        return shear_automorphism(_small_rational(rng, integer))
    if kind == "inner":
        return inner_automorphism(_small_rational(rng, integer), _small_rational(rng, integer))
    return rotation_scale_automorphism(_small_rational(rng), _small_rational(rng))


def _conjugate_twice(d: Derivation, rng: random.Random, integer: bool) -> Derivation:
    phi = compose_automorphisms(_automorphism(rng, integer), _automorphism(rng, integer))
    return conjugate_derivation(d, phi)


def _space_b(rng: random.Random, small: bool) -> Fraction:
    """b = p/q over a range of numerator and denominator sizes, with the
    distinguished values 2 (compact models), 0 (flat) and -1/4 (parabolic)."""
    if rng.random() < 0.15:
        return rng.choice([Fraction(2), Fraction(0), QUARTER])
    digits = 1 if small else rng.choice([1, 2, 3])
    q = rng.randint(1, 10**digits)
    p = rng.randint(-(10**digits), 10**digits)
    return Fraction(p, q)


def _grid(rng: random.Random, wide: bool) -> str:
    shape = "5,5,5" if wide else ",".join(str(rng.randint(2, 4)) for _ in range(3))
    ulo = rng.uniform(0.5, 1.0)
    uhi = rng.uniform(1.5, 3.0)
    v = rng.uniform(0.5, 1.5)
    x = rng.uniform(0.5, 1.5)
    return f"{shape}:{ulo:.3f}..{uhi:.3f},{-v:.3f}..{v:.3f},{-x:.3f}..{x:.3f}"


def _space_op(index: int, slot: str, rng: random.Random) -> Op:
    integer = slot == "float"
    if slot == "bad":
        return _bad_op(index, rng)
    if slot == "unimodular":
        name = rng.choice(sorted(UNIMODULAR))
        d = getattr(Derivation, name)()
        expect = {"class": UNIMODULAR[name], "b": None}
    else:
        b = _space_b(rng, small=integer)
        d = Derivation.canonical(b)
        expect = {"class": class_of(b), "b": b}
    d = _conjugate_twice(d, rng, integer)
    scale = _small_rational(rng, integer)
    d = d.scaled(scale)
    if integer:
        rows = [[float(e) for e in row] for row in d.matrix]
        expect["rationalized"] = any(Fraction(float(e)) != e for row in d.matrix for e in row)
    else:
        rows = d.to_json()
        expect["rationalized"] = False
    # the report normalises the quotient trace (here equal to scale) to 1
    expect["scale"] = 1 / scale
    if expect["b"] is None:
        source = ["--class", expect["class"]]
    else:
        source = ["--b", str(expect["b"])]
    grid = _grid(rng, wide=slot == "wide")
    point = (round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
    calls = (
        ("classify", "--derivation", json.dumps(rows)),
        ("curvature", *source, "--grid", grid),
    )
    expect["grid"] = grid
    return Op(index, "space", calls, expect, point)


def _bad_op(index: int, rng: random.Random) -> Op:
    """Realistic bad input: a homothety derivation (no invariant metric
    exists) or a matrix that breaks the derivation law."""
    if rng.random() < 0.5:
        c = rng.choice([Fraction(0), _small_rational(rng)])
        d = Derivation.from_rows([[2 * c, 0, 0], [0, c, 0], [0, 0, c]])
        d = _conjugate_twice(d, rng, False).plus_inner(_small_rational(rng), _small_rational(rng))
        expect = {"error": "NoInvariantMetric"}
    else:
        d = _conjugate_twice(Derivation.canonical(_space_b(rng, False)), rng, False)
        m = [list(row) for row in d.matrix]
        m[1][0] += _small_rational(rng)  # A(Z) gains an X component
        d = Derivation.from_rows(m)
        expect = {"error": "ValueError"}
    return Op(index, "bad", (("classify", "--derivation", json.dumps(d.to_json())),), expect)


# b ranges of the incomplete slots, as (low, high, low open); |b| <= 10
B_RANGES = {
    "hyperbolic": (QUARTER, Fraction(10), True),
    "hyperbolic-small": (QUARTER, Fraction(1), True),
    "hyperbolic-large": (Fraction(4), Fraction(7), False),
    "elliptic": (Fraction(-10), QUARTER, False),
    "elliptic-small": (Fraction(-2), QUARTER, False),
    "elliptic-large": (Fraction(-9), Fraction(-6), False),
}


def _b_in_class(rng: random.Random, klass: str) -> Fraction:
    """b = p/q with q <= 9 inside the slot's range: hyperbolic ranges run
    up from just above -1/4 (0 excluded: that is the flat class), elliptic
    ones up to just below -1/4."""
    if klass == "b2":
        return Fraction(2)
    if klass == "parabolic":
        return QUARTER
    low, high, low_open = B_RANGES[klass]
    q = rng.randint(1, 9)
    p_low = math.floor(low * q) + 1 if low_open else math.ceil(low * q)
    p_high = math.floor(high * q)
    if high == QUARTER:
        p_high = math.ceil(high * q) - 1  # strictly below -1/4
    p = 0
    while p == 0:
        p = rng.randint(p_low, p_high)
    return Fraction(p, q)


def _incomplete_op(index: int, slot: tuple, rng: random.Random) -> Op:
    family, klass = slot
    b = _b_in_class(rng, klass)
    seed = rng.randrange(2**31)
    calls = ((
        "geodesic", "--b", str(b), "--family", family,
        "--count", str(INCOMPLETE_COUNT), "--seed", str(seed),
    ),)
    expect = {
        "b": b,
        "class": class_of(b),
        "family": family,
        "count": INCOMPLETE_COUNT,
        "seed": seed,
        "verdict": "complete" if family == "dv_orbit" else "incomplete",
    }
    return Op(index, "family", calls, expect)


def _symmetric_op(index: int, slot: tuple, rng: random.Random) -> Op:
    klass, what = slot
    expect = {"b": None, "class": klass}
    if what == "trajectory":
        sign = rng.choice([-1.0, 1.0])
        init = (
            round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3),
            round(sign * rng.uniform(0.6, 0.8), 3), round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3),
        )
        expect["init"] = init
        expect["span"] = float(TRAJECTORY_SPAN)
        init_arg = ",".join(repr(c) for c in init)
        calls = (("geodesic", "--class", klass, "--init", init_arg, "--span", TRAJECTORY_SPAN),)
        return Op(index, "trajectory", calls, expect)
    seed = rng.randrange(2**31)
    calls = ((
        "geodesic", "--class", klass, "--family", what,
        "--count", str(SYMMETRIC_COUNT), "--seed", str(seed),
    ),)
    expect.update(family=what, count=SYMMETRIC_COUNT, seed=seed, verdict="complete")
    return Op(index, "family", calls, expect)


_MAKERS = {"space": _space_op, "incomplete": _incomplete_op, "symmetric": _symmetric_op}


def op_stream(workload: str, seed: int):
    """The endless op list of a workload: block after block of its slots."""
    slots = SLOTS[workload]
    make = _MAKERS[workload]
    block = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{block}")
        order = list(slots)
        rng.shuffle(order)
        for j, slot in enumerate(order):
            yield make(block * len(slots) + j, slot, rng)
        block += 1


def first_ops(workload: str, seed: int, n: int) -> list[Op]:
    stream = op_stream(workload, seed)
    return [next(stream) for _ in range(n)]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def call_cli(argv) -> tuple[int, str]:
    """``lorentz3.cli.main`` in-process, stdout captured."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors by exiting 2
        code = exc.code
    return code, buf.getvalue()


def run_op(op: Op) -> Outcome:
    """Run one op; a call that exits non-zero ends the op there."""
    outcome = Outcome()
    for argv in op.calls:
        code, out = call_cli(argv)
        outcome.outputs.append((code, out))
        if code != 0:
            return outcome
    if op.fd_point is not None:
        metric_fn = partial(metric_at, chart_for(op.expect))
        outcome.fd = (riemann_fd(metric_fn, op.fd_point), christoffels_fd(metric_fn, op.fd_point))
    return outcome
