"""Where the traced run wraps the package, and the per-layer metrics it
reports.

Each wrapper sits in the namespace of the module that makes the call
(``classifier.build_invariant_metric`` wraps the calls ``classifier``
makes), so a function is traced only where the layer above calls it.
The benchmark's own calls into the surface and the oracle are wrapped in
the ``workloads`` module.
"""

from __future__ import annotations

from functools import partial, wraps

import lorentz3.cli as cli
from lorentz3 import classifier, geodesics, lie_core, metric_builder
from lorentz3.geometry import findiff

import workloads


def _observed(fn, after):
    """``fn`` with ``after(result)`` called on each result."""

    @wraps(fn)
    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result)
        return result

    return observed


class Counters:
    """Work the wrappers read off return values."""

    def __init__(self):
        self.steps = 0
        self.integrations = 0
        self.boundary_hits = 0

    def on_solve(self, sol) -> None:
        self.steps += len(sol.t) - 1  # sol.t holds t0 and each accepted step

    def on_geodesic(self, res) -> None:
        self.integrations += 1
        self.boundary_hits += res.terminated == "hit_domain_boundary"


def replacements(recorder, counters: Counters) -> list:
    """(namespace, attribute, make wrapper) for :func:`spans.patched`.

    The observers come first, so each span wrapper sits on top of an
    observer and the observer's small cost counts inside that span."""
    spans = [
        (workloads, "cli_main", "cli.main", False),
        (cli, "space_report", "classifier.space_report", False),
        (classifier, "classify", "classifier.classify", False),
        (classifier, "normalize_to_canonical", "lie_core.normalize_to_canonical", False),
        (classifier, "build_invariant_metric", "metric_builder.build_invariant_metric", False),
        (classifier, "has_transverse_subalgebra", "metric_builder.has_transverse_subalgebra", False),
        (metric_builder, "admits_metric", "metric_builder.admits_metric", False),
        (metric_builder, "extend_algebra", "lie_core.extend_algebra", False),
        (lie_core, "jacobi_residual", "lie_core.jacobi_residual", True),
        (cli, "riemann_tensor", "geometry.curvature.riemann_tensor", False),
        (cli, "covariant_R_derivative", "geometry.curvature.covariant_R_derivative", False),
        (cli, "killing_residual", "geometry.killing.killing_residual", False),
        (workloads, "riemann_fd", "geometry.findiff.riemann_fd", False),
        (workloads, "christoffels_fd", "geometry.findiff.christoffels_fd", False),
        (findiff, "partial_derivative", "geometry.findiff.partial_derivative", True),
        (geodesics, "completeness_report", "geodesics.completeness_report", False),
        (geodesics, "integrate_geodesic", "geodesics.integrate_geodesic", False),
        (geodesics, "solve_ivp", "geodesics.solve_ivp", False),
        (geodesics, "geodesic_rhs", "geodesics.geodesic_rhs", True),
        (geodesics, "metric_at", "geodesics.metric_at", True),
        (geodesics.GeodesicResult, "csv_rows", "geodesics.csv_rows", False),
    ]
    return [
        (geodesics, "solve_ivp", partial(_observed, after=counters.on_solve)),
        (geodesics, "integrate_geodesic", partial(_observed, after=counters.on_geodesic)),
    ] + [
        (namespace, attr, partial(recorder.wrap, name, counted=counted))
        for namespace, attr, name, counted in spans
    ]


# span name -> reported fields: "calls", "s" (inclusive), "self_s"
REPORTED = {
    "cli.main": ("calls", "self_s"),
    "classifier.space_report": ("s", "self_s"),
    "classifier.classify": ("s",),
    "metric_builder.build_invariant_metric": ("s",),
    "metric_builder.admits_metric": ("s",),
    "metric_builder.has_transverse_subalgebra": ("s",),
    "lie_core.normalize_to_canonical": ("s",),
    "lie_core.extend_algebra": ("calls", "s"),
    "lie_core.jacobi_residual": ("calls",),
    "geometry.curvature.riemann_tensor": ("calls", "s"),
    "geometry.curvature.covariant_R_derivative": ("calls", "s"),
    "geometry.killing.killing_residual": ("calls", "s"),
    "geometry.findiff.riemann_fd": ("s",),
    "geometry.findiff.christoffels_fd": ("s",),
    "geometry.findiff.partial_derivative": ("calls",),
    "geodesics.completeness_report": ("s",),
    "geodesics.integrate_geodesic": ("calls", "s", "self_s"),
    "geodesics.solve_ivp": ("s",),
    "geodesics.geodesic_rhs": ("calls", "s"),
    "geodesics.metric_at": ("calls",),
    "geodesics.csv_rows": ("s",),
}


def layer_metrics(first_pass: dict, all_passes: dict, passes: int, counters: dict) -> dict:
    """Per-layer metrics for one pass over the traced block.

    Counts come from the first traced pass, so they are exact; times are
    the mean over all traced passes.  ``first_pass`` and ``all_passes``
    map span name -> :class:`spans.Totals`; ``counters`` holds the
    :class:`Counters` fields after the first pass.
    """
    out = {}
    for name, fields in REPORTED.items():
        first, total = first_pass.get(name), all_passes.get(name)
        for f in fields:
            key = f"{name}.{f}"
            if f == "calls":
                out[key] = first.calls if first else 0
            elif f == "s":
                out[key] = total.seconds / passes if total else 0.0
            else:
                out[key] = total.self_seconds / passes if total else 0.0
    steps = counters["steps"]
    out["geodesics.steps"] = steps
    out["geodesics.rhs_per_step"] = out["geodesics.geodesic_rhs.calls"] / steps if steps else 0.0
    hits, integrations = counters["boundary_hits"], counters["integrations"]
    out["geodesics.boundary_hit_frac"] = hits / integrations if integrations else 0.0
    return out
