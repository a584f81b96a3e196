"""Guards on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lorentz3"


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assertions():
    # both vanish or mislead under python -O; checks belong in the verify
    # registry and the tests
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders


def test_package_reads_no_environment():
    # how strict a check or a verdict is lives in the code: no variable in
    # the environment may change it
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"\b(environb?|getenvb?)\b", path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders


def test_commands_do_not_load_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the
    # commands import, the geodesic ones included
    code = (
        "import contextlib, io, sys\n"
        "from lorentz3.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['classify', '--b', '2']) == 0\n"
        "    assert main(['curvature', '--b', '2', '--point', '1,0,0']) == 0\n"
        "    assert main(['geodesic', '--b', '2', '--family', 'timelike', '--count', '1']) == 0\n"
        "    assert main(['geodesic', '--class', 'CahenWallachElliptic', '--init', '1,0,1,1,0,0']) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False", out.stdout + out.stderr


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _imports(paths, offending):
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}: {m}" for m in _imported_modules(tree) if offending(m.split("."))]
    return offenders


def test_closed_form_layer_never_imports_its_oracle():
    # findiff checks the closed forms; a closed form built on findiff would
    # make that comparison circular
    paths = [SRC / "geometry" / name for name in ("charts.py", "curvature.py", "killing.py", "transforms.py")]
    offenders = _imports(paths, lambda parts: "findiff" in parts)
    assert not offenders, offenders


def test_package_never_imports_scipy():
    # the runtime dependency is numpy alone; scipy checks the integrator in
    # the tests
    offenders = _imports(sorted(SRC.rglob("*.py")), lambda parts: parts[0] == "scipy")
    assert not offenders, offenders


def test_exact_and_tensor_layers_never_import_the_geodesic_layer():
    # the closed forms and the exact layer must stay importable, and fast to
    # import, without the integrator
    paths = sorted((SRC / "geometry").glob("*.py")) + [
        SRC / f"{name}.py" for name in ("lie_core", "metric_builder", "classifier")
    ]
    offenders = _imports(paths, lambda parts: "geodesics" in parts)
    assert not offenders, offenders


def test_geometry_exports_resolve():
    import lorentz3.geometry as geometry

    missing = [name for name in geometry.__all__ if not hasattr(geometry, name)]
    assert not missing, missing


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the traced benchmark run patches these names; one deleted from the
    # package would break that run and nothing else
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    import layers
    import spans

    missing = [
        f"{getattr(namespace, '__name__', namespace)}.{attr}"
        for namespace, attr, _ in layers.replacements(spans.Recorder(), layers.Counters())
        if not callable(getattr(namespace, attr, None))
    ]
    assert not missing, missing


def test_benchmark_oracle_counter_counts_stencils(monkeypatch):
    # the traced run counts findiff.partial_derivative calls made inside
    # the oracle: one per stencil, so one from christoffels_fd and one from
    # riemann_fd per oracle spot check
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    import layers
    import spans
    import workloads

    recorder = spans.Recorder(store_spans=False)
    op = workloads.Op(0, "space", (), {"b": 2}, (1.0, 0.5, -0.5))
    with spans.patched(layers.replacements(recorder, layers.Counters())):
        assert workloads.run_op(op).fd is not None
    assert recorder.totals["geometry.findiff.partial_derivative"].calls == 2
    assert recorder.totals["geometry.findiff.riemann_fd"].calls == 1


def test_benchmark_step_counter_reads_the_records(monkeypatch):
    # the traced run counts steps and integrations off the records that
    # solve_ivp and integrate_geodesic return; a renamed field still
    # resolves as a trace target but breaks every traced geodesic op
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    import layers
    import spans

    from lorentz3 import geodesics
    from lorentz3.geometry import PowerLaw

    recorder, counters = spans.Recorder(store_spans=False), layers.Counters()
    with spans.patched(layers.replacements(recorder, counters)):
        report = geodesics.completeness_report(PowerLaw(2.0), ("timelike", "dv_orbit"), count=2, seed=3)
    records = [rec for fam in report["verdicts"].values() for rec in fam["details"]]
    # a timelike sample hits u -> 0 on its first run, a d_v orbit runs both ways
    assert counters.integrations == recorder.totals["geodesics.integrate_geodesic"].calls == 2 + 2 * 2
    assert counters.steps == sum(rec["nsteps"] for rec in records) > 0
    assert counters.boundary_hits == sum("boundary_affine_time" in rec for rec in records) == 2
