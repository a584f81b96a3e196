"""The lorentz3 benchmark.

    python3 perfbench/run.py --workload space --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout: the package is imported from ``src``.
Each workload runs in fresh worker processes (``worker.py``), one at a
time, as a closed loop with one client.  Set-up time is the median over
``SETUP_REPS`` fresh interpreters, each timed from its start until
``lorentz3.cli`` is imported and the workload's warm-up op has finished.
Times are calibrated against the host's speed (see ``calibrate.py``).
The first ops of the stream run again in another fresh interpreter, with
its own hash seed; their stdout must be byte-identical.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance.  The exit code is 1 when an output check
failed or a worker did not finish, 2 when the checkout has no package
to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibrate import probe, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7
TAIL_MIN_ABOVE = 10  # op_tail_ms: highest percentile with this many samples above it
SHORT_TIMEOUT_S = 60  # a set-up or replay worker


def stream_timeout(seconds: float) -> float:
    """Limit for a worker that runs ``seconds`` of ops: checks and probe
    readings between the ops take time of their own."""
    return 30 + 2 * seconds


class WorkerFailed(Exception):
    """A worker exited non-zero or did not finish in time."""


def _worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON.
    Returns the result and the perf_counter time the process was started.
    Each worker gets its own hash seed, since PYTHONHASHSEED is unset."""
    env = dict(os.environ)
    env.pop("LORENTZ3_TOL", None)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"  # one op at a time, no threads
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker {args} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def measure_setup(workload: str) -> dict:
    """Median calibrated set-up time over fresh interpreters.  perf_counter
    is the system-wide monotonic clock, so parent and child times compare;
    each rep is calibrated by probes read here, before the child starts and
    after it has ended."""
    totals, imports, first_ops, raw, codes = [], [], [], [], []
    for _ in range(SETUP_REPS):
        before = probe()
        res, started = _worker(["setup", workload], SHORT_TIMEOUT_S)
        k = scale(before, probe())
        raw.append(res["t_done"] - started)
        totals.append(k * (res["t_done"] - started))
        imports.append(k * (res["t_import"] - started))
        first_ops.append(k * (res["t_done"] - res["t_import"]))
        codes.append(res["code"])
    return {
        "setup_s": statistics.median(totals),
        "import_s": statistics.median(imports),
        "first_op_s": statistics.median(first_ops),
        "raw_setup_s": statistics.median(raw),
        "ok": all(code == 0 for code in codes),
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above): the highest percentile that
    still has TAIL_MIN_ABOVE samples above it, or the maximum when there
    are fewer samples than that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_MIN_ABOVE:
        return ordered[-1], 100.0, 0
    i = n - 1 - TAIL_MIN_ABOVE
    return ordered[i], 100.0 * i / (n - 1), TAIL_MIN_ABOVE


def provenance(workload: str, seed: int, trace: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "machine": platform.machine(),
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def replay_problems(workload: str, seed: int, digests: list) -> list:
    """Ops whose stdout differs when they run again in another interpreter."""
    again, _ = _worker(["replay", workload, str(seed)], SHORT_TIMEOUT_S)
    return [
        {"op": i, "problems": ["stdout differs between two runs"]}
        for i, (first, second) in enumerate(zip(digests, again["digests"]))
        if first != second
    ]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    notes = {"provenance": provenance(workload, seed, trace)}
    try:
        result = _measure(workload, seed, seconds, trace, notes, out_dir / f"{stem}.spans.json")
    except WorkerFailed as exc:
        notes["problems"] = [str(exc)]
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    (out_dir / f"{stem}.json").write_text(json.dumps({**notes, **result}, indent=1))
    return {"notes": notes, "result": result}


def _measure(workload: str, seed: int, seconds: float, trace: int, notes: dict, spans_path: Path) -> dict:
    setup = measure_setup(workload)
    if trace:
        res, _ = _worker(["traced", workload, str(seed), str(seconds), str(spans_path)], stream_timeout(seconds))
        metrics = {
            "setup.import_s": setup["import_s"],
            "setup.first_op_s": setup["first_op_s"],
            **res["metrics"],
        }
        attempted = res["attempted"]
    else:
        res, _ = _worker(["stream", workload, str(seed), str(seconds)], stream_timeout(seconds))
        replayed = replay_problems(workload, seed, res["digests"])
        res["failed"] += len(replayed)
        res["problems"] += replayed
        lat, wall = res["calibrated"], res["latencies"]
        attempted = len(lat)
        value, pct, above = tail(lat)
        notes["op_tail"] = {"percentile": round(pct, 3), "samples": len(lat), "samples_above": above}
        metrics = {
            "setup_s": setup["setup_s"],
            "ops_per_s": attempted / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * value,
            "ok_frac": 1.0 - res["failed"] / attempted,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        notes["failed_frac"] = res["failed"] / attempted
        notes["wall"] = {  # the same figures before calibration
            "setup_s": setup["raw_setup_s"],
            "ops_per_s": attempted / sum(wall),
            "op_p50_ms": 1e3 * statistics.median(wall),
            "op_tail_ms": 1e3 * tail(wall)[0],
            "host_slowdown": statistics.median(w / c for w, c in zip(wall, lat)),
        }
    failed = res["failed"] + (0 if setup["ok"] and res["warmup_code"] == 0 else 1)
    notes["problems"] = res["problems"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print(run: dict, units: dict) -> None:
    notes, result = run["notes"], run["result"]
    workload = notes["provenance"]["workload"]
    for name, value in result["metrics"].items():
        print(f"{workload:<10} {name:<48} {value:>14.6g} {units.get(name, '')}")
    if "op_tail" in notes:
        print(f"{workload:<10} failed_frac {notes['failed_frac']:.6g}; op_tail_ms at p{notes['op_tail']['percentile']}"
              f" of {notes['op_tail']['samples']} ops")
    for problem in notes["problems"]:
        print(f"{workload:<10} FAILED {json.dumps(problem)}")
    print(json.dumps(notes))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="lorentz3 benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lorentz3" / "__init__.py").is_file():
        print(f"no lorentz3 package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = [
        run_workload(w, args.seed, args.seconds, args.trace)
        for w in (names if args.workload == "all" else [args.workload])
    ]
    for run in runs:
        _print(run, units)
    prefix = len(runs) > 1  # with --workload all, names are workload.metric
    print(json.dumps({
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {
            (f"{r['notes']['provenance']['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
            for r in runs for k, v in r["result"]["metrics"].items()
        },
    }))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
