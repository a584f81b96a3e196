"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workloads space,incomplete,symmetric] [--seeds 10]

Runs ``run.py`` once per seed on each workload, one run at a time, and
reports for every end-to-end metric the median and the spread (distance
between the first and third quartile, as a share of the median).  Then
runs the traced run twice with the first seed and asserts that the exact
work counters agree.  Exits 1 when a run fails, a spread exceeds its bound
or a counter differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 101

# Counters that must repeat exactly for a fixed seed.
EXACT_COUNTERS = (
    "geodesics.geodesic_rhs.calls",
    "geodesics.steps",
    "geodesics.metric_at.calls",
    "geometry.findiff.partial_derivative.calls",
    "lie_core.extend_algebra.calls",
)


class RunFailed(Exception):
    pass


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        # run.py limits its own workers; this only guards against a hang there
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120 + 4 * seconds)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{cmd} did not finish") from None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result.get("correct"):
        raise RunFailed(f"{cmd} exited {proc.returncode}: {proc.stdout[-3000:]} {proc.stderr[-2000:]}")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            start = time.monotonic()
            try:
                runs.append(run(workload, seed, 0, seconds))
            except RunFailed as exc:
                ok = False
                print(f"{workload:<10} seed {seed}: FAILED {exc}", flush=True)
                continue
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in runs[-1]["metrics"].items())
            print(f"{workload:<10} seed {seed}: {values} wall_s={time.monotonic() - start:.1f}", flush=True)
        for name, bound in bounds.items() if len(runs) >= 2 else ():
            median, share = spread([r["metrics"][name]["value"] for r in runs])
            verdict = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            ok = ok and share <= bound
            print(f"{workload:<10} {name:<12} median {median:12.6g}  spread {share:7.2%}  bound {bound:.0%}  {verdict}",
                  flush=True)
        try:
            first, second = ({k: m["value"] for k, m in run(workload, FIRST_SEED, 1, seconds)["metrics"].items()}
                             for _ in range(2))
        except RunFailed as exc:
            ok = False
            print(f"{workload:<10} traced run FAILED {exc}", flush=True)
            continue
        for name in EXACT_COUNTERS:
            same = first[name] == second[name]
            ok = ok and same
            print(f"{workload:<10} {name:<44} {first[name]} vs {second[name]}  {'same' if same else 'DIFFERENT'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
