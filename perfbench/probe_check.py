"""Does the calibration probe depend on the op that ran before it?

    python3 perfbench/probe_check.py [SECONDS]

Runs ops of every workload round-robin in this interpreter, with an
empty op ("idle") among them, and reads the probe right after each.
Because the kinds alternate within the same few seconds, they see the
same host speed, so each kind's median reading over the idle one shows
how much the preceding op moves the probe: 1.0 means not at all.  Rows
for the probe server that the worker uses (:class:`calibrate.Prober`) and,
for comparison, for the same loop timed in this interpreter, warmed or
not.  Run from the root of a checkout.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import Prober, _work, probe  # noqa: E402
from workloads import first_ops, run_op  # noqa: E402


def cold_probe() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    seconds = float(argv[0]) if argv else 60.0
    kinds = {w: first_ops(w, 1, 12) for w in ("space", "incomplete", "symmetric")}
    kinds["idle"] = [None]
    readers = {"server": None, "in-process warmed": probe, "in-process cold": cold_probe}
    readings = {(r, k): [] for r in readers for k in kinds}
    with Prober() as server:
        readers["server"] = server
        start, i = time.perf_counter(), 0
        while time.perf_counter() - start < seconds:
            for kind, ops in kinds.items():
                for reader, read in readers.items():
                    op = ops[i % len(ops)]
                    if op is not None:
                        run_op(op)
                    readings[reader, kind].append(read())
            i += 1
    print(f"{i} rounds; median reading after each kind of op over the median after an idle op")
    for reader in readers:
        idle = statistics.median(readings[reader, "idle"])
        ratios = "  ".join(f"{k} {statistics.median(readings[reader, k]) / idle:.4f}" for k in kinds)
        print(f"{reader:<18} {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
