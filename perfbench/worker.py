"""One workload in one fresh interpreter; started by ``run.py``.

    worker.py setup WORKLOAD                     import + warm-up op, then exit
    worker.py stream WORKLOAD SEED SECONDS        timed closed loop, untraced
    worker.py replay WORKLOAD SEED                the first ops again, untimed
    worker.py traced WORKLOAD SEED SECONDS PATH   per-layer run, spans to PATH

Each mode prints one JSON object as its last stdout line.  The package
must be importable (``run.py`` puts the checkout's ``src`` on the path).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

# The fixed warm-up op of each workload: set-up time is measured up to its end.
WARMUP = {
    "space": ["classify", "--derivation", '[["1", "0", "0"], ["0", "0", "1"], ["0", "2", "1"]]'],
    "incomplete": ["geodesic", "--b", "2", "--family", "timelike", "--count", "1", "--seed", "1"],
    "symmetric": [
        "geodesic", "--class", "CahenWallachHyperbolic", "--init", "1,0,0.5,1,-0.3,0.2", "--span", "50",
    ],
}
# The first ops of the list run again in a second interpreter, with its own
# hash seed; their stdout must be byte-identical.
DETERMINISM_OPS = 3
TRACED_BLOCK = {"space": 40, "incomplete": 16, "symmetric": 12}


def setup(workload: str) -> dict:
    import lorentz3.cli

    t_import = time.perf_counter()
    code = lorentz3.cli.main(list(WARMUP[workload]))
    t_done = time.perf_counter()
    return {"t_import": t_import, "t_done": t_done, "code": code}


def _timed(op):
    import traceback

    from workloads import Outcome, run_op

    start = time.perf_counter()
    try:
        outcome = run_op(op)
    except Exception:  # an exception the program was not expected to raise
        outcome = Outcome(error=traceback.format_exc(limit=4))
    return time.perf_counter() - start, outcome


def _peak_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _stdout_of(outcome) -> list:
    return [out for _, out in outcome.outputs]


def _digests(outcome) -> list[str]:
    return [hashlib.sha256(out.encode()).hexdigest() for out in _stdout_of(outcome)]


def _check_all(checker, ops, outcomes, problems: list) -> int:
    failed = 0
    for op, outcome in zip(ops, outcomes):
        found = checker.check(op, outcome)
        if found:
            failed += 1
            problems.append({"op": op.index, "argv": op.calls, "problems": found[:3]})
    return failed


def _warm_up(workload: str) -> int:
    """Run the warm-up op, then move every object alive into the
    collector's permanent generation.  A full collection then scans what
    the ops leave behind, not the modules and schemas imported before:
    unfrozen, the four or so full collections of a space run took 25-45 ms
    each, landed inside ops and made up much of its latency tail."""
    import gc

    from workloads import call_cli

    code = call_cli(WARMUP[workload])[0]
    gc.collect()
    gc.freeze()
    return code


def stream(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop, one client: ops run back to back until their summed
    wall time reaches ``seconds``.  Outputs are checked between ops and the
    probe is read between ops, both untimed; each op's calibrated latency
    is its wall time scaled by the readings on either side of it."""
    from calibrate import Prober, scale
    from checks import Checker
    from workloads import op_stream

    checker = Checker()
    warm_code = _warm_up(workload)
    latencies, calibrated, problems, digests = [], [], [], []
    failed = 0
    busy = 0.0
    with Prober() as probe:
        before = probe()
        for op in op_stream(workload, seed):
            dt, outcome = _timed(op)
            after = probe()
            latencies.append(dt)
            calibrated.append(dt * scale(before, after))
            before = after
            busy += dt
            failed += _check_all(checker, [op], [outcome], problems)
            if op.index < DETERMINISM_OPS:
                digests.append(_digests(outcome))
            if busy >= seconds:
                break
    return {
        "latencies": latencies,
        "calibrated": calibrated,
        "digests": digests,
        "failed": failed,
        "problems": problems[:10],
        "warmup_code": warm_code,
        "peak_rss_kb": _peak_rss_kb(),
    }


def replay(workload: str, seed: int) -> dict:
    """The stdout digests of the first ``DETERMINISM_OPS`` ops."""
    from workloads import first_ops

    return {"digests": [_digests(_timed(op)[1]) for op in first_ops(workload, seed, DETERMINISM_OPS)]}


def traced(workload: str, seed: int, seconds: float, trace_path: str) -> dict:
    """Alternate untraced and traced passes over a fixed block of ops until
    ``seconds`` have passed.  Counts come from the first traced pass; times
    are means over the traced passes."""
    import copy

    import layers
    import spans
    from checks import Checker
    from workloads import first_ops

    checker = Checker()
    warm_code = _warm_up(workload)
    block = first_ops(workload, seed, TRACED_BLOCK[workload])
    recorder = spans.Recorder()
    counters = layers.Counters()
    problems: list = []
    tally = {"failed": 0, "plain_s": 0.0, "traced_s": 0.0}
    first: dict = {}

    def plain_pass():
        outcomes = []
        for op in block:
            dt, outcome = _timed(op)
            tally["plain_s"] += dt
            outcomes.append(outcome)
        tally["failed"] += _check_all(checker, block, outcomes, problems)

    def traced_pass():
        outcomes = []
        with spans.patched(layers.replacements(recorder, counters)):
            for op in block:
                recorder.op_id = op.index
                with recorder.span("op"):
                    dt, outcome = _timed(op)
                tally["traced_s"] += dt
                outcomes.append(outcome)
        tally["failed"] += _check_all(checker, block, outcomes, problems)
        if not first:
            first["totals"] = copy.deepcopy(recorder.totals)
            first["counters"] = dict(vars(counters))
            first["stdout_bytes"] = sum(len(out.encode()) for o in outcomes for out in _stdout_of(o))
            recorder.store_spans = False  # later passes only add to the totals

    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        # alternate which pass goes first, so neither always runs on a warmer cache
        for one_pass in (plain_pass, traced_pass) if passes % 2 == 0 else (traced_pass, plain_pass):
            one_pass()
        passes += 1
    recorder.dump(trace_path)

    metrics = layers.layer_metrics(first["totals"], recorder.totals, passes, first["counters"])
    metrics["cli.stdout_bytes"] = first["stdout_bytes"]
    for name, value in checker.guards.items():
        layer = "geometry.findiff" if name == "oracle_gap" else "geodesics"
        metrics[f"{layer}.{name}_max"] = value
    n = len(block) * passes
    metrics["trace.untraced_ops_per_s"] = n / tally["plain_s"]
    metrics["trace.traced_ops_per_s"] = n / tally["traced_s"]
    metrics["trace.overhead_ops_per_s"] = n / tally["traced_s"] - n / tally["plain_s"]
    metrics["trace.block_ops"] = len(block)
    metrics["trace.passes"] = passes
    return {
        "metrics": metrics,
        "attempted": 2 * n,
        "failed": tally["failed"],
        "problems": problems[:10],
        "warmup_code": warm_code,
        "peak_rss_kb": _peak_rss_kb(),
    }


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        result = setup(workload)
    elif mode == "stream":
        result = stream(workload, int(argv[2]), float(argv[3]))
    elif mode == "replay":
        result = replay(workload, int(argv[2]))
    else:
        result = traced(workload, int(argv[2]), float(argv[3]), argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
