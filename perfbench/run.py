"""End-to-end and per-layer benchmark of qbailey's exact verification.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload deep_order --seed 1 --seconds 35 --trace 0

One run: a correctness check (the level-7/order-80 golden catalog byte for
byte, plus the negative controls), several set-up-only interpreters, then
timed passes until ``--seconds`` is used up.  Every pass is a fresh
interpreter that verifies the workload's whole cell set, in an order drawn
from ``--seed``, serially in one process (a closed loop with one client).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same cell orders and prints the
per-layer metrics of the traced ones, with the tracing overhead.  Times are
scaled to the reference machine's speed by a calibration timed at the end
of each pass (see CAL_REF_S).  The last line of stdout is the result
object; the line before it records what was measured (qbailey's path,
Python, nproc, seed, sample counts, the speed factor, unscaled times).

See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COMPUTED, PER_LAYER
from worker import GOLDEN, TINY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = [("wall_s", "s"), ("cells_per_s", "1/s"), ("cell_p50_ms", "ms"),
              ("cell_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 9   # set-up-only interpreters per untraced run, besides passes
MIN_PASSES = 3      # whatever --seconds allows
RUN_LIMIT_S = 170   # a run gives up rather than pass the 180 s limit
# worker.calibrate() measured right after a pass on the reference machine
# (2-core KVM guest, Python 3.11.7).  Each pass's times are scaled by
# CAL_REF_S / that pass's calibration: the reference machine's speed drifts
# by up to 30% over minutes, and the program and the fixed calibration slow
# down together.
CAL_REF_S = 0.012


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    # qbailey must come from this checkout, with its defaults: drop the
    # interpreter's and qbailey's own environment settings.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "QBAILEY_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(request: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before a {request['mode']} worker")
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(HERE / "worker.py"), str(SRC)],
            input=json.dumps(request), capture_output=True, text=True,
            timeout=timeout, env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{request['mode']} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{request['mode']} worker exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(reply["qbailey_file"]).resolve() != (SRC / "qbailey" / "__init__.py"):
        raise BenchError(f"imported a stale qbailey: {reply['qbailey_file']}")
    return reply


def measure(args, spec, cells, deadline):
    """Timed passes until --seconds is used; returns (plain, traced)."""
    rng = random.Random(args.seed)
    plain, traced = [], []
    kinds = [False, True] if args.trace else [False]
    start, last = time.monotonic(), 0.0
    # Start another pass (or traced pair) only if it should end in time.
    while (len(plain) < MIN_PASSES
           or time.monotonic() - start + last <= args.seconds):
        order = rng.sample(cells, len(cells))
        t0 = time.monotonic()
        for traced_pass in kinds:
            req = {"mode": "pass", "spec": spec, "cells": order,
                   "trace": traced_pass, "run_id": len(plain)}
            if traced_pass:
                req["spans_path"] = str(OUT / f"spans-{args.workload}.tsv")
            (traced if traced_pass else plain).append(
                call_worker(req, deadline))
        last = time.monotonic() - t0
    return plain, traced


def speed(reply) -> float:
    """Factor that takes a pass's times to the reference machine's speed."""
    return CAL_REF_S / reply["cal_s"]


def end_to_end(plain, setups, run_speed):
    ncells = len(plain[0]["cell_s"])
    walls = [p["wall_s"] * speed(p) for p in plain]
    cell_ms = sorted(1000 * t * speed(p) for p in plain for t in p["cell_s"])
    deciles = statistics.quantiles(cell_ms, n=10, method="inclusive")
    values = {
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median([ncells / w for w in walls]),
        "cell_p50_ms": statistics.median(cell_ms),
        "cell_p90_ms": deciles[8],
        "setup_s": statistics.median(r["setup_s"] for r in setups) * run_speed,
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in plain]),
    }
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}


def per_layer(plain, traced):
    values = {n: statistics.median(t["layers"][n] * (speed(t) if u == "s" else 1)
                                   for t in traced)
              for n, u in PER_LAYER if n in traced[0]["layers"]}
    values["trace_overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain))
    return {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: every metric, in seconds")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    for need in (SRC / "qbailey" / "__init__.py", ROOT / GOLDEN):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a "
                  "full checkout", file=sys.stderr)
            return 2
    spec = (TINY if args.tiny else WORKLOADS)[args.workload]
    if args.trace:
        OUT.mkdir(exist_ok=True)

    try:
        check = call_worker({"mode": "check", "root": str(ROOT), "spec": spec},
                            deadline)
        setups = [] if args.trace else [
            call_worker({"mode": "setup"}, deadline)
            for _ in range(SETUP_SAMPLES)]
        plain, traced = measure(args, spec, check["cells"], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    verdicts = [ok for p in passes for ok in p["ok"]]
    controls = check["controls_wrong"]
    wrong = (sum(not ok for ok in verdicts) + sum(controls)
             + (not check["golden_ok"]))
    attempted = len(verdicts) + len(controls) + 1
    digests = {p["digest"] for p in passes}
    setups += plain
    run_speed = statistics.median(speed(p) for p in plain)
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(plain, setups, run_speed))
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sizes": spec, "cells": len(check["cells"]),
        "passes": len(plain), "traced_passes": len(traced),
        "cell_samples": sum(len(p["cell_s"]) for p in plain),
        "setup_samples": len(setups),
        "golden_ok": check["golden_ok"],
        "controls": len(controls), "controls_caught": len(controls) - sum(controls),
        "verdict_error_share": wrong / attempted,
        "digests_agree": len(digests) == 1,
        "computed_not_measured": list(COMPUTED) if args.trace else [],
        "speed_factor": run_speed,
        "unscaled_wall_s": statistics.median(p["wall_s"] for p in plain),
        "unscaled_setup_s": statistics.median(r["setup_s"] for r in setups)
                            if setups else None,
        "qbailey_file": check["qbailey_file"],
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": wrong == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
