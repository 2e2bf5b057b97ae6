"""One fresh interpreter of the benchmark: set up, check or run one pass.

``run.py`` starts this file as a child process for every measurement, so
each pass pays for its own imports and starts with cold ``lru_cache``s,
exactly like one ``qbailey catalog`` invocation.  The request is one JSON
object on stdin, after the path of the checkout's ``src/`` as the only
argument; the reply is one JSON object on the last line of stdout.

Modes:

  setup  import qbailey's command line from the checkout's ``src/`` (every
         layer comes with it) and load the registry
  check  the golden catalog, the negative controls and the canonical cells
  pass   verify the given cells in the given order, optionally traced

A pass ends with ``calibrate()``, which times a fixed computation in the
same interpreter, so that run.py can tell a slower machine from a slower
program.

Only ``sys`` and ``time`` are imported before the set-up clock starts, so
``setup_s`` is the cost of importing qbailey and loading its registry.
"""

import sys
import time

# Sizes of the three workloads; ``tiny`` is the self-test's quick mode.
WORKLOADS = {
    "deep_order": {"kind": "catalog", "max_level": 7, "order": 120},
    "wide_level": {"kind": "catalog", "max_level": 31, "order": 30},
    "move_engine": {"kind": "moves", "max_k": 2, "order": 20, "n_max": 3},
}
TINY = {
    "deep_order": {"kind": "catalog", "max_level": 4, "order": 24},
    "wide_level": {"kind": "catalog", "max_level": 10, "order": 10},
    "move_engine": {"kind": "moves", "max_k": 1, "order": 10, "n_max": 2},
}

GOLDEN = "goldens/catalog_level7_order80.json"
GOLDEN_ARGV = ["catalog", "--max-level", "7", "--order", "80", "--format", "json"]
CONTROL_ORDER = 40


def calibrate(rounds: int = 9) -> float:
    """Median time of a fixed pure-Python computation shaped like the
    engine's hot path, a dict-based integer convolution.  It does not use
    qbailey, so only the machine's speed moves it; run.py scales every time
    by it."""
    a0 = {e: (e * 7919) % 1000 - 500 for e in range(90)}
    b = sorted({e: (e * 104729) % 997 - 498 for e in range(90)}.items())
    times = []
    for _ in range(rounds):
        a = a0
        t = time.perf_counter()
        for _ in range(12):
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b:
                    e = e1 + e2
                    if e > 120:
                        break
                    out[e] = get(e, 0) + c1 * c2
            a = {e: c % 100003 for e, c in out.items() if e < 90}
        times.append(time.perf_counter() - t)
    return sorted(times)[rounds // 2]


def _setup(src: str) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import qbailey.cli  # noqa: F401  (what `qbailey catalog` imports)
    from qbailey.bailey import load_registry
    load_registry()
    return time.perf_counter() - t0


def canonical_cells(spec: dict) -> list:
    """The workload's fixed cell set, in the program's own order."""
    if spec["kind"] == "catalog":
        from qbailey.records import catalog_cells
        return [list(c) for c in catalog_cells(spec["max_level"])]
    from qbailey.lattice import SCHEDULE_TABLE
    return [[pid, kind, k, i]
            for k in range(1, spec["max_k"] + 1)
            for (pid, kind), row in sorted(SCHEDULE_TABLE.items())
            for i in range(row.imax(k) + 1)]


def negative_controls() -> list:
    """Checks that must come back as failures; True marks a wrong verdict.

    Off-by-one product side: the unified alpha side of every schedule row
    at k=1, i=0 against Q(q^{level+3}, q^{-s1-2}).  Flipped sign: registry
    pair 2 with the sign of alpha~_1 flipped must fail the defining
    relation first at n=1.
    """
    from qbailey.bailey import (BaileyPair, beta_from_spec, registry_entry,
                                verify_pair)
    from qbailey.characters import schedule_module
    from qbailey.lattice import SCHEDULE_TABLE, Schedule, alpha_side
    from qbailey.laurent import monomial, zero
    from qbailey.qproducts import qtpi_product

    o = CONTROL_ORDER
    wrong = []
    for pid, kind in sorted(SCHEDULE_TABLE):
        s = Schedule(kind, 1, 0, pid)
        m = schedule_module(pid, kind, 1, 0)
        off_by_one = qtpi_product(m.level + 3, -m.s1 - 2, o)
        wrong.append(alpha_side(s, o, unified=True).eq_to_order(off_by_one, o))

    entry = registry_entry(2)

    def tilde(n, order):
        mono = entry.alpha_tilde_monomial(n)
        if mono is None:
            return zero(order)
        sign, exp = mono
        return monomial(-sign if n == 1 else sign, exp, max(order, exp))

    def beta(n, order):
        return beta_from_spec(entry.beta, n, order)

    results = verify_pair(BaileyPair(2, alpha_tilde=tilde, beta=beta), 5, o)
    wrong.append(not (results[0] and not results[1]))
    return wrong


def check(root: str, spec: dict) -> dict:
    import contextlib
    import io
    from pathlib import Path

    from qbailey import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(GOLDEN_ARGV)
    golden_ok = code == 0 and buf.getvalue().encode() == (
        Path(root, GOLDEN).read_bytes())
    return {"golden_ok": golden_ok, "controls_wrong": negative_controls(),
            "cells": canonical_cells(spec)}


def _catalog_pass(spec: dict, cells: list):
    import json

    from qbailey.records import build_record, emit_json, emit_latex

    order = spec["order"]
    clock = time.perf_counter
    cell_s, records = [], []
    start = clock()
    for pid, kind, k, i in cells:
        t = clock()
        records.append(build_record(pid, kind, k, i, order))
        cell_s.append(clock() - t)
    emit_json(records, spec["max_level"], order)
    emit_latex(records)
    wall = clock() - start
    ok = [r.status == "verified" for r in records]
    return wall, cell_s, ok, lambda: [
        json.dumps(r.to_json_dict(), sort_keys=True) for r in records]


def _moves_pass(spec: dict, cells: list):
    from qbailey.bailey import apply_moves, registry_pair
    from qbailey.lattice import Schedule, expand_schedule, sum_side_finite

    order, ns = spec["order"], range(spec["n_max"] + 1)
    clock = time.perf_counter
    cell_s, ok, betas = [], [], []
    start = clock()
    for pid, kind, k, i in cells:
        t = clock()
        s = Schedule(kind, k, i, pid)
        moved = apply_moves(registry_pair(pid), expand_schedule(s))
        got = [moved.beta(n, order) for n in ns]
        same = [sum_side_finite(s, n, order).eq_to_order(b, order)
                for n, b in zip(ns, got)]
        cell_s.append(clock() - t)
        ok.append(all(same))
        betas.append(got)
    wall = clock() - start
    return wall, cell_s, ok, lambda: [
        " | ".join(b.to_text() for b in got) for got in betas]


def run_pass(req: dict) -> dict:
    import hashlib
    import resource

    tracer = None
    if req["trace"]:
        from tracer import Tracer
        tracer = Tracer(req["run_id"])
        tracer.install()
    body = _catalog_pass if req["spec"]["kind"] == "catalog" else _moves_pass
    try:
        wall, cell_s, ok, render = body(req["spec"], req["cells"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The digest is over cells in canonical order, so every pass of a run
    # must give the same one whatever order it verified the cells in.
    keyed = sorted(zip(map(tuple, req["cells"]), render()))
    digest = hashlib.sha256("\n".join(f"{c} {o}" for c, o in keyed)
                            .encode()).hexdigest()
    out = {"wall_s": wall, "cell_s": cell_s, "ok": ok, "digest": digest,
           "rss_mb": rss_mb}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if req.get("spans_path"):
            tracer.write_spans(req["spans_path"])
    return out


def main() -> int:
    setup_s = _setup(sys.argv[1])
    import json

    import qbailey

    req = json.loads(sys.stdin.read())

    reply = {"setup_s": setup_s, "qbailey_file": qbailey.__file__}
    if req["mode"] == "check":
        reply.update(check(req["root"], req["spec"]))
    elif req["mode"] == "pass":
        reply.update(run_pass(req))
        reply["cal_s"] = calibrate()
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
