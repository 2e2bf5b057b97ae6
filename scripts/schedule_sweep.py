#!/usr/bin/env python3
"""Sweep the full identity table and time each cell.

Verifies the complete sum-side / alpha-side / character chain for every
(pair, family, k, i) cell with k up to --max-k, printing one line per cell.

    python3 scripts/schedule_sweep.py --max-k 3 --order 40
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from qbailey.characters import schedule_module, verify_character_identity  # noqa: E402
from qbailey.lattice import SCHEDULE_TABLE  # noqa: E402


def run(max_k: int, order: int) -> int:
    failures = 0
    t_total = time.time()
    for k in range(1, max_k + 1):
        for (pid, kind), row in sorted(SCHEDULE_TABLE.items()):
            for i in range(row.imax(k) + 1):
                t0 = time.time()
                ok = verify_character_identity(pid, kind, k, i, order)
                m = schedule_module(pid, kind, k, i)
                status = "ok" if ok else "FAIL"
                print(f"pair {pid} {kind} k={k} i={i:2d}  level {m.level:2d} "
                      f"module ({m.s0},{m.s1})  {status}  "
                      f"{time.time() - t0:6.2f}s")
                failures += not ok
    print(f"total {time.time() - t_total:.1f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--order", type=int, default=40)
    args = ap.parse_args()
    sys.exit(run(args.max_k, args.order))
