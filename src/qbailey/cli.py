"""Command-line verification harness and identity emitter.

Subcommands:

  verify-pair      check a registry pair against the Bailey defining relation
  verify-identity  run the full sum/alpha/character chain for one cell
  catalog          verify and emit every identity up to a level bound
  character        print a principal character's coefficients

Exit codes: 0 success, 1 verification failure, 2 usage or range error,
3 data error (bad registry file), 4 evaluation error (a sum that ran below
its valuation floor or did not stabilize).  The environment variables
QBAILEY_ORDER and QBAILEY_REGISTRY supply a default truncation order and an
alternate registry file, which every subcommand that reads the registry
evaluates (see ``bailey.load_registry``).  ``catalog --jobs 1``, the
default, neither imports nor starts a process pool.  ``catalog`` opens its
destination once, before any cell is verified (``_open_output``): a
regular ``--output`` is replaced only once it is written whole, and
anything else, such as a named pipe, is written in place.  An unwritable
destination, like a bad QBAILEY_ORDER, is one ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from contextlib import suppress

from .bailey import RegistryError, load_registry, registry_pair, verify_pair
from .characters import ModuleLabel, char_product, char_qtpi
from .lattice import KINDS
from .records import (
    IdentityRecord,
    build_record,
    catalog_cells,
    emit_text,
    json_chunks,
    json_text,
    latex_chunks,
    record_latex,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EVAL = 4


def _default_order() -> int:
    raw = os.environ.get("QBAILEY_ORDER")
    if raw is None:
        return 40
    try:
        order = int(raw)
    except ValueError:
        raise ValueError(f"QBAILEY_ORDER must be an integer, got {raw!r}") from None
    if order < 1:
        raise ValueError(f"QBAILEY_ORDER must be at least 1, got {order}")
    return order


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


def _jobs(text: str) -> int:
    """An argparse type: a worker count of at least 1, clamped to the CPUs
    this process may run on (its affinity mask where the platform has one,
    so that a pinned or cgroup-limited run counts only its own CPUs)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(_int_at_least(1)(text), cpus)


def _open_output(path: str):
    """``catalog --output``, opened once, and the name it replaces once
    written whole.  A regular output, or a new one, is a temporary file
    beside it with the mode ``open(path, "w")`` would give.  Anything else,
    such as a named pipe, /dev/null or /dev/stdout, is opened in place and
    replaces nothing."""
    if os.path.exists(path) and not os.path.isfile(path):
        return open(path, "w"), None
    real = os.path.realpath(path)
    earlier = os.path.exists(real)
    if earlier and not os.access(real, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    fh = open(f"{real}.{os.getpid()}.tmp", "w")
    if earlier:
        os.chmod(fh.name, stat.S_IMODE(os.stat(real).st_mode))
    return fh, real


def cmd_verify_pair(args) -> int:
    results = verify_pair(registry_pair(args.pair), args.n_max, args.order)
    for n, ok in enumerate(results):
        print(f"n={n}: {'ok' if ok else 'FAIL'}")
    if all(results):
        print(f"pair {args.pair}: defining relation holds for n <= {args.n_max} "
              f"to order {args.order}")
        return EXIT_OK
    first = results.index(False)
    print(f"pair {args.pair}: FAILED first at n={first}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def cmd_verify_identity(args) -> int:
    rec = build_record(args.pair, args.schedule, args.k, args.i, args.order)
    if args.format == "json":
        print(json_text(rec.to_json_dict()))
    elif args.format == "latex":
        print(record_latex(rec))
    else:
        print(emit_text([rec]), end="")
    return EXIT_OK if rec.status == "verified" else EXIT_VERIFY_FAILED


def _build_cell(cell_order) -> IdentityRecord:
    (pid, kind, k, i), order = cell_order
    return build_record(pid, kind, k, i, order)


def cmd_catalog(args) -> int:
    # a bad registry file or an unwritable output fails before any cell is
    # verified, and a regular output is replaced only once it is written
    # whole: a run that fails leaves an earlier output as it was, and no new one
    load_registry()
    dest = args.output or "stdout"
    try:
        fh, real = _open_output(args.output) if args.output else (sys.stdout, None)
    except OSError as exc:
        raise ValueError(f"cannot write {dest}: {exc.strerror or exc}") from None
    try:
        work = [(c, args.order) for c in catalog_cells(args.max_level)]
        if args.jobs > 1:
            # only a parallel run pays for importing multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                records = list(pool.map(_build_cell, work))
        else:
            records = [_build_cell(w) for w in work]
        if args.format == "json":
            chunks = json_chunks(records, args.max_level, args.order)
        elif args.format == "latex":
            chunks = latex_chunks(records)
        else:
            chunks = [emit_text(records)]
        try:
            fh.writelines(chunks)
            if fh is not sys.stdout:
                fh.close()
            if real:
                os.replace(fh.name, real)
        except OSError as exc:
            raise ValueError(f"cannot write {dest}: {exc.strerror or exc}") from None
    except BaseException:
        if fh is not sys.stdout:
            with suppress(OSError):  # what a failed write left buffered
                fh.close()
        if real:
            os.remove(fh.name)
        raise
    failed = [r for r in records if r.status != "verified"]
    if failed:
        for r in failed:
            print(f"FAILED: pair {r.pair_id} {r.kind} k={r.k} i={r.i}",
                  file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_character(args) -> int:
    m = ModuleLabel(args.s0, args.s1)
    series = char_product(m, args.order)
    print(f"module ({m.s0},{m.s1}): level {m.level}, modulus {m.modulus}")
    print(series.to_text())
    if args.qtpi:
        other = char_qtpi(m, args.order)
        if series.eq_to_order(other, args.order):
            print(f"product and quintuple-product forms agree to order {args.order}")
        else:
            print("FORMS DISAGREE", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbailey",
        description="verify and emit sum/product identities for principal "
                    "characters via Bailey-lattice schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order_kw = dict(type=_int_at_least(1),
                    help="truncation order (default: QBAILEY_ORDER or 40)")

    p = sub.add_parser("verify-pair", help="check the Bailey defining relation")
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--n-max", type=_int_at_least(0), default=10)
    p.add_argument("--order", **order_kw)
    p.set_defaults(func=cmd_verify_pair)

    p = sub.add_parser("verify-identity", help="verify one catalog cell")
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--schedule", choices=KINDS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--order", **order_kw)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("catalog", help="verify and emit all identities up to a level")
    p.add_argument("--max-level", type=_int_at_least(2), required=True)
    p.add_argument("--order", **order_kw)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="verify cells in parallel processes (at most the "
                        "number of CPUs)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("character", help="print a principal character")
    p.add_argument("--s0", type=int, required=True)
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--order", **order_kw)
    p.add_argument("--qtpi", action="store_true",
                   help="cross-check the quintuple-product evaluation")
    p.set_defaults(func=cmd_character)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # any subcommand may read the registry, and only when it first needs it
    try:
        if args.order is None:
            args.order = _default_order()
        return args.func(args)
    except RegistryError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # a bad order, output, pair, cell or module
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a runaway or unstable sum
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
