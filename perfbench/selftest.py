"""Self-test of the benchmark.  Run from anywhere:

    python3 perfbench/selftest.py

It runs every workload at its tiny size, checks the tracer's install and
uninstall in this process, and compares traced and untraced sum sides.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import CACHED, PER_LAYER, Tracer  # noqa: E402

TINY_CELLS = [(1, "lim1", 1, 0), (2, "lim2", 1, 1), (3, "lim3", 1, 0),
              (4, "lim1", 2, 3), (5, "lim3", 1, 1)]
TINY_ORDER = 16


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


def _qbailey_modules():
    sys.path.insert(0, str(ROOT / "src"))
    import qbailey.cli  # noqa: F401
    return [m for n, m in sys.modules.items()
            if n == "qbailey" or n.startswith("qbailey.")]


def sum_side_digests(trace: bool) -> dict:
    """sha256 of each tiny cell's sum_side(...).to_text(), in this process."""
    _qbailey_modules()
    from qbailey.lattice import Schedule, sum_side
    tracer = Tracer(0)
    if trace:
        tracer.install()
    try:
        return {str(c): hashlib.sha256(sum_side(
                    Schedule(c[1], c[2], c[3], c[0]), TINY_ORDER)
                    .to_text().encode()).hexdigest()
                for c in TINY_CELLS}
    finally:
        tracer.uninstall()


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            for w in bench["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    out = _run(HERE / "run.py", "--workload", w["name"],
                               "--seed", "3", "--seconds", "1",
                               "--trace", str(trace), "--tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            out = _run("perfbench/run.py", "--workload", "deep_order",
                       "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class TracerTest(unittest.TestCase):
    def test_wrappers_are_restored(self):
        modules = _qbailey_modules()
        from qbailey.bailey import BaileyPair
        from qbailey.laurent import LaurentSeries
        from qbailey.records import build_record
        import qbailey.lattice as lattice
        import qbailey.qproducts as qproducts
        owners = modules + [BaileyPair, LaurentSeries]
        before = [(o, dict(vars(o))) for o in owners]
        original = qproducts.poch_finite

        tracer = Tracer(0)
        tracer.install()
        try:
            # lattice's own binding is wrapped, not only the defining module
            self.assertIsNot(lattice.poch_finite, original)
            self.assertIs(lattice.poch_finite, qproducts.poch_finite)
            for pid, kind, k, i in TINY_CELLS:
                self.assertEqual(build_record(pid, kind, k, i, TINY_ORDER)
                                 .status, "verified")
        finally:
            tracer.uninstall()

        for owner, attrs in before:
            for name, value in attrs.items():
                self.assertIs(vars(owner).get(name), value, f"{owner}.{name}")
        layers = tracer.layer_metrics()
        self.assertEqual(set(layers) | {"trace_overhead_ratio"},
                         {n for n, _ in PER_LAYER})
        self.assertGreater(layers["laurent.mul.calls"], 0)
        for f in CACHED:
            self.assertEqual(layers[f"qproducts.{f}.calls"],
                             layers[f"qproducts.{f}.hits"]
                             + layers[f"qproducts.{f}.misses"], f)

    def test_traced_and_untraced_sum_sides_agree(self):
        digests = []
        for trace in ("0", "1"):
            out = _run(__file__, "--digests", trace)
            self.assertEqual(out.returncode, 0, out.stderr)
            digests.append(json.loads(out.stdout))
        self.assertEqual(len(digests[0]), len(TINY_CELLS))
        self.assertEqual(digests[0], digests[1])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        print(json.dumps(sum_side_digests(sys.argv[2] == "1")))
    else:
        unittest.main()
