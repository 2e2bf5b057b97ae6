"""CLI behavior: exit codes, formats, round trips, and the golden catalog."""

import errno
import importlib.util
import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qbailey.bailey import BetaSpec
from qbailey.cli import build_parser, main
from qbailey.lattice import MultisumSpec
from qbailey.qproducts import PochFactor
from qbailey.records import IdentityRecord, build_record, catalog_cells

GOLDEN_DIR = Path(__file__).parent.parent / "goldens"


def run_cli(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("QBAILEY_ORDER", None)
    env.pop("QBAILEY_REGISTRY", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "qbailey.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    return proc


def test_verify_pair_ok():
    proc = run_cli(["verify-pair", "--pair", "1", "--n-max", "6", "--order", "30"])
    assert proc.returncode == 0
    assert proc.stdout.count("ok") >= 7


def test_verify_pair_bad_id_is_usage_error():
    proc = run_cli(["verify-pair", "--pair", "9", "--n-max", "2", "--order", "20"])
    assert proc.returncode == 2


def test_corrupt_registry_is_data_error(tmp_path):
    bad = tmp_path / "reg.json"
    bad.write_text('{"schema_version": 1, "pairs": [{"id": 1}]}')
    proc = run_cli(["verify-pair", "--pair", "1", "--n-max", "2", "--order", "20"],
                   env_extra={"QBAILEY_REGISTRY": str(bad)})
    assert proc.returncode == 3


def test_verify_identity_capparelli():
    proc = run_cli(["verify-identity", "--pair", "5", "--schedule", "lim3",
                    "--k", "1", "--i", "0", "--order", "40"])
    assert proc.returncode == 0
    assert "verified" in proc.stdout


def test_verify_identity_range_error():
    proc = run_cli(["verify-identity", "--pair", "1", "--schedule", "lim1",
                    "--k", "1", "--i", "99", "--order", "40"])
    assert proc.returncode == 2


def test_evaluation_error_is_one_line_and_exit_4(tmp_path):
    # pair 1's beta_n times q^{-n^2-100n}: the first-family cell at k=1,
    # i=0 then has no proved j_1 bound, and its carries run below the
    # valuation floor of the heuristic grid
    data = json.loads(BUNDLED_REGISTRY.read_text())
    data["pairs"][0]["beta"].update(mono_quad=-1, mono_lin=-100)
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    proc = run_cli(["verify-identity", "--pair", "1", "--schedule", "lim1",
                    "--k", "1", "--i", "0", "--order", "40"],
                   env_extra={"QBAILEY_REGISTRY": str(reg)})
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_alpha_side_ratio_below_q_is_one_line_naming_the_cell(tmp_path):
    # pair 2 at base q^1: the second family's unified alpha side would
    # divide by (-1; q)_t, which is not unit-leading
    data = json.loads(BUNDLED_REGISTRY.read_text())
    data["pairs"][1]["base_exp"] = 1
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    proc = run_cli(["verify-identity", "--pair", "2", "--schedule", "lim2",
                    "--k", "1", "--i", "0", "--order", "20"],
                   env_extra={"QBAILEY_REGISTRY": str(reg)})
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: Schedule(kind='lim2', k=1, i=0, pair_id=2): the alpha side's "
        "ratio base q^0 is below q^1\n")


@pytest.mark.parametrize("i,move,base", [(1, "BC2", 1), (2, "F2", 0)])
def test_move_ratio_below_q_is_one_line_naming_the_cell(tmp_path, i, move,
                                                        base):
    # pair 2 at base q^1: the fold's last move needs the ratio base q^0
    data = json.loads(BUNDLED_REGISTRY.read_text())
    data["pairs"][1]["base_exp"] = 1
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    proc = run_cli(["verify-identity", "--pair", "2", "--schedule", "lim2",
                    "--k", "1", "--i", str(i), "--order", "20"],
                   env_extra={"QBAILEY_REGISTRY": str(reg)})
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: Schedule(kind='lim2', k=1, i={i}, pair_id=2): move {move} "
        f"at base q^{base} needs the ratio base q^0, below q^1\n")


def _pair1_registry(tmp_path, edit):
    """QBAILEY_REGISTRY naming the bundled data with pair 1 changed by
    ``edit``."""
    data = json.loads(BUNDLED_REGISTRY.read_text())
    edit(data["pairs"][0])
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    return {"QBAILEY_REGISTRY": str(reg)}


def test_alpha_side_whose_shifts_keep_falling_exits_4(tmp_path):
    # pair 1's alpha~_t on t = 2 mod 3 as q^{(-4t^2 - t)/3}: the alpha
    # side's shifts fall without end, so no block is ever dead, and only the
    # runaway floor of ``vanishing_sum`` stops the sum
    env = _pair1_registry(
        tmp_path, lambda p: p["alpha_tilde"]["2"].update(quad=-4, lin=-1))
    proc = run_cli(["verify-identity", "--pair", "1", "--schedule", "lim1",
                    "--k", "1", "--i", "0", "--order", "20"],
                   env_extra=env, timeout=60)
    assert proc.returncode == 4
    assert proc.stderr == "error: exponent -533 below valuation floor -500\n"


def test_failed_catalog_leaves_an_earlier_output_as_it_was(tmp_path):
    out = tmp_path / "catalog.txt"
    out.write_text("an earlier catalog\n")
    argv = ["catalog", "--max-level", "4", "--order", "40", "--output", str(out)]
    env = _pair1_registry(
        tmp_path, lambda p: p["beta"].update(mono_quad=-1, mono_lin=-100))
    proc = run_cli(argv, env_extra=env)
    assert proc.returncode == 4
    assert out.read_text() == "an earlier catalog\n"
    # a run that succeeds replaces it whole
    proc = run_cli(argv)
    assert proc.returncode == 0
    assert out.read_text().startswith("pair 3 lim3 k=1 i=0: ")
    assert "earlier" not in out.read_text()


def test_failed_catalog_removes_the_output_it_created(tmp_path):
    out = tmp_path / "catalog.txt"
    env = _pair1_registry(
        tmp_path, lambda p: p["beta"].update(mono_quad=-1, mono_lin=-100))
    proc = run_cli(["catalog", "--max-level", "4", "--order", "40",
                    "--output", str(out)], env_extra=env)
    assert proc.returncode == 4
    assert proc.stderr == "error: exponent -510 below valuation floor -500\n"
    assert not out.exists()


def test_backward_move_cell_past_the_old_order_wall_verifies():
    # its carries go below the old runaway floor -520 of order 1748 before
    # they cancel; on the proved grid only IN bounds them
    proc = run_cli(["verify-identity", "--pair", "5", "--schedule", "lim1",
                    "--k", "1", "--i", "3", "--order", "1748"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("order 1748 verified\n")


def test_verify_identity_json_round_trip():
    proc = run_cli(["verify-identity", "--pair", "1", "--schedule", "lim1",
                    "--k", "1", "--i", "2", "--order", "40", "--format", "json"])
    assert proc.returncode == 0
    parsed = IdentityRecord.from_json_dict(json.loads(proc.stdout))
    direct = build_record(1, "lim1", 1, 2, 40)
    assert parsed == direct


@pytest.mark.parametrize("cell", [(2, "lim2", 1, 0), (5, "lim3", 1, 0)])
def test_verify_identity_json_is_the_stdlib_rendering(cell, capsys, monkeypatch):
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    pid, kind, k, i = cell
    assert main(["verify-identity", "--pair", str(pid), "--schedule", kind,
                 "--k", str(k), "--i", str(i), "--order", "30",
                 "--format", "json"]) == 0
    rec = build_record(pid, kind, k, i, 30)
    assert capsys.readouterr().out == json.dumps(rec.to_json_dict(), indent=2) + "\n"


def test_record_round_trip_in_process():
    # --jobs sends records between processes by pickle.  A named tuple
    # equals any tuple of its fields, so the nested types are checked too
    for cell in [(3, "lim3", 1, 1), (2, "lim2", 1, 0), (5, "lim1", 1, 3)]:
        rec = build_record(*cell, order=30)
        for back in (IdentityRecord.from_json_dict(rec.to_json_dict()),
                     pickle.loads(pickle.dumps(rec))):
            assert back == rec
            assert type(back) is IdentityRecord
            assert type(back.sum_spec) is MultisumSpec
            assert type(back.beta) is BetaSpec
            assert all(type(f) is PochFactor for f in back.product_factors
                       + tuple(f for f, _ in back.beta.numerator
                               + back.beta.denominator))


def test_env_var_default_order():
    proc = run_cli(["verify-identity", "--pair", "1", "--schedule", "lim1",
                    "--k", "1", "--i", "0", "--format", "json"],
                   env_extra={"QBAILEY_ORDER": "25"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 25


def test_character_command():
    proc = run_cli(["character", "--s0", "1", "--s1", "1", "--order", "20",
                    "--qtpi"])
    assert proc.returncode == 0
    assert "agree" in proc.stdout
    proc = run_cli(["character", "--s0", "-1", "--s1", "1", "--order", "20"])
    assert proc.returncode == 2


def test_catalog_cells_level_structure():
    cells = catalog_cells(7)
    assert len(cells) == 30
    by_level = {}
    from qbailey.characters import schedule_module
    for pid, kind, k, i in cells:
        m = schedule_module(pid, kind, k, i)
        by_level.setdefault(m.level, []).append((pid, kind))
    # levels divisible by 3 come from pair 5 alone; others from two pairs
    assert {p for p, _ in by_level[6]} == {5} and len(by_level[6]) == 4
    assert {p for p, _ in by_level[3]} == {5} and len(by_level[3]) == 2
    assert {p for p, _ in by_level[7]} == {1, 2}
    assert {p for p, _ in by_level[4]} == {1, 2}


def test_catalog_jobs_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    p1 = run_cli(["catalog", "--max-level", "4", "--order", "30",
                  "--format", "json", "--output", str(out1)])
    p2 = run_cli(["catalog", "--max-level", "4", "--order", "30",
                  "--format", "json", "--output", str(out2), "--jobs", "2"])
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_serial_runs_never_import_the_process_pool():
    # only `catalog --jobs N` with N > 1 may load multiprocessing
    code = """
import contextlib, io, sys
import qbailey.cli
pool = ("multiprocessing", "concurrent.futures.process")
loaded = [sorted(set(pool) & set(sys.modules))]
with contextlib.redirect_stdout(io.StringIO()):
    assert qbailey.cli.main(["verify-identity", "--pair", "1", "--schedule",
                             "lim1", "--k", "1", "--i", "0",
                             "--order", "20"]) == 0
    loaded.append(sorted(set(pool) & set(sys.modules)))
    assert qbailey.cli.main(["catalog", "--max-level", "3",
                             "--order", "20"]) == 0
loaded.append(sorted(set(pool) & set(sys.modules)))
print(loaded)
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBAILEY_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[], [], []]\n"


def test_cli_imports_no_stdlib_module_beyond_what_it_names():
    # in a bare interpreter (no site), importing the CLI and loading the
    # registry adds only qbailey's own modules: no dataclasses, typing or
    # pathlib, nor what they import
    code = """
import sys
import argparse, errno, os, stat, contextlib, json, collections.abc
import enum, functools, itertools, math, operator
before = set(sys.modules)
import qbailey.cli
from qbailey.bailey import load_registry
load_registry()
print(sorted(name for name in set(sys.modules) - before
             if name != "__future__" and name.split(".")[0] != "qbailey"))
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBAILEY_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_catalog_usage_error():
    proc = run_cli(["catalog", "--max-level", "1", "--order", "20"])
    assert proc.returncode == 2


@pytest.mark.parametrize("fmt,name", [("json", "catalog_level7_order80.json"),
                                      ("latex", "catalog_level7_order80.tex")])
def test_catalog_matches_golden_files(tmp_path, fmt, name):
    out = tmp_path / name
    proc = run_cli(["catalog", "--max-level", "7", "--order", "80",
                    "--format", fmt, "--output", str(out)])
    assert proc.returncode == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_main_in_process():
    assert main(["verify-identity", "--pair", "3", "--schedule", "lim1",
                 "--k", "1", "--i", "0", "--order", "30"]) == 0


def test_catalog_never_inverts_a_series(monkeypatch, capsys):
    # every inverse on the catalog path is a product of one-pass steps
    from qbailey import qproducts
    from qbailey.laurent import LaurentSeries

    for name in ("poch_finite", "inv_poch_finite", "poch_inf", "inv_poch_inf",
                 "inv_euler"):
        getattr(qproducts, name).cache_clear()
    calls = []
    real = LaurentSeries.invert

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LaurentSeries, "invert", counted)
    assert main(["catalog", "--max-level", "7", "--order", "120",
                 "--format", "text"]) == 0
    assert capsys.readouterr().out.count("verified") == 30
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["character", "--s0", "1", "--s1", "1", "--order", "-3"],
    ["catalog", "--max-level", "2", "--order", "0"],
])
def test_order_below_one_is_usage_error(argv, capsys, monkeypatch):
    monkeypatch.delenv("QBAILEY_ORDER", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --order: must be at least 1" in err
    assert "Traceback" not in err


def test_verify_pair_negative_n_max_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("QBAILEY_ORDER", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["verify-pair", "--pair", "1", "--n-max", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --n-max: must be at least 0, got -1" in captured.err
    assert "holds" not in captured.out


@pytest.mark.parametrize("raw,message", [
    ("abc", "error: QBAILEY_ORDER must be an integer, got 'abc'"),
    ("0", "error: QBAILEY_ORDER must be at least 1, got 0"),
])
def test_bad_env_order_is_reported(raw, message):
    proc = run_cli(["catalog", "--max-level", "2"],
                   env_extra={"QBAILEY_ORDER": raw})
    assert proc.returncode == 2
    assert proc.stderr.strip() == message
    assert proc.stdout == ""


def test_jobs_bounds(capsys, monkeypatch):
    monkeypatch.delenv("QBAILEY_ORDER", raising=False)
    # the CPUs this process may run on bound --jobs, not the host's count
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    parse = build_parser().parse_args
    assert parse(["catalog", "--max-level", "2", "--jobs", "2"]).jobs == 2
    assert parse(["catalog", "--max-level", "2", "--jobs", "1000000"]).jobs == 3
    # without affinity masks, the CPU count bounds it
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parse(["catalog", "--max-level", "2", "--jobs", "2"]).jobs == 2
    assert parse(["catalog", "--max-level", "2", "--jobs", "1000000"]).jobs == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parse(["catalog", "--max-level", "2", "--jobs", "8"]).jobs == 1
    with pytest.raises(SystemExit) as exc:
        parse(["catalog", "--max-level", "2", "--jobs", "0"])
    assert exc.value.code == 2
    assert "argument --jobs: must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_order_flag_overrides_bad_env_order(raw):
    # QBAILEY_ORDER is only a default; an explicit --order never reads it
    proc = run_cli(["character", "--s0", "1", "--s1", "1", "--order", "5"],
                   env_extra={"QBAILEY_ORDER": raw})
    assert proc.returncode == 0, proc.stderr
    assert "trunc=5;" in proc.stdout
    assert proc.stderr == ""


def test_catalog_unwritable_output_fails_before_verifying(tmp_path, capsys,
                                                          monkeypatch):
    from qbailey import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a cell was verified before the output was opened")

    monkeypatch.delenv("QBAILEY_ORDER", raising=False)
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    monkeypatch.setattr(cli, "build_record", no_work)
    target = tmp_path / "missing" / "catalog.json"
    code = main(["catalog", "--max-level", "7", "--order", "80",
                 "--format", "json", "--output", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot write {target}: "
                            "No such file or directory\n")
    assert captured.out == ""


def test_catalog_read_only_output_fails_before_verifying(tmp_path, capsys,
                                                        monkeypatch):
    from qbailey import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a cell was verified before the output was opened")

    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    monkeypatch.setattr(cli, "build_record", no_work)
    target = tmp_path / "catalog.txt"
    target.write_text("an earlier catalog\n")
    target.chmod(0o444)
    # what access(2) says for a user without root's override
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: mode != os.W_OK
                        and access(path, mode))
    assert main(["catalog", "--max-level", "2", "--order", "10",
                 "--output", str(target)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {target}: "
                                       "Permission denied\n")
    assert target.read_text() == "an earlier catalog\n"
    assert os.listdir(tmp_path) == ["catalog.txt"]


def _full_disk(path, mode="r"):
    """``open`` whose handles opened for writing raise ENOSPC on write."""
    fh = open(path, mode)
    if "w" in mode:
        def no_space(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        fh.write = fh.writelines = no_space
    return fh


def test_catalog_write_that_fails_removes_the_output_it_created(
        tmp_path, capsys, monkeypatch):
    from qbailey import cli

    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    monkeypatch.setattr(cli, "open", _full_disk, raising=False)
    target = tmp_path / "catalog.json"
    code = main(["catalog", "--max-level", "3", "--order", "10",
                 "--format", "json", "--output", str(target)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: cannot write {target}: "
                                       "No space left on device\n")
    assert not target.exists()


def test_catalog_write_that_fails_leaves_an_earlier_output_as_it_was(
        tmp_path, capsys, monkeypatch):
    from qbailey import cli

    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    monkeypatch.setattr(cli, "open", _full_disk, raising=False)
    target = tmp_path / "catalog.json"
    target.write_text("an earlier catalog\n")
    code = main(["catalog", "--max-level", "3", "--order", "10",
                 "--format", "json", "--output", str(target)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: cannot write {target}: "
                                       "No space left on device\n")
    assert target.read_text() == "an earlier catalog\n"
    assert os.listdir(tmp_path) == ["catalog.json"]


def test_catalog_output_gets_the_mode_open_would_give(tmp_path, monkeypatch):
    # an earlier file keeps its mode, a new one gets the umask's
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    earlier, new = tmp_path / "earlier.txt", tmp_path / "new.txt"
    earlier.write_text("an earlier catalog\n")
    earlier.chmod(0o640)
    umask = os.umask(0o022)
    os.umask(umask)
    for target, mode in ((earlier, 0o640), (new, 0o666 & ~umask)):
        assert main(["catalog", "--max-level", "2", "--order", "10",
                     "--output", str(target)]) == 0
        assert target.read_text().startswith("pair ")
        assert target.stat().st_mode & 0o777 == mode
    assert sorted(os.listdir(tmp_path)) == ["earlier.txt", "new.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_catalog_output_to_a_pipe_is_written_in_place():
    # run_cli's stdout is a pipe: there is no file beside it to replace
    proc = run_cli(["catalog", "--max-level", "2", "--order", "10",
                    "--output", "/dev/stdout"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pair 3 lim3 k=1 i=0: ")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_catalog_output_to_a_named_pipe(tmp_path):
    # the pipe is opened once, so a reader waiting on it gets the whole
    # catalog, and the writer does not block on a second open
    fifo = tmp_path / "catalog.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    argv = ["catalog", "--max-level", "2", "--order", "10"]
    proc = run_cli([*argv, "--output", str(fifo)], timeout=60)
    reader.join(timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert got == [run_cli(argv).stdout.encode()]


def test_catalog_unwritable_output_from_the_shell(tmp_path):
    proc = run_cli(["catalog", "--max-level", "2", "--order", "10",
                    "--output", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {tmp_path}: Is a directory\n"


REGISTRY_COMMANDS = [
    ["verify-identity", "--pair", "1", "--schedule", "lim1", "--k", "1",
     "--i", "0", "--order", "20"],
    ["catalog", "--max-level", "2", "--order", "20"],
]
BUNDLED_REGISTRY = (Path(__file__).parent.parent / "src" / "qbailey" / "data"
                    / "bailey_pairs.json")


@pytest.mark.parametrize("argv", REGISTRY_COMMANDS)
def test_empty_registry_env_is_data_error(tmp_path, argv):
    reg = tmp_path / "reg.json"
    reg.write_text("{}")
    proc = run_cli(argv, env_extra={"QBAILEY_REGISTRY": str(reg)})
    assert proc.returncode == 3
    assert proc.stderr.startswith("registry error: ")
    assert proc.stderr.count("\n") == 1
    assert "verified" not in proc.stdout


def test_bad_registry_env_fails_before_the_output_is_opened(tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text("{}")
    out = tmp_path / "catalog.json"
    proc = run_cli(["catalog", "--max-level", "2", "--order", "20",
                    "--output", str(out)],
                   env_extra={"QBAILEY_REGISTRY": str(reg)})
    assert proc.returncode == 3
    assert proc.stderr == (f"registry error: registry {reg}: unsupported or "
                           "missing schema_version\n")
    assert not out.exists()


def _changed_registry(tmp_path):
    """QBAILEY_REGISTRY naming the bundled data with pair 3's beta_n
    multiplied by q^n, which breaks every pair-3 identity."""
    data = json.loads(BUNDLED_REGISTRY.read_text())
    data["pairs"][2]["beta"]["mono_lin"] += 1
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    return {"QBAILEY_REGISTRY": str(reg)}


def test_changed_registry_env_is_verified_by_catalog(tmp_path):
    proc = run_cli(REGISTRY_COMMANDS[1], env_extra=_changed_registry(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr == ("FAILED: pair 3 lim3 k=1 i=0\n"
                           "FAILED: pair 3 lim3 k=1 i=1\n")
    assert "pair 4 lim2 k=1 i=0: level 2 module (0,1) modulus 10 order 20 " \
           "verified" in proc.stdout


def test_changed_registry_env_is_verified_by_verify_identity(tmp_path):
    env = _changed_registry(tmp_path)
    proc = run_cli(REGISTRY_COMMANDS[0], env_extra=env)
    assert proc.returncode == 0, proc.stderr
    assert "verified" in proc.stdout
    proc = run_cli(["verify-identity", "--pair", "3", "--schedule", "lim3",
                    "--k", "1", "--i", "0", "--order", "20"], env_extra=env)
    assert proc.returncode == 1
    assert "failed" in proc.stdout


def test_changed_registry_env_jobs_deterministic(tmp_path):
    env = _changed_registry(tmp_path)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        proc = run_cli(["catalog", "--max-level", "4", "--order", "30",
                        "--format", "json", "--output", str(out),
                        "--jobs", jobs], env_extra=env)
        assert proc.returncode == 1
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b'"status": "failed"' in outputs[0]


def _goldens_script():
    path = Path(__file__).parent.parent / "scripts" / "regenerate_goldens.py"
    spec = importlib.util.spec_from_file_location("regenerate_goldens", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_goldens_script_leaves_goldens_untouched_when_a_cell_fails(
        tmp_path, monkeypatch):
    script = _goldens_script()
    goldens = tmp_path / "goldens"
    shutil.copytree(GOLDEN_DIR, goldens)
    before = {p.name: p.read_bytes() for p in goldens.iterdir()}
    monkeypatch.setattr(script, "GOLDENS", goldens)
    monkeypatch.setenv("QBAILEY_REGISTRY",
                       _changed_registry(tmp_path)["QBAILEY_REGISTRY"])
    with pytest.raises(SystemExit, match="exit code 1"):
        script.run()
    assert {p.name: p.read_bytes() for p in goldens.iterdir()} == before


def test_goldens_script_keeps_each_goldens_mode(tmp_path, monkeypatch):
    # a golden is rewritten byte for byte with its own mode, not the 0600
    # of a temporary file; a missing one is made as open(path, "w") makes it
    script = _goldens_script()
    goldens = tmp_path / "goldens"
    shutil.copytree(GOLDEN_DIR, goldens)
    for p in goldens.iterdir():
        p.chmod(0o644)
    monkeypatch.setattr(script, "GOLDENS", goldens)
    monkeypatch.delenv("QBAILEY_REGISTRY", raising=False)
    script.run()
    for p in GOLDEN_DIR.iterdir():
        assert (goldens / p.name).read_bytes() == p.read_bytes()
        assert (goldens / p.name).stat().st_mode & 0o777 == 0o644
    (goldens / "catalog_level7_order80.tex").unlink()
    (goldens / "catalog_level7_order80.json").chmod(0o640)
    script.run()
    fresh = tmp_path / "fresh"
    open(fresh, "w").close()
    assert (goldens / "catalog_level7_order80.json").stat().st_mode & 0o777 == 0o640
    assert ((goldens / "catalog_level7_order80.tex").stat().st_mode
            == fresh.stat().st_mode)
    assert sorted(p.name for p in goldens.iterdir()) == sorted(
        p.name for p in GOLDEN_DIR.iterdir())


@pytest.mark.parametrize("argv", REGISTRY_COMMANDS)
def test_identical_registry_env_is_accepted(tmp_path, argv):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(json.loads(BUNDLED_REGISTRY.read_text()), indent=1))
    proc = run_cli(argv, env_extra={"QBAILEY_REGISTRY": str(reg)})
    assert proc.returncode == 0, proc.stderr
    assert "verified" in proc.stdout


def _set(path, value):
    """A change to the bundled registry data: ``value`` at ``path``."""
    def change(data):
        *outer, last = path
        for key in outer:
            data = data[key]
        data[last] = value
    return change


def _extra_half(data):
    data["pairs"][0]["beta"]["denominator"].append(
        {"sign": -1, "base_exp": 0, "step": 1, "length": "n"})


MALFORMED_REGISTRIES = {
    "string_base_exp": (_set(["pairs", 0, "base_exp"], "1"),
                        "pair 1: base_exp must be an integer, got '1'"),
    "string_tilde_quad": (_set(["pairs", 0, "alpha_tilde", "0", "quad"], "2"),
                          "pair 1: quad must be an integer, got '2'"),
    "string_tilde_lin": (_set(["pairs", 0, "alpha_tilde", "0", "lin"], "-1"),
                         "pair 1: lin must be an integer, got '-1'"),
    "string_beta_mono_quad": (_set(["pairs", 0, "beta", "mono_quad"], "0"),
                              "pair 1: mono_quad must be an integer, got '0'"),
    "string_beta_mono_lin": (_set(["pairs", 0, "beta", "mono_lin"], "0"),
                             "pair 1: mono_lin must be an integer, got '0'"),
    "pairs_not_a_list": (_set(["pairs"], 5), "pairs must be a list"),
    "pairs_null": (_set(["pairs"], None), "pairs must be a list"),
    "moduli_not_strings": (_set(["pairs", 0, "moduli"], [12, 8]),
                           "pair 1: source and moduli must be strings"),
    "beta_halves_below_the_line": (
        _extra_half, "pair 1: beta has 1 factors (-1; q^d) below the line "
                     "and 0 above, so beta_n is not integral"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REGISTRIES))
def test_malformed_registry_is_data_error(tmp_path, name):
    change, message = MALFORMED_REGISTRIES[name]
    data = json.loads(BUNDLED_REGISTRY.read_text())
    change(data)
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(data))
    proc = run_cli(["verify-pair", "--pair", "1", "--n-max", "2", "--order", "20"],
                   env_extra={"QBAILEY_REGISTRY": str(reg)})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("registry error: ")
    assert message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
