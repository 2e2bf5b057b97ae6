"""CLI behavior: exit codes, formats, round trips, and the golden catalog."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qbailey.cli import build_parser, main
from qbailey.records import (
    IdentityRecord,
    build_record,
    catalog_cells,
    emit_json,
    record_latex,
)

GOLDEN_DIR = Path(__file__).parent.parent / "goldens"


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("QBAILEY_ORDER", None)
    env.pop("QBAILEY_REGISTRY", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "qbailey.cli", *args],
        capture_output=True, text=True, env=env,
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


def test_verify_identity_json_round_trip():
    proc = run_cli(["verify-identity", "--pair", "1", "--schedule", "lim1",
                    "--k", "1", "--i", "2", "--order", "40", "--format", "json"])
    assert proc.returncode == 0
    parsed = IdentityRecord.from_json_dict(json.loads(proc.stdout))
    direct = build_record(1, "lim1", 1, 2, 40)
    assert parsed == direct


def test_record_round_trip_in_process():
    for cell in [(3, "lim3", 1, 1), (2, "lim2", 1, 0), (5, "lim1", 1, 3)]:
        rec = build_record(*cell, order=30)
        assert IdentityRecord.from_json_dict(rec.to_json_dict()) == rec


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
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    parse = build_parser().parse_args
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


def test_goldens_script_leaves_goldens_untouched_when_a_cell_fails(
        tmp_path, monkeypatch):
    path = Path(__file__).parent.parent / "scripts" / "regenerate_goldens.py"
    spec = importlib.util.spec_from_file_location("regenerate_goldens", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    goldens = tmp_path / "goldens"
    shutil.copytree(GOLDEN_DIR, goldens)
    before = {p.name: p.read_bytes() for p in goldens.iterdir()}
    monkeypatch.setattr(script, "GOLDENS", goldens)
    monkeypatch.setenv("QBAILEY_REGISTRY",
                       _changed_registry(tmp_path)["QBAILEY_REGISTRY"])
    with pytest.raises(SystemExit, match="exit code 1"):
        script.run()
    assert {p.name: p.read_bytes() for p in goldens.iterdir()} == before


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
