"""The sweep scripts in scripts/, run as a user runs them."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from weakper import search
from weakper.search import load_report, reverify_report

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, check=False)


def test_conjecture_scan(tmp_path):
    summary = tmp_path / "summary.json"
    proc = run_script("conjecture_scan.py", "--n", "3", "--max-order", "4",
                      "--out", str(summary))
    assert proc.returncode == 0, proc.stderr
    # q^n - q^(n-2) of the q^n cubics are cube-free
    assert [(cell["field"], cell["total"], len(cell["non_decomposable"]))
            for cell in json.loads(summary.read_text())] == [
        ("2^1/0,1", 8, 2), ("3^1/0,1", 27, 3), ("2^2/1,1,1", 64, 4)]
    assert "2^1/0,1 n=3: 6/8 commuting" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("obstructions: [")


def test_conjecture_scan_skips_fields_past_the_enumeration_bound(
        capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "conjecture_scan", SCRIPTS / "conjecture_scan.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "conjecture_scan",
                        lambda n, field: search.conjecture_scan(n, field, 30))
    assert script.main(["--n", "3", "--max-order", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == ("SKIP 2^2/1,1,1: 4^3 companion matrices exceed the "
                        "bound 30")


def test_verify_grid(tmp_path):
    proc = run_script("verify_grid.py", "--fields", "2,3", "--n", "2",
                      "--mode", "brute", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2
    reports = sorted(tmp_path.iterdir())
    assert [p.name for p in reports] == ["2^1_0,1_n2_brute.json",
                                         "3^1_0,1_n2_brute.json"]
    for path in reports:
        report = load_report(path.read_bytes())
        assert report.failed == 0
        assert reverify_report(report)


def test_verify_grid_writes_what_verify_out_writes(tmp_path):
    run_script("verify_grid.py", "--fields", "2,3", "--n", "2", "--mode",
               "brute", "--out-dir", str(tmp_path / "grid"))
    for field, tag in (("2", "2^1_0,1"), ("3", "3^1_0,1")):
        out = tmp_path / f"{field}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "weakper.cli", "verify", "--field", field,
             "--n", "2", "--mode", "brute", "--out", str(out)],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "grid" / f"{tag}_n2_brute.json").read_bytes()
                == out.read_bytes())


@pytest.mark.parametrize("name, argv, message", [
    ("conjecture_scan.py", ("--n", "0"),
     "argument --n: must be an integer >= 1, got '0'"),
    ("conjecture_scan.py", ("--n", "-2"),
     "argument --n: must be an integer >= 1, got '-2'"),
    ("conjecture_scan.py", ("--n", "x"),
     "argument --n: must be an integer >= 1, got 'x'"),
    ("verify_grid.py", ("--n", "x"),
     "argument --n: must be integers >= 1, got 'x'"),
    ("verify_grid.py", ("--n", "2,0"),
     "argument --n: must be integers >= 1, got '2,0'"),
    ("verify_grid.py", ("--n", "2", "--mode", "brute", "--brute-cap", "-1"),
     "argument --brute-cap: must be an integer >= 0, got '-1'"),
    ("verify_grid.py", ("--n", "2", "--enum-cap", "-1"),
     "argument --enum-cap: must be an integer >= 0, got '-1'"),
    ("conjecture_scan.py", ("--max-order", "-1"),
     "argument --max-order: must be an integer >= 2, got '-1'"),
    ("conjecture_scan.py", ("--max-order", "0"),
     "argument --max-order: must be an integer >= 2, got '0'"),
    ("conjecture_scan.py", ("--max-order", "1"),
     "argument --max-order: must be an integer >= 2, got '1'"),
    ("conjecture_scan.py", ("--max-order", "x"),
     "argument --max-order: must be an integer >= 2, got 'x'"),
])
def test_invalid_argument_is_usage_error(tmp_path, name, argv, message):
    out_dir = tmp_path / "reports"
    if name == "verify_grid.py":
        where = ("--fields", "2,3", "--out-dir", str(out_dir))
    else:
        where = () if "--max-order" in argv else ("--max-order", "3")
    proc = run_script(name, *argv, *where)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == f"{name}: error: {message}"
    assert not out_dir.exists()


def test_verify_grid_zero_cap_skips(tmp_path):
    # 0 is a bound that every search exceeds, not a usage error
    proc = run_script("verify_grid.py", "--fields", "2", "--n", "2",
                      "--mode", "brute", "--brute-cap", "0",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("SKIP 2^1_0,1_n2_brute: 2^4 candidate matrices "
                           "exceed the bound 0\n")
