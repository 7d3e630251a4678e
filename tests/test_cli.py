import json
import shutil
import subprocess

import pytest

from singlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resolve(capsys):
    code, out, _ = run(capsys, "resolve", "5", "2")
    assert code == 0 and out == "(3,2)\n"
    code, out, _ = run(capsys, "resolve", "7", "3")
    assert code == 0 and out == "(3,2,2)\n"


def test_resolve_invalid_args(capsys):
    code, _, err = run(capsys, "resolve", "4", "2")
    assert code == 2 and "coprime" in err
    code, _, _ = run(capsys, "resolve", "5")
    assert code == 2
    code, _, _ = run(capsys, "resolve", "five", "two")
    assert code == 2


def test_eta_methods(capsys):
    code, out, _ = run(capsys, "eta", "9", "2")
    assert code == 0 and out == "16/27\n"
    code, out, _ = run(capsys, "eta", "9", "2", "--method", "cotangent")
    assert code == 0 and out.startswith("0.5925925925")
    code, out, _ = run(capsys, "eta", "9", "2", "--method", "both")
    lines = out.splitlines()
    assert lines[0] == "exact 16/27"
    assert lines[1].startswith("cotangent 0.5925")
    assert lines[2].startswith("difference ")


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "9", "2", "--contract", "0..1")
    assert code == 0
    assert "contract[0..1]=T(3,1,1)" in out
    assert "4/9+" in out
    code, _, err = run(capsys, "invariants", "9", "2", "--contract", "junk")
    assert code == 2 and "A..B" in err
    code, _, err = run(capsys, "invariants", "9", "2", "--contract", "1..1")
    assert code == 2 and "not type T" in err


def test_typet_recognize(capsys):
    code, out, _ = run(capsys, "typet", "recognize", "5,2")
    assert code == 0 and out == "T(3,1,1)\n"
    code, out, _ = run(capsys, "typet", "recognize", "3,2")
    assert code == 0 and out == "not type T\n"
    code, _, err = run(capsys, "typet", "recognize", "abc")
    assert code == 2


def test_typet_enumerate(capsys):
    code, out, _ = run(capsys, "typet", "enumerate", "--r-max", "3", "--s-max", "1")
    assert code == 0
    assert out.splitlines() == [
        "T(2,1,1) (4)",
        "T(3,1,1) (5,2)",
        "T(3,1,2) (2,5)",
    ]


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "--curves", "1", "--r", "2", "--s", "1", "--d", "1")
    assert code == 0
    assert "3/7+" in out
    code, _, err = run(capsys, "family", "--curves", "5", "--r", "2", "--s", "1", "--d", "1")
    assert code == 2


def test_graphs_command(capsys):
    code, out, _ = run(capsys, "graphs", "--non-minimal", "4")
    assert code == 0 and out == "(1,2,5)\n"
    code, _, _ = run(capsys, "graphs", "--non-minimal", "2")
    assert code == 2


def test_tables_command(capsys):
    code, out, _ = run(capsys, "tables", "--theorems", "--r-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 3 + 5 * 4
    assert all("+" in line for line in lines[1:])
    code, _, _ = run(capsys, "tables", "--r-max", "5")
    assert code == 2  # --theorems is required


def test_search_formats(capsys):
    code, out, _ = run(capsys, "search", "--p-max", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("p,q,chain")
    code, out, _ = run(capsys, "search", "--p-max", "5", "--format", "json")
    parsed = json.loads(out)
    assert parsed[0]["p"] == 2
    code, out, _ = run(capsys, "search", "--p-max", "7", "--positive", "--mode", "artin-only")
    assert code == 0 and "artin" in out
    code, _, _ = run(capsys, "search", "--p-max", "5", "--mode", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "search", "--p-max", "5", "--format", "xml")
    assert code == 2


def test_search_row_limit_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("SINGLAB_ROW_LIMIT", "3")
    code, _, err = run(capsys, "search", "--p-max", "10")
    assert code == 3
    assert "SINGLAB_ROW_LIMIT" in err


def test_search_worker_determinism(capsys):
    code, out1, _ = run(capsys, "search", "--p-max", "30", "--mode", "single-contraction", "--format", "json")
    assert code == 0
    code, out2, _ = run(
        capsys, "search", "--p-max", "30", "--mode", "single-contraction",
        "--format", "json", "--workers", "2",
    )
    assert code == 0
    assert out1 == out2


def test_no_command(capsys):
    assert main([]) == 2


@pytest.mark.skipif(shutil.which("singlab") is None, reason="entry point not installed")
def test_console_script():
    proc = subprocess.run(
        ["singlab", "resolve", "7", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "(3,2,2)\n"
    proc = subprocess.run(
        ["singlab", "resolve", "6", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 2
