import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from singlab import (
    InternalCheckError,
    InvalidConfiguration,
    RowLimitExceeded,
    SearchQuery,
    cli,
    render,
    scan,
    search,
)
from singlab.cli import main
from singlab.render import FORMATS, render_csv, render_json, render_table, stitch


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
    code, out, err = run(capsys, "typet", "recognize", "5,x")
    assert (code, out) == (2, "")
    assert err == "error: chain entries look like 5,2, got '5,x'\n"


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
    code, _, err = run(capsys, "family", "--curves", "0", "--r", "2", "--s", "1", "--d", "1")
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
    for workers in ("1", "2"):
        code, out, err = run(capsys, "search", "--p-max", "10", "--workers", workers)
        assert code == 3
        assert out == ""
        assert "SINGLAB_ROW_LIMIT" in err


RENDERERS = {"table": render_table, "json": render_json, "csv": render_csv}


@pytest.mark.parametrize(
    "mode, flags",
    [
        ("artin-only", []),
        ("single-contraction", []),
        ("multi-contraction", []),
        ("artin-only", ["--positive", "--dedup-conjugate"]),
        ("single-contraction", ["--positive"]),
        ("multi-contraction", ["--dedup-conjugate"]),
        ("multi-contraction", ["--max-contractions", "1", "--positive"]),
    ],
)
def test_search_output_equals_rendered_scan(capsys, mode, flags):
    # The CLI renders each p in the unit that computed it; the result must
    # equal rendering the library's full row list in one go.
    query = SearchQuery(
        p_max=36,
        mode=mode,
        positive_only="--positive" in flags,
        dedup_conjugate="--dedup-conjugate" in flags,
        max_contractions=1 if "--max-contractions" in flags else 3,
    )
    rows = scan(query)
    for fmt, render in RENDERERS.items():
        expected = render(rows)
        for workers in ("1", "2"):
            code, out, _ = run(
                capsys, "search", "--p-max", "36", "--mode", mode, "--format", fmt,
                "--workers", workers, *flags,
            )
            assert code == 0
            assert out == expected, (fmt, workers)


def test_search_output_in_small_blocks(capsys, monkeypatch):
    # search writes the stitcher's pieces one at a time; pieces far smaller
    # than the output must give the same bytes.
    expected = render_table(scan(SearchQuery(p_max=20, mode="single-contraction")))
    monkeypatch.setattr(render, "_PIECE", 300)
    code, out, _ = run(capsys, "search", "--p-max", "20", "--mode", "single-contraction")
    assert code == 0
    assert out == expected
    assert len(out) > 10 * render._PIECE


def test_stitchers_with_no_rows():
    header = {
        "table": "p  q  chain  k  sum_e  q_inv  eta  b2  C  label\n",
        "json": "[]\n",
        "csv": "p,q,chain,k,sum_e,q_inv,eta,b2,c,positive,label\n",
    }
    for fmt, (part, _) in FORMATS.items():
        assert "".join(stitch(fmt, [])) == header[fmt]
        assert "".join(stitch(fmt, [part([]), part([])])) == header[fmt]
        assert RENDERERS[fmt]([]) == header[fmt]


def test_search_row_limit_counts_rows_before_filters(capsys, monkeypatch):
    generated = len(scan(SearchQuery(p_max=10)))
    kept = len(scan(SearchQuery(p_max=10, positive_only=True)))
    assert kept + 1 < generated
    monkeypatch.setenv("SINGLAB_ROW_LIMIT", str(kept + 1))
    with pytest.raises(RowLimitExceeded):
        scan(SearchQuery(p_max=10, positive_only=True))
    for workers in ("1", "2"):
        for fmt in FORMATS:
            code, out, err = run(
                capsys, "search", "--p-max", "10", "--positive", "--format", fmt,
                "--workers", workers,
            )
            assert code == 3
            assert out == ""
            assert "SINGLAB_ROW_LIMIT" in err


def test_search_failure_at_the_last_p_prints_nothing(capsys, monkeypatch):
    # Nothing may reach stdout before the last p has been computed.  An
    # invalid-input error exits 2; a failed internal check is a bug and
    # propagates out of main.  Neither leaves a partial output.
    real_p_part = search._p_part
    raised = {}

    def failing_p_part(p, **kwargs):
        if p == 12:
            raise raised["error"](f"injected failure at p = {p}")
        return real_p_part(p, **kwargs)

    monkeypatch.setattr(search, "_p_part", failing_p_part)
    argv = ("search", "--p-max", "12", "--workers", "1", "--format")
    for fmt in FORMATS:
        raised["error"] = InvalidConfiguration
        code, out, err = run(capsys, *argv, fmt)
        assert code == 2
        assert out == ""
        assert "injected failure" in err
        raised["error"] = InternalCheckError
        with pytest.raises(InternalCheckError, match="injected failure"):
            main([*argv, fmt])
        assert capsys.readouterr().out == ""


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


def test_console_script_mapping():
    # What an install would put on PATH, checked without installing: the
    # one console script resolves to cli.main.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"singlab": "singlab.cli:main"}
    module, _, name = scripts["singlab"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--p-max", "300", "--format", "csv"],
        ["typet", "enumerate", "--r-max", "60", "--s-max", "4"],
    ],
    ids=["search", "typet-enumerate"],
)
def test_closed_stdout_exits_1_quietly(argv):
    # The reader takes one line and closes the pipe, as `| head -1` does.
    # At p_max 150 the search output fits the pipe and the buffers, so the
    # writer may never see the closed pipe; at p_max 300 it does.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "singlab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


def test_search_with_a_missing_tmpdir_exits_2(capsys, monkeypatch, tmp_path):
    # The spool goes to TMPDIR as it is set; a missing directory is an input
    # error, reported on one line, with nothing printed.
    missing = tmp_path / "missing"
    monkeypatch.setenv("TMPDIR", str(missing))
    for workers in ("1", "2"):
        code, out, err = run(capsys, "search", "--p-max", "10", "--workers", workers)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_closed_stdout_leaves_no_descriptor_open():
    # main points the closed stdout at devnull and closes the descriptor it
    # opened for that.  The first call, into a buffer, loads what a search
    # loads, so that only the second can leave a descriptor behind.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import io, os, sys, contextlib\n"
        "import singlab.cli\n"
        "argv = ['search', '--p-max', '300', '--format', 'csv']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    singlab.cli.main(argv)\n"
        "before = set(os.listdir('/proc/self/fd'))\n"
        "code = singlab.cli.main(argv)\n"
        "after = set(os.listdir('/proc/self/fd'))\n"
        "print(code, sorted(after - before), file=sys.stderr)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", probe],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b"1 []\n"


def test_point_commands_never_spool(capsys, monkeypatch, tmp_path):
    # Only search spools to TMPDIR; the commands that render a few reports
    # render them in memory, so a missing TMPDIR changes nothing for them.
    commands = [
        ("invariants", "9", "2", "--contract", "0..1"),
        ("family", "--curves", "1", "--r", "2", "--s", "1", "--d", "1"),
        ("tables", "--theorems", "--r-max", "3"),
    ]
    expected = [run(capsys, *argv) for argv in commands]
    monkeypatch.setenv("TMPDIR", str(tmp_path / "missing"))
    for argv, (code, out, err) in zip(commands, expected):
        assert code == 0 and out and err == ""
        assert run(capsys, *argv) == (code, out, err)


def test_the_process_pool_is_imported_only_by_a_pool():
    # Neither importing the CLI nor a one-worker search loads
    # concurrent.futures.process; a two-worker search does.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, io, contextlib\n"
        "import singlab.cli\n"
        "loaded = lambda: 'concurrent.futures.process' in sys.modules\n"
        "print(loaded())\n"
        "for workers in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = singlab.cli.main(['search', '--p-max', '12', '--workers', workers])\n"
        "    print(code, loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, "1", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # One core this process may run on starts no pool.
    affinity = getattr(os, "sched_getaffinity", None)
    pooled = (len(affinity(0)) if affinity else os.cpu_count() or 1) > 1
    assert proc.stdout.splitlines() == ["False", "0 False", f"0 {pooled}"]
