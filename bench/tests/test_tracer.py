"""Tests of the benchmark's tracer.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import singlab  # noqa: E402
from singlab import chains, invariants, render, search  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_SCAN = ["search", "--mode", "multi-contraction", "--p-max", "40", "--format", "json"]
SMALL_PAIRS = [[1009, 1008], [1024, 317], [1031, 1030], [150, 77], [7, 3]]


def _python(args, stdin: bytes = b"") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, input=stdin, capture_output=True, timeout=120, check=True
    )


def _traced(args, stdin: bytes = b"") -> tuple[bytes, dict]:
    done = _python([str(BENCH / "child.py"), *args], stdin)
    return done.stdout, json.loads(done.stderr.decode().splitlines()[-1])


def test_traced_scan_stdout_equals_untraced():
    untraced = _python(["-m", "singlab.cli", *SMALL_SCAN]).stdout
    traced, stats = _traced(["cli", "--trace", "--", *SMALL_SCAN])
    assert traced == untraced
    assert stats["trace"]["calls"]["cli.main"] == 1


def test_child_self_times_fit_in_parent_span():
    tracer = Tracer()
    with tracer.installed():
        rows = singlab.scan(singlab.SearchQuery(p_max=30, mode="multi-contraction"))
        render.render_table(rows)
    children = defaultdict(list)
    for span in tracer.spans:
        children[span[1]].append(span)
    assert children[-1], "no top-level spans"
    for span_id, _parent, name, start, end, own in tracer.spans:
        duration = end - start
        assert own >= 0
        assert own <= duration
        nested = children[span_id]
        assert sum(child[5] for child in nested) <= duration, name
        assert all(start <= child[3] and child[4] <= end for child in nested), name
    # Calls between modules are caught: scan -> configuration -> hj_resolve.
    parents = {span[0]: span[2] for span in tracer.spans}
    assert any(s[2] == "chains.hj_resolve" and parents.get(s[1]) == "invariants.configuration" for s in tracer.spans)


def test_installed_restores_every_binding():
    original = chains.hj_resolve
    with Tracer().installed():
        assert chains.hj_resolve is not original
        assert invariants.hj_resolve is chains.hj_resolve
        assert singlab.scan is search.scan
    assert invariants.hj_resolve is chains.hj_resolve is original
    assert not hasattr(search.scan, "__wrapped__")


def test_counts_repeat_exactly_across_traced_runs():
    def counts(args, stdin=b""):
        _, stats = _traced(args, stdin)
        return stats["trace"]["calls"], stats["trace"]["counts"]

    scan = ["cli", "--trace", "--", *SMALL_SCAN]
    assert counts(scan) == counts(scan)
    pairs = json.dumps(SMALL_PAIRS).encode()
    first = counts(["queries", "--trace"], pairs)
    assert first == counts(["queries", "--trace"], pairs)
    assert first[0]["eta.eta_cotangent"] == 2  # the two pairs with p <= 200
