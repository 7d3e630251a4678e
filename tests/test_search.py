import csv
import errno
import hashlib
import importlib.util
import io
import json
import os
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from singlab import (
    CyclicQuotient,
    InternalCheckError,
    ResolutionConfiguration,
    RowLimitExceeded,
    SearchQuery,
    SinglabError,
    chains,
    configuration,
    configuration_invariants,
    find_type_t_substrings,
    hj_resolve,
    invariants,
    render,
    scan,
    search,
)
from singlab.exact import decimal_str
from singlab.render import (
    FORMATS,
    _records,
    render_csv,
    render_json,
    render_table,
    stitch,
)
from singlab.search import MODES, _disjoint_subsets, _pair_rows, row_limit, scan_pieces

ROOT = Path(__file__).resolve().parents[1]


def test_query_validation():
    with pytest.raises(SinglabError):
        SearchQuery(p_max=1)
    with pytest.raises(SinglabError):
        SearchQuery(p_max=5, mode="everything")
    with pytest.raises(SinglabError):
        SearchQuery(p_max=5, workers=0)
    with pytest.raises(SinglabError):
        SearchQuery(p_max=5, max_contractions=0)
    # Counts are integers and flags are bools, rejected when the query is
    # built, not by range() or < inside the scan.
    for fields in (
        {"p_max": 10.0},
        {"p_max": "10"},
        {"p_max": True},
        {"p_max": 10, "workers": 2.0},
        {"p_max": 10, "workers": True},
        {"p_max": 10, "max_contractions": True},
        {"p_max": 10, "max_contractions": 3.0},
        {"p_max": 10, "positive_only": "no"},
        {"p_max": 10, "positive_only": 0},
        {"p_max": 10, "dedup_conjugate": 1},
    ):
        with pytest.raises(SinglabError, match="must be an integer|must be a bool"):
            SearchQuery(**fields)
    SearchQuery(p_max=10, workers=2, max_contractions=1, positive_only=True,
                dedup_conjugate=False)


def test_smallest_scan():
    rows = scan(SearchQuery(p_max=2))
    assert len(rows) == 1
    row = rows[0]
    assert (row.p, row.q, row.label) == (2, 1, "artin")
    assert row.c_value == 2


def test_artin_positive_rows_up_to_7():
    rows = scan(SearchQuery(p_max=7, mode="artin-only", positive_only=True))
    non_su2 = {(r.p, r.q) for r in rows if r.q != r.p - 1}
    # the three groups with only the Artin component, with their conjugates
    assert non_su2 == {(3, 1), (5, 2), (5, 3), (7, 3), (7, 5)}
    values = {(r.p, r.q): r.c_value for r in rows}
    assert values[(3, 1)] == 1
    assert values[(5, 2)] == Fraction(2, 5)
    assert values[(7, 3)] == Fraction(1, 7)


def test_su2_rows_have_c_4_over_p():
    rows = scan(SearchQuery(p_max=40, mode="artin-only"))
    for row in rows:
        if row.q == row.p - 1:
            assert row.c_value == Fraction(4, row.p)


def test_single_contraction_includes_full_type_t():
    rows = scan(SearchQuery(p_max=9, mode="single-contraction"))
    match = [r for r in rows if (r.p, r.q, r.label) == (9, 2, "contract[0..1]=T(3,1,1)")]
    assert len(match) == 1
    assert match[0].c_value == Fraction(4, 9)
    assert match[0].b2 == 0


def test_multi_contains_single():
    single = scan(SearchQuery(p_max=45, mode="single-contraction"))
    multi = scan(SearchQuery(p_max=45, mode="multi-contraction"))
    assert set(single).issubset(set(multi))
    # some chain admits two disjoint contractions
    assert any("+" in r.label for r in multi)


def test_multi_respects_cap():
    capped = scan(SearchQuery(p_max=60, mode="multi-contraction", max_contractions=1))
    single = scan(SearchQuery(p_max=60, mode="single-contraction"))
    assert capped == single


def test_dedup_conjugate():
    rows = scan(SearchQuery(p_max=30, dedup_conjugate=True))
    assert all(r.q <= r.q_inv for r in rows)
    full = scan(SearchQuery(p_max=30))
    kept = {(r.p, r.q) for r in rows}
    for r in full:
        assert ((r.p, r.q) in kept) == (r.q <= r.q_inv)


def test_scan_determinism_and_workers():
    q1 = SearchQuery(p_max=50, mode="single-contraction")
    q2 = SearchQuery(p_max=50, mode="single-contraction", workers=3)
    rows1, rows2 = scan(q1), scan(q2)
    assert rows1 == rows2
    assert render_json(rows1) == render_json(rows2)
    assert render_csv(rows1) == render_csv(rows2)
    assert render_table(rows1) == render_table(rows2)
    assert rows1 == sorted(rows1, key=lambda r: (r.p, r.q, r.label))


# sha256 of each renderer's output over scan(SearchQuery(p_max=60, mode=m)),
# recorded before the O(1) type-T test and the integer C landed; any change
# to a row, its order or its formatting changes a digest.
GOLDEN_P60 = {
    "artin-only": (
        1101,
        "c4511f40fb10d2d1468a9876649aebbd48c9c4321cf821d0f6b6dd91c1e36602",
        "6f27793a3fc751d2db24405fc1ace022109ccf88099be1b849c9da21d96ff162",
        "b04f74cf7266c1e950d8884317adfef8669a5e7ddd015ebf31e2889ce15fa9da",
    ),
    "single-contraction": (
        1866,
        "9ce4814f8bc94bae0db10735f3c23c88f3923fab5785298fe03942d227d176e7",
        "2b3f194c82f272678c72139b00bcc6cb0416e9ec4f46c5d7305f354905141518",
        "3f6a8a98eaa75fc4544e4ee7e979eec611adab609ea8216d778559ca8bb371eb",
    ),
    "multi-contraction": (
        1932,
        "a9a701d4a2644610024a942437a9d4f5aa03068b6f7078182f11599de8776b63",
        "a57aa2428c4f174a1a5a422663519523609ec50b6ab091befe8522047f2d2fa2",
        "78a56a31ccd494ad36eac90c42c6a152ef92c5b67f57e4a5734fc734d060f50c",
    ),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "mode, workers",
    [("artin-only", 1), ("single-contraction", 1), ("multi-contraction", 1),
     ("multi-contraction", 2)],
)
def test_golden_output_digests(mode, workers):
    rows = scan(SearchQuery(p_max=60, mode=mode, workers=workers))
    count, table, json_, csv_ = GOLDEN_P60[mode]
    assert len(rows) == count
    assert _digest(render_table(rows)) == table
    assert _digest(render_json(rows)) == json_
    assert _digest(render_csv(rows)) == csv_


def test_scan_processes_capped_at_cores(monkeypatch):
    # A stand-in for ProcessPoolExecutor records its process count and maps
    # in this process, so no process is started.
    started, cancelled = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, cancel_futures=False):
            cancelled.append(cancel_futures)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)

    def pools(cores, p_max=12, **kw):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        started.clear()
        rows = scan(SearchQuery(p_max=p_max, **kw))
        assert rows == scan(SearchQuery(p_max=p_max))
        return list(started)

    assert pools(2, workers=64) == [2]
    assert pools(2, workers=2) == [2]
    assert pools(8, workers=3) == [3]
    assert pools(None, workers=4) == []  # one process: no pool
    assert pools(2) == []
    assert pools(8, p_max=3, workers=8) == [2]
    # A row-limit abort shuts the pool down with its pending work cancelled.
    monkeypatch.setenv("SINGLAB_ROW_LIMIT", "5")
    cancelled.clear()
    with pytest.raises(RowLimitExceeded):
        scan(SearchQuery(p_max=10, workers=2))
    assert cancelled == [True]


def test_labels_sorted_within_pair_at_p74():
    # (74, 67) is the first pair whose labels mix one- and two-digit start
    # indices, so string order differs from generation order there.
    rows = scan(SearchQuery(p_max=74, mode="multi-contraction"))
    labels = [r.label for r in rows if (r.p, r.q) == (74, 67)]
    assert labels.index("contract[10..10]=T(2,1,1)") < labels.index(
        "contract[8..10]=T(3,2,2)"
    )
    assert labels == sorted(labels)
    assert rows == sorted(rows, key=lambda r: (r.p, r.q, r.label))
    assert rows == scan(SearchQuery(p_max=74, mode="multi-contraction", workers=2))


def test_row_limit_guard(monkeypatch):
    monkeypatch.setenv("SINGLAB_ROW_LIMIT", "5")
    assert row_limit() == 5
    with pytest.raises(RowLimitExceeded):
        scan(SearchQuery(p_max=10))
    monkeypatch.setenv("SINGLAB_ROW_LIMIT", "junk")
    with pytest.raises(SinglabError):
        scan(SearchQuery(p_max=3))
    monkeypatch.setenv("SINGLAB_ROW_LIMIT", "0")
    with pytest.raises(SinglabError):
        scan(SearchQuery(p_max=3))
    monkeypatch.delenv("SINGLAB_ROW_LIMIT")
    assert row_limit() == 10_000_000


def test_json_schema_field_order():
    rows = scan(SearchQuery(p_max=5, mode="single-contraction"))
    parsed = json.loads(render_json(rows))
    assert len(parsed) == len(rows)
    for obj in parsed:
        assert list(obj) == [
            "p", "q", "chain", "k", "sum_e", "q_inv", "eta", "b2", "c",
            "positive", "label",
        ]
        assert list(obj["eta"]) == ["num", "den", "approx"]
        assert list(obj["c"]) == ["num", "den", "approx"]
        assert isinstance(obj["eta"]["num"], str)
        assert isinstance(obj["positive"], bool)


def test_json_values_round_trip():
    rows = scan(SearchQuery(p_max=9, mode="artin-only"))
    parsed = json.loads(render_json(rows))
    for row, obj in zip(rows, parsed):
        assert Fraction(int(obj["eta"]["num"]), int(obj["eta"]["den"])) == row.eta
        assert Fraction(int(obj["c"]["num"]), int(obj["c"]["den"])) == row.c_value
        assert obj["chain"] == list(row.chain)


def test_csv_format():
    rows = scan(SearchQuery(p_max=5))
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "p,q,chain,k,sum_e,q_inv,eta,b2,c,positive,label"
    assert lines[1] == '2,1,(2),1,2,1,0/1,1,2/1,true,artin'
    assert len(lines) == len(rows) + 1


def test_table_format():
    rows = scan(SearchQuery(p_max=5, positive_only=True))
    text = render_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == [
        "p", "q", "chain", "k", "sum_e", "q_inv", "eta", "b2", "C", "label",
    ]
    # positive C values carry the trailing marker
    assert all("+" in line for line in lines[1:])
    assert render_table([]).splitlines()[0].split()[0] == "p"


def _builder_reports(g, cap):
    # The reference rows of one pair: configuration_invariants of the Artin
    # configuration and of configuration(g, intervals) for each disjoint
    # subset of at most cap hits, sorted by label as a scan sorts them.
    chain = hj_resolve(g)
    reports = [configuration_invariants(configuration(g, ()))]
    if cap:
        for chosen in _disjoint_subsets(find_type_t_substrings(chain), cap):
            intervals = [(iv.start, iv.stop) for iv in chosen]
            reports.append(configuration_invariants(configuration(g, intervals)))
    return sorted(reports, key=lambda row: row.label)


def test_scan_rows_match_the_validating_builder():
    # The scan builds each contracted configuration from the sweep's hits;
    # configuration() re-resolves the chain, checks bounds and overlaps and
    # re-recognises every substring, so it is the reference for those rows.
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            g = CyclicQuotient(p, q)
            chain = hj_resolve(g)
            for chosen in _disjoint_subsets(find_type_t_substrings(chain), 3):
                built = ResolutionConfiguration(g, chain, tuple(chosen))
                assert built == configuration(g, [(iv.start, iv.stop) for iv in chosen])
    # The scan's rows come from one pair record per pair, not from
    # configuration_invariants, which is the reference for every row.
    for mode, cap in {"artin-only": 0, "single-contraction": 1, "multi-contraction": 3}.items():
        expected = [
            report
            for p in range(2, 61)
            for q in range(1, p)
            if gcd(p, q) == 1
            for report in _builder_reports(CyclicQuotient(p, q), cap)
        ]
        assert scan(SearchQuery(p_max=60, mode=mode)) == expected


def _chain_length(p, q):
    # len(hj_resolve(CyclicQuotient(p, q))) from the regular continued
    # fraction, without building the chain: q = p - 1 alone has p - 1
    # entries, 8 GB at p = 10**9.  See hj_resolve for the entry counts.
    terms, a, b = [], p, q
    while b:
        terms.append(a // b)
        a, b = b, a % b
    return len(terms[::2]) + sum(t - 1 for t in terms[1::2])


@given(st.integers(2, 10**9), st.integers(1, 10**9))
def test_scan_rows_match_the_validating_builder_at_large_p(p, q0):
    # The same reference past the p <= 60 window: recognition is linear in
    # the substring length, so configuration() keeps up at any p.
    q = q0 % p
    assume(q != 0 and gcd(p, q) == 1 and _chain_length(p, q) <= 200)
    g = CyclicQuotient(p, q)
    chain = hj_resolve(g)
    for chosen in _disjoint_subsets(find_type_t_substrings(chain), 3):
        built = ResolutionConfiguration(g, chain, tuple(chosen))
        assert built == configuration(g, [(iv.start, iv.stop) for iv in chosen])


def test_sweep_checks_every_hit(monkeypatch):
    # The scan does not re-recognise its substrings, so the sweep's
    # continued-fraction check on each hit is what catches a wrong walk.
    true_pair = invariants.cf_eval_pair

    def wrong_pair(chain):
        num, den = true_pair(chain)
        return num + 1, den

    monkeypatch.setattr(invariants, "cf_eval_pair", wrong_pair)
    with pytest.raises(InternalCheckError, match=r"\[0\.\.1\] = T\(3,1,1\)"):
        find_type_t_substrings((5, 2))
    with pytest.raises(InternalCheckError):
        scan(SearchQuery(p_max=12, mode="single-contraction"))


def _bump_q_inverse(monkeypatch):
    # Both routes' pair records take q^(-1;p) from mod_inverse.
    true_inverse = invariants.mod_inverse
    monkeypatch.setattr(invariants, "mod_inverse", lambda q, p: true_inverse(q, p) + 1)


def _bump_chain_entry(monkeypatch):
    # scan() resolves through hj_resolve, which reads chains._hj_chain;
    # scan_pieces calls search._hj_chain directly.
    true_chain = chains._hj_chain

    def bumped(p, q):
        chain = true_chain(p, q)
        return chains.ResolutionChain(chain[:-1] + (chain[-1] + 1,))

    monkeypatch.setattr(chains, "_hj_chain", bumped)
    monkeypatch.setattr(search, "_hj_chain", bumped)


@pytest.mark.parametrize("fault", [_bump_q_inverse, _bump_chain_entry])
def test_scan_checks_eta_once_per_pair(monkeypatch, fault):
    # The Dedekind check runs once per pair, on the pair record every row of
    # the pair is built from, so a wrong inverse or a wrong chain entry
    # still fails every scan and every rendering of one.
    fault(monkeypatch)
    for mode in MODES:
        query = SearchQuery(p_max=12, mode=mode)
        with pytest.raises(InternalCheckError, match="eta cross-check"):
            scan(query)
        for fmt in FORMATS:
            with pytest.raises(InternalCheckError, match="eta cross-check"):
                "".join(scan_pieces(query, fmt))


def test_only_scan_builds_a_quotient_and_a_configuration_per_pair(monkeypatch):
    # scan_pieces, the path of singlab search, resolves each pair from its
    # integers.  scan() resolves it through CyclicQuotient and
    # artin_configuration, once each per pair, so that its calls nest as
    # the benchmark's tracer test expects.
    built, configured = [], []
    true_post_init = CyclicQuotient.__post_init__
    true_artin = search.artin_configuration

    def counted_post_init(g):
        built.append((g.p, g.q))
        true_post_init(g)

    def counted_artin(g):
        configured.append((g.p, g.q))
        return true_artin(g)

    monkeypatch.setattr(CyclicQuotient, "__post_init__", counted_post_init)
    monkeypatch.setattr(search, "artin_configuration", counted_artin)
    pairs = [(p, q) for p in range(2, 31) for q in range(1, p) if gcd(p, q) == 1]
    for mode in MODES:
        query = SearchQuery(p_max=30, mode=mode)
        for fmt in FORMATS:
            built.clear()
            configured.clear()
            "".join(scan_pieces(query, fmt))
            assert (built, configured) == ([], [])
        built.clear()
        configured.clear()
        scan(query)
        assert built == configured == pairs


def test_scan_runs_the_dedekind_sum_once_per_pair(monkeypatch):
    calls = []
    true_eta_num = invariants._eta_num

    def counted(p, q):
        calls.append((p, q))
        return true_eta_num(p, q)

    monkeypatch.setattr(invariants, "_eta_num", counted)
    pairs = [(p, q) for p in range(2, 31) for q in range(1, p) if gcd(p, q) == 1]
    for mode in MODES:
        query = SearchQuery(p_max=30, mode=mode)
        calls.clear()
        scan(query)
        assert calls == pairs
        for fmt in FORMATS:
            calls.clear()
            "".join(scan_pieces(query, fmt))
            assert calls == pairs


# The report-based renderers that the record-based part renderers replaced,
# kept as their reference: csv.writer, json.dumps and the table cells of
# each report, then the library's stitchers.
def _chain_cell(chain):
    return "(" + ",".join(str(e) for e in chain) + ")"


def _num_den(x):
    return f"{x.numerator}/{x.denominator}"


def _rational_obj(x):
    return {"num": str(x.numerator), "den": str(x.denominator), "approx": decimal_str(x)}


def _reference_render_json(rows):
    part = ",\n".join(
        json.dumps(
            {
                "p": row.p,
                "q": row.q,
                "chain": list(row.chain),
                "k": row.k,
                "sum_e": row.sum_e,
                "q_inv": row.q_inv,
                "eta": _rational_obj(row.eta),
                "b2": row.b2,
                "c": _rational_obj(row.c_value),
                "positive": row.positive,
                "label": row.label,
            }
        )
        for row in rows
    )
    return "".join(stitch("json", [part]))


def _reference_render_csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [
            row.p,
            row.q,
            _chain_cell(row.chain),
            row.k,
            row.sum_e,
            row.q_inv,
            _num_den(row.eta),
            row.b2,
            _num_den(row.c_value),
            "true" if row.positive else "false",
            row.label,
        ]
        for row in rows
    )
    return "".join(stitch("csv", [buf.getvalue()]))


def _reference_render_table(rows):
    records = [
        (
            str(row.p),
            str(row.q),
            _chain_cell(row.chain),
            str(row.k),
            str(row.sum_e),
            str(row.q_inv),
            _num_den(row.eta),
            str(row.b2),
            _num_den(row.c_value) + ("+" if row.positive else ""),
            row.label,
        )
        for row in rows
    ]
    widths = tuple(max(map(len, column)) for column in zip(*records))
    part = (widths or (0,) * 10, "\n".join(map("\t".join, records)))
    return "".join(stitch("table", [part]))


REFERENCE_RENDER = {
    "table": (_reference_render_table, render_table),
    "json": (_reference_render_json, render_json),
    "csv": (_reference_render_csv, render_csv),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "filters", [{}, {"positive_only": True}, {"dedup_conjugate": True}]
)
def test_renderers_match_the_report_based_reference(mode, filters):
    # p_max 80 takes in (74, 67), whose labels mix one- and two-digit starts.
    query = SearchQuery(p_max=80, mode=mode, **filters)
    rows = scan(query)
    for fmt, (reference, render) in REFERENCE_RENDER.items():
        expected = reference(rows)
        assert render(rows) == expected
        assert "".join(scan_pieces(query, fmt)) == expected


@given(st.integers(2, 10**9), st.integers(1, 10**9))
@example(4, 1)  # k = 1 with a hit: the chain (4) contracts to T(2,1,1)
@example(10**9 - 1, 1)  # k = 1, no hit, C numerator near -10**9
@example(74, 67)
def test_pair_rows_render_as_the_reference_at_large_p(p, q0):
    # One pair's record and rows, through each part renderer, give the bytes
    # the report-based reference gives for the builder's reports.
    q = q0 % p
    assume(q != 0 and gcd(p, q) == 1 and _chain_length(p, q) <= 200)
    expected = _builder_reports(CyclicQuotient(p, q), 3)
    # scan_pieces' chain source and scan()'s give the same record and rows.
    pair, rows = _pair_rows(p, q, 3, chains._hj_chain)
    assert _pair_rows(p, q, 3, search._artin_chain) == (pair, rows)
    assert [invariants._report(p, pair, row) for row in rows] == expected
    for fmt, (reference, render) in REFERENCE_RENDER.items():
        part = FORMATS[fmt][0]
        text = reference(expected)
        assert render(expected) == text
        assert "".join(stitch(fmt, [part([(p, pair, rows)])])) == text


def test_bench_scans_keep_their_digests(monkeypatch):
    # The benchmark's three scans, run in process: the bytes they check on
    # every bench run are checked here too.  bench/run.py is only imported.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_run)  # for its dataclass
    spec.loader.exec_module(bench_run)
    assert len(bench_run.SCANS) == 3
    for name, bench_scan in bench_run.SCANS.items():
        args = dict(zip(bench_scan.args[::2], bench_scan.args[1::2]))
        query = SearchQuery(p_max=int(args["--p-max"]), mode=args["--mode"])
        text = "".join(scan_pieces(query, args.get("--format", "table")))
        assert _digest(text) == bench_scan.sha256, name


RENDERERS = {"table": render_table, "json": render_json, "csv": render_csv}


def test_pieces_are_bounded_and_spooled_equal_to_memory(monkeypatch):
    # Every piece is at most render._PIECE characters, whichever way the
    # parts are cut, and the spooled stitch equals render_<fmt>, which
    # stitches in memory.
    monkeypatch.setattr(render, "_PIECE", 4096)
    query = SearchQuery(p_max=40, mode="single-contraction")
    rows = scan(query)
    for fmt, (part, _) in FORMATS.items():
        expected = RENDERERS[fmt](rows)
        pieces = list(scan_pieces(query, fmt))
        assert "".join(pieces) == expected
        assert len(pieces) > 10
        assert max(map(len, pieces)) <= 4096
        parts = [part(_records(rows[i : i + 50])) for i in range(0, len(rows), 50)]
        pieces = list(stitch(fmt, parts))
        assert "".join(pieces) == expected
        assert max(map(len, pieces)) <= 4096


def _open_fds():
    # Less the descriptor that listed the directory, closed by now.
    fds = os.listdir("/proc/self/fd")
    return {fd for fd in fds if os.path.lexists(f"/proc/self/fd/{fd}")}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_no_spool_file_outlives_the_scan(monkeypatch, tmp_path):
    # The spool is an unnamed file in TMPDIR while the scan runs, and it is
    # closed however the scan ends.
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    real_p_rows = search._p_rows
    seen = {}

    def spy_p_rows(p, mode, cap, resolve):
        if p == 12:
            seen["spools"] = [
                target
                for target in (os.readlink(f"/proc/self/fd/{fd}") for fd in _open_fds() - before)
                if target.startswith(str(tmp_path))
            ]
            if seen.get("error"):
                raise seen["error"](f"injected failure at p = {p}")
        return real_p_rows(p, mode, cap, resolve)

    query = SearchQuery(p_max=12)
    rows = scan(query)
    monkeypatch.setattr(search, "_p_rows", spy_p_rows)
    before = _open_fds()
    for fmt in FORMATS:
        assert "".join(scan_pieces(query, fmt)) == RENDERERS[fmt](rows)
        [spool] = seen.pop("spools")
        assert spool.endswith("(deleted)") and not os.listdir(tmp_path)
        assert _open_fds() == before
        pieces = scan_pieces(query, fmt)
        next(pieces)
        pieces.close()
        assert _open_fds() == before
    # The raised error keeps the scan's frames alive, so the spool must have
    # been closed, not merely dropped.
    monkeypatch.setenv("SINGLAB_ROW_LIMIT", "5")
    with pytest.raises(RowLimitExceeded) as info:
        scan_pieces(query, "csv")
    assert _open_fds() == before
    del info
    monkeypatch.delenv("SINGLAB_ROW_LIMIT")
    seen["error"] = InternalCheckError
    for fmt in FORMATS:
        with pytest.raises(InternalCheckError, match="injected failure") as info:
            scan_pieces(query, fmt)
        assert len(seen.pop("spools")) == 1
        assert _open_fds() == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_spool_is_a_singlab_error(monkeypatch):
    # /dev/full fails every write with ENOSPC, as a full disk does: the
    # buffered small writes when the spool is flushed, the large ones at once.
    import tempfile

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *a, **kw: open("/dev/full", "w+b"))
    before = _open_fds() if os.path.isdir("/proc/self/fd") else None
    for p_max in (5, 200):
        for fmt in FORMATS:
            with pytest.raises(SinglabError, match="cannot spool the output in") as info:
                scan_pieces(SearchQuery(p_max=p_max), fmt)
            assert info.value.__cause__.errno == errno.ENOSPC
    if before is not None:
        assert _open_fds() == before


def test_an_unknown_format_fails_before_a_pool_or_a_spool(monkeypatch, tmp_path):
    # stitch and scan_pieces reject a format with the same error, before
    # they start a pool, create a spool or take a part.
    import tempfile

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    started = []

    def record(*args, **kwargs):
        started.append(args)
        raise AssertionError("no pool or spool may be started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", record)
    monkeypatch.setattr(tempfile, "TemporaryFile", record)

    def parts():
        started.append("parts")
        yield ""

    message = r"format must be one of \('table', 'json', 'csv'\), got 'xml'"
    with pytest.raises(SinglabError, match=message):
        stitch("xml", parts())
    with pytest.raises(SinglabError, match=message):
        scan_pieces(SearchQuery(p_max=12, workers=2), "xml")
    assert started == [] and os.listdir(tmp_path) == []
