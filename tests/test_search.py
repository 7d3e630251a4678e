import json
from fractions import Fraction

import pytest

from singlab import (
    RowLimitExceeded,
    SearchQuery,
    SinglabError,
    scan,
)
from singlab.render import render_csv, render_json, render_table
from singlab.search import _scan_tasks, row_limit


def test_query_validation():
    with pytest.raises(SinglabError):
        SearchQuery(p_max=1)
    with pytest.raises(SinglabError):
        SearchQuery(p_max=5, mode="everything")
    with pytest.raises(SinglabError):
        SearchQuery(p_max=5, workers=0)
    with pytest.raises(SinglabError):
        SearchQuery(p_max=5, max_contractions=0)


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


def test_scan_processes_capped_at_cores(monkeypatch):
    # Inspects the task list only; no process is started.
    def processes(cores, **kw):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        tasks = _scan_tasks(SearchQuery(p_max=200, **kw), 99)
        assert tasks[0][0] == 2 and tasks[-1][1] == 201
        assert all(t[1] == u[0] for t, u in zip(tasks, tasks[1:]))
        return len(tasks)

    assert processes(2, workers=64) == 2
    assert processes(2, workers=2) == 2
    assert processes(8, workers=3) == 3
    assert processes(None, workers=4) == 1
    assert processes(2) == 1
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert len(_scan_tasks(SearchQuery(p_max=3, workers=8), 99)) == 2


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
