"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (also echoed in the terminal summary).

Criterion 2 is split: 2a covers the eta and C closed forms, which hold for
every valid d; 2b covers the chain-length and entry-sum laws,
length = s - 2 + (partial-quotient sum of r/d) and sum = 3*length + 2 - s,
for every valid d.  The forms r+s-2 and 3r+2s-4 hold only for d in {1, r-1}
(first counterexample T(5,1,2), whose chain is (3,5,2) of length 3, not 4),
and 2b checks that too.
"""

import io
import itertools
import time
from contextlib import redirect_stdout
from fractions import Fraction

from conftest import ACCEPTANCE_LINES
from oracles import coprime_pairs, partial_quotient_sum, phi, valid_d

from singlab import (
    AtNode,
    CyclicQuotient,
    DivisionByZero,
    OnCurve,
    ResolutionChain,
    TypeTParams,
    artin_configuration,
    attach_family,
    blow_down,
    blow_up,
    cf_eval,
    configuration,
    configuration_invariants,
    enumerate_type_t,
    eta_cotangent,
    eta_exact,
    hj_resolve,
    mod_inverse,
    non_minimal_graph,
    recognize_type_t,
    theorem_tables,
    type_t_group,
    type_t_invariants,
    type_t_string,
)
from singlab.cli import main


def _report(tag, ok, elapsed, bound, detail=""):
    status = "PASS" if (ok and elapsed < bound) else "FAIL"
    line = f"criterion {tag}: {status} [{elapsed:.3f}s / {bound:g}s]"
    if detail:
        line += f" | {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < bound, line


def _cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_01_paper_value_reproduction():
    t0 = time.perf_counter()
    ok = _cli("resolve", "5", "2") == (0, "(3,2)\n")
    ok &= _cli("resolve", "7", "3") == (0, "(3,2,2)\n")
    expected = {(3, 1): Fraction(1), (5, 2): Fraction(2, 5), (7, 3): Fraction(1, 7)}
    for (p, q), c in expected.items():
        report = configuration_invariants(artin_configuration(CyclicQuotient(p, q)))
        ok &= report.c_value == c and report.positive
    _report("1 (reference values, exact)", ok, time.perf_counter() - t0, 0.1)


def test_criterion_02a_type_t_eta_and_c_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for r in range(2, 21):
        for s in range(1, 7):
            for d in valid_d(r):
                t = TypeTParams(r, s, d)
                g = type_t_group(t)
                ok &= eta_exact(g) == type_t_invariants(t).eta
                chain = hj_resolve(g)
                rep = configuration_invariants(configuration(g, [(0, len(chain) - 1)]))
                ok &= rep.b2 == s - 1 and rep.c_value == Fraction(4, g.p)
    _report(
        "2a (type-T eta, full-contraction C; all valid d)",
        ok,
        time.perf_counter() - t0,
        2.0,
    )


def test_criterion_02b_type_t_length_and_sum_closed_forms():
    t0 = time.perf_counter()
    bad = []
    total = 0
    for r in range(2, 21):
        for s in range(1, 7):
            for d in valid_d(r):
                total += 1
                t = TypeTParams(r, s, d)
                chain = type_t_string(t)
                ln, sm = len(chain), sum(chain)
                inv = type_t_invariants(t)
                extremal = d in (1, r - 1)
                stated = ln == r + s - 2 and sm == 3 * r + 2 * s - 4
                law = s - 2 + partial_quotient_sum(r, d)
                ok = ln == law and sm == 3 * law + 2 - s
                ok &= (inv.length, inv.sum_e) == (ln, sm)
                ok &= stated == extremal
                ok &= extremal or ln < r + s - 2
                if not ok:
                    bad.append((r, s, d, tuple(chain), law, inv.length, inv.sum_e))
    detail = (
        f"{len(bad)}/{total} triples violate length=s-2+pq(r/d), "
        f"sum=3*length+2-s, or r+s-2/3r+2s-4 exactly at d in {{1, r-1}}"
    )
    if bad:
        r, s, d, chain, law, inv_len, inv_sum = bad[0]
        detail += (
            f"; first: (r,s,d)=({r},{s},{d}) has chain {chain} with "
            f"(length,sum)=({len(chain)},{sum(chain)}), law "
            f"({law},{3 * law + 2 - s}), "
            f"type_t_invariants ({inv_len},{inv_sum})"
        )
    _report(
        "2b (type-T length/sum; all valid d)",
        not bad,
        time.perf_counter() - t0,
        2.0,
        detail,
    )


def test_criterion_03_attachment_families():
    t0 = time.perf_counter()
    ok = True
    positive_s = {1: {1, 2, 3}, 2: {1}, 3: {1}}
    for m in (1, 2, 3):
        for r in range(2, 21):
            for s in range(1, 6):
                for d in valid_d(r):
                    report, closed = attach_family(m, r, s, d)  # raises on mismatch
                    ok &= report.c_value == Fraction(4 - m * d * d * s, report.p)
                    if d == 1:
                        ok &= report.positive == (s in positive_s[m])
                    else:
                        ok &= not report.positive
    _report(
        "3 (attachment families: pipeline = closed forms, positivity)",
        ok,
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_04_eta_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for p, q in coprime_pairs(200):
        g = CyclicQuotient(p, q)
        diff = abs(eta_cotangent(g) - float(eta_exact(g)))
        if diff > worst:
            worst = diff
    _report(
        "4 (eta cotangent vs exact, p <= 200)",
        worst < 1e-9,
        time.perf_counter() - t0,
        5.0,
        f"worst |difference| = {worst:.3e}",
    )


def test_criterion_05_round_trip_and_duality():
    t0 = time.perf_counter()
    ok = True
    chains = {}
    for p, q in coprime_pairs(200):
        chain = chains[p, q] = hj_resolve(CyclicQuotient(p, q))
        ok &= cf_eval(chain) == Fraction(q, p)
    for (p, q), chain in chains.items():
        q_inv = mod_inverse(q, p)
        ok &= chains[p, q_inv] == tuple(reversed(chain))
        eta_q = Fraction(sum(chain) + Fraction(q_inv + q, p), 3) - len(chain)
        dual = chains[p, q_inv]
        eta_dual = Fraction(sum(dual) + Fraction(q + q_inv, p), 3) - len(dual)
        ok &= eta_q == eta_dual
    _report(
        "5 (round trip, reversal duality, eta symmetry, p <= 200)",
        ok,
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_06_su2_series():
    t0 = time.perf_counter()
    ok = True
    for p in range(2, 101):
        report = configuration_invariants(
            artin_configuration(CyclicQuotient(p, p - 1))
        )
        ok &= report.b2 == p - 1 and report.c_value == Fraction(4, p)
    _report("6 (A-series C = 4/p, p <= 100)", ok, time.perf_counter() - t0, 1.0)


def test_criterion_07_type_t_enumeration_and_recognition():
    t0 = time.perf_counter()
    ok = True
    entries = enumerate_type_t(12, 6)
    cells = {}
    for params, chain in entries:
        cells.setdefault((params.r, params.s), 0)
        cells[(params.r, params.s)] += 1
        ok &= recognize_type_t(chain) == params
        ok &= type_t_string(params) == chain
    for r in range(2, 13):
        for s in range(1, 7):
            ok &= cells.get((r, s), 0) == phi(r)
    # exhaustive sweep: recognize_type_t raises if the two methods disagree
    count = 0
    for k in range(1, 7):
        for c in itertools.product(range(2, 9), repeat=k):
            recognize_type_t(ResolutionChain(c))
            count += 1
    _report(
        "7 (enumeration phi(r) counts; recognizer agreement)",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"swept {count} chains of length <= 6 with entries <= 8",
    )


def test_criterion_08_blow_up_graphs_and_surgery():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 11):
        expected = ResolutionChain((1,) + (2,) * (n - 3) + (n + 1,))
        chain = ResolutionChain((n,))
        for _ in range(n - 2):
            chain = blow_up(chain, OnCurve(0, "left"))
        ok &= chain == expected == non_minimal_graph(n)
    ok &= non_minimal_graph(3) == (1, 4) and non_minimal_graph(4) == (1, 2, 5)
    # blow_down inverts blow_up at every valid site
    for k in range(1, 5):
        for entries in itertools.product(range(1, 5), repeat=k):
            chain = ResolutionChain(entries)
            sites = [(OnCurve(0, "left"), 0), (OnCurve(k - 1, "right"), k)]
            sites += [(AtNode(i), i + 1) for i in range(k - 1)]
            for site, new_index in sites:
                ok &= blow_down(blow_up(chain, site), new_index) == chain
    # interior blow-down of (..., a, 1, b, ...) preserves the bracket value
    # (skipping chains where either bracket is undefined)
    for a in range(2, 9):
        for b in range(2, 9):
            for prefix in ((), (2,), (3,)):
                for suffix in ((), (2,), (4,)):
                    chain = ResolutionChain(prefix + (a, 1, b) + suffix)
                    smaller = blow_down(chain, len(prefix) + 1)
                    try:
                        before = cf_eval(chain)
                        after = cf_eval(smaller)
                    except DivisionByZero:
                        continue
                    ok &= before == after
    _report("8 (named graphs and chain surgery)", ok, time.perf_counter() - t0, 1.0)


def test_criterion_09_theorem_tables_positive():
    t0 = time.perf_counter()
    rows = theorem_tables(20)
    ok = len(rows) == 3 + 5 * 19 and all(row.positive for row in rows)
    code, out = _cli("tables", "--theorems", "--r-max", "20")
    lines = out.splitlines()
    ok &= code == 0 and len(lines) == 1 + len(rows)
    ok &= all("+" in line for line in lines[1:])
    _report("9 (theorem tables all positive)", ok, time.perf_counter() - t0, 1.0)


def test_criterion_10_scan_determinism():
    t0 = time.perf_counter()
    args = ("search", "--p-max", "200", "--mode", "single-contraction")
    code1, out1 = _cli(*args)
    code2, out2 = _cli(*args)
    code3, out3 = _cli(*args, "--workers", "2")
    ok = code1 == code2 == code3 == 0
    ok &= out1 == out2 == out3 and len(out1) > 0
    rows = len(out1.splitlines()) - 1
    _report(
        "10 (scan determinism across runs and worker counts)",
        ok,
        time.perf_counter() - t0,
        30.0,
        f"{rows} rows, byte-identical, zero internal cross-check failures",
    )
