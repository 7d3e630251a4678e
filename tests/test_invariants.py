from fractions import Fraction
from math import gcd

import pytest

from singlab import (
    CyclicQuotient,
    InvalidConfiguration,
    ResolutionChain,
    SinglabError,
    TypeTParams,
    UnsupportedFamily,
    artin_configuration,
    attach_family,
    chain_to_quotient,
    configuration,
    configuration_invariants,
    eta_exact,
    family_minimal_graph,
    find_type_t_substrings,
    hj_resolve,
    recognize_type_t,
    theorem_tables,
    type_t_string,
)


def _artin_report(p, q):
    return configuration_invariants(artin_configuration(CyclicQuotient(p, q)))


def test_artin_examples():
    assert _artin_report(3, 1).c_value == 1
    assert _artin_report(5, 2).c_value == Fraction(2, 5)
    assert _artin_report(7, 3).c_value == Fraction(1, 7)
    report = _artin_report(7, 3)
    assert (report.k, report.sum_e, report.q_inv, report.b2) == (3, 7, 5, 3)
    assert report.label == "artin"
    assert report.positive


def test_full_contraction_example():
    cfg = configuration(CyclicQuotient(9, 2), [(0, 1)])
    report = configuration_invariants(cfg)
    assert report.chain == (5, 2)
    assert report.b2 == 0
    assert report.c_value == Fraction(4, 9)
    assert report.label == "contract[0..1]=T(3,1,1)"


def test_configuration_b2_bookkeeping():
    # contracting T(r,s,d) of length L trades L curves for s-1 classes
    cfg = configuration(CyclicQuotient(8, 3), [(0, 1)])  # (3,3) = T(2,2,1)
    assert cfg.b2 == 2 - 2 + 1 == 1
    report = configuration_invariants(cfg)
    assert report.c_value == Fraction(4, 8)


def test_configuration_validation():
    g = CyclicQuotient(9, 2)
    with pytest.raises(InvalidConfiguration):
        configuration(g, [(0, 2)])  # out of bounds
    with pytest.raises(InvalidConfiguration):
        configuration(g, [(1, 1)])  # (2) is not type T
    g2 = CyclicQuotient(13, 10)  # chain (2,2,2,4)
    with pytest.raises(InvalidConfiguration):
        configuration(g2, [(3, 3), (2, 3)])  # overlap
    cfg = configuration(g2, [(3, 3)])
    assert cfg.contracted[0].params == TypeTParams(2, 1, 1)


def test_multi_interval_label():
    # two disjoint (4) substrings around a separating curve
    g = chain_to_quotient(ResolutionChain((4, 3, 4)))
    cfg = configuration(g, [(0, 0), (2, 2)])
    report = configuration_invariants(cfg)
    assert report.label == "contract[0..0]=T(2,1,1)+contract[2..2]=T(2,1,1)"
    assert report.b2 == 1


def test_c_identity_sweep():
    for p in range(2, 60):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            report = _artin_report(p, q)
            assert report.c_value == 2 - report.b2 + Fraction(2, p) - 3 * report.eta
            assert report.positive == (report.c_value > 0)


def test_find_type_t_substrings():
    assert find_type_t_substrings((5, 2)) == [(0, 1, TypeTParams(3, 1, 1))]
    assert find_type_t_substrings((2, 4)) == [(1, 1, TypeTParams(2, 1, 1))]
    assert find_type_t_substrings((2, 2)) == []
    assert find_type_t_substrings((2, 2, 4)) == [(2, 2, TypeTParams(2, 1, 1))]
    # every reported substring really is type T of the reported params
    for a, b, params in find_type_t_substrings((3, 2, 4, 2, 4)):
        assert chain_to_quotient(
            ResolutionChain((3, 2, 4, 2, 4)[a : b + 1])
        ) == CyclicQuotient(params.group_order, params.r * params.s * params.d - 1)
    # the sweep and recognize_type_t share one arithmetic test; on every
    # minimal chain with p <= 60 they agree interval by interval (and
    # recognize_type_t also runs the peeling check on each substring)
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            chain = hj_resolve(CyclicQuotient(p, q))
            expected = [
                (a, b, params)
                for a in range(len(chain))
                for b in range(a, len(chain))
                if (params := recognize_type_t(ResolutionChain(chain[a : b + 1])))
            ]
            assert find_type_t_substrings(chain) == expected


def test_attach_family_examples():
    report, closed = attach_family(1, 2, 1, 1)
    assert (report.p, report.q) == (7, 4)
    assert report.c_value == Fraction(3, 7)
    assert report.b2 == 1
    assert closed.q_inv == 2  # equivalent presentation 1/7(1,2)

    report, _ = attach_family(2, 2, 1, 1)
    assert (report.p, report.q) == (10, 7)
    assert report.c_value == Fraction(1, 5)
    assert report.b2 == 2
    assert report.q_inv == 3  # equivalent presentation 1/10(1,3)

    report, _ = attach_family(3, 2, 1, 1)
    assert (report.p, report.q) == (13, 10)
    assert report.c_value == Fraction(1, 13)
    assert report.b2 == 3
    assert report.q_inv == 4  # equivalent presentation 1/13(1,4)


def test_attach_family_validation():
    with pytest.raises(SinglabError):
        attach_family(4, 2, 1, 1)
    with pytest.raises(SinglabError):
        attach_family(1, 4, 1, 2)  # gcd(4,2) != 1
    with pytest.raises(SinglabError):
        attach_family(1, 3, 1, 3)  # d out of range


def test_attach_family_closed_forms_grid():
    for m in (1, 2, 3):
        for r in range(2, 11):
            for s in range(1, 5):
                for d in range(1, r):
                    if gcd(r, d) != 1:
                        continue
                    report, closed = attach_family(m, r, s, d)
                    assert report.p == m + m * d * r * s + r * r * s
                    assert report.eta == closed.eta
                    assert report.c_value == Fraction(4 - m * d * d * s, report.p)


def test_positivity_boundaries():
    for m, positive_s in ((1, {1, 2, 3}), (2, {1}), (3, {1})):
        for r in range(2, 11):
            for s in range(1, 6):
                report, _ = attach_family(m, r, s, 1)
                assert report.positive == (s in positive_s)
    # d >= 2 is never positive
    for m in (1, 2, 3):
        for r in range(3, 11):
            for s in range(1, 4):
                for d in range(2, r):
                    if gcd(r, d) != 1:
                        continue
                    report, _ = attach_family(m, r, s, d)
                    assert not report.positive


def test_family_minimal_graph_examples():
    assert family_minimal_graph(1, 2, 1) == (2, 4)
    assert family_minimal_graph(2, 2, 1) == (2, 2, 4)
    assert family_minimal_graph(1, 3, 2) == (2, 2, 3, 4)
    assert family_minimal_graph(1, 2, 3) == (2, 3, 2, 3)
    assert family_minimal_graph(3, 2, 1) == (2, 2, 2, 4)
    with pytest.raises(UnsupportedFamily):
        family_minimal_graph(1, 2, 4)
    with pytest.raises(UnsupportedFamily):
        family_minimal_graph(2, 2, 2)
    with pytest.raises(UnsupportedFamily):
        family_minimal_graph(1, 1, 1)


def test_family_minimal_graph_matches_pipeline():
    for m, s in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1)):
        for r in range(2, 21):
            report, _ = attach_family(m, r, s, 1)
            graph = family_minimal_graph(m, r, s)
            assert hj_resolve(CyclicQuotient(report.p, report.q)) == graph


def test_theorem_tables_rows():
    rows = theorem_tables(20)
    assert all(row.positive for row in rows)
    by_pq = {(row.p, row.q): row for row in rows}
    assert by_pq[(3, 1)].c_value == 1
    assert by_pq[(5, 2)].c_value == Fraction(2, 5)
    assert by_pq[(7, 3)].c_value == Fraction(1, 7)
    # the five families at r = 3 and r = 2
    row = by_pq[(13, 3)]
    assert (row.b2, row.c_value) == (1, Fraction(3, 13))
    row = by_pq[(19, 8)]
    assert (row.b2, row.c_value) == (3, Fraction(1, 19))
    row = by_pq[(10, 3)]
    assert (row.b2, row.c_value) == (2, Fraction(1, 5))
    row = by_pq[(13, 5)]
    assert (row.b2, row.c_value) == (2, Fraction(2, 13))
    row = by_pq[(13, 4)]
    assert (row.b2, row.c_value) == (3, Fraction(1, 13))
    # 3 fixed rows + 5 families x r in [2, 20]
    assert len(rows) == 3 + 5 * 19
    # sorted by (p, q, label)
    assert rows == sorted(rows, key=lambda r: (r.p, r.q, r.label))


def test_theorem_tables_eta_consistency():
    for row in theorem_tables(8):
        assert row.eta == eta_exact(CyclicQuotient(row.p, row.q))


def test_right_attachment_is_reversal_conjugate():
    # appending the 2-run on the right of T(r,s,1) reverses the left-attached
    # chain of T(r,s,r-1)
    for m, s in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3)):
        for r in range(2, 9):
            left = (2,) * m + tuple(type_t_string(TypeTParams(r, s, r - 1)))
            right = tuple(type_t_string(TypeTParams(r, s, 1))) + (2,) * m
            assert tuple(reversed(left)) == right
