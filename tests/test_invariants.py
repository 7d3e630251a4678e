from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from singlab import (
    CyclicQuotient,
    InternalCheckError,
    InvalidConfiguration,
    NonMinimalChain,
    ResolutionChain,
    ResolutionConfiguration,
    SinglabError,
    TypeTParams,
    UnsupportedFamily,
    artin_configuration,
    attach_family,
    chain_to_quotient,
    configuration,
    configuration_invariants,
    enumerate_type_t,
    eta_exact,
    family_minimal_graph,
    find_type_t_substrings,
    hj_resolve,
    invariants,
    recognize_type_t,
    theorem_tables,
    type_t_string,
)
from singlab.type_t import _params_of_pair


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
    for overlap in ([(3, 3), (2, 3)], [(2, 3), (3, 3)], [(3, 3), (3, 3)]):
        with pytest.raises(InvalidConfiguration):
            configuration(g2, overlap)
    cfg = configuration(g2, [(3, 3)])
    assert cfg.contracted[0].params == TypeTParams(2, 1, 1)
    # intervals come back sorted by start, whatever order they are given in
    g3 = chain_to_quotient(ResolutionChain((4, 3, 4)))
    cfg = configuration(g3, [(2, 2), (0, 0)])
    assert [(iv.start, iv.stop) for iv in cfg.contracted] == [(0, 0), (2, 2)]


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


def test_eta_check_catches_a_wrong_chain_or_inverse(monkeypatch):
    # The chain and q^(-1;p) feed the chain-sum eta only; the Dedekind route
    # reads neither, so breaking either one must raise.
    g = CyclicQuotient(7, 3)  # chain (3, 2, 2), q^(-1) = 5
    with pytest.raises(InternalCheckError):
        configuration_invariants(
            ResolutionConfiguration(g, ResolutionChain((3, 2, 3)), ())
        )
    # Every pair record, a point query's or a scan's, takes q^(-1;p) from
    # mod_inverse.
    true_inverse = invariants.mod_inverse
    monkeypatch.setattr(invariants, "mod_inverse", lambda q, p: true_inverse(q, p) + 1)
    with pytest.raises(InternalCheckError):
        _artin_report(7, 3)


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
            assert find_type_t_substrings(chain) == _sweep_by_recognition(chain)


def test_find_type_t_substrings_needs_minimal_chain():
    # (2,6,3,1,2) has the value of T(3,1,2) but contains a (-1)-curve
    with pytest.raises(NonMinimalChain):
        find_type_t_substrings((2, 6, 3, 1, 2))
    with pytest.raises(NonMinimalChain):
        find_type_t_substrings((3, 0))


def _sweep_by_recognition(chain):
    return [
        (a, b, params)
        for a in range(len(chain))
        for b in range(a, len(chain))
        if (params := recognize_type_t(ResolutionChain(chain[a : b + 1])))
    ]


def _sweep_by_bracket(chain):
    # The O(k^2) sweep that find_type_t_substrings replaced: every interval is
    # visited with an incremental continued-fraction recurrence (extending the
    # bracket one entry to the left costs O(1)), its s comes from prefix sums,
    # and intervals with a 2 at both ends are skipped.
    if not all(e >= 2 for e in chain):
        raise NonMinimalChain(
            f"the type-T sweep needs a minimal chain, got {tuple(chain)}"
        )
    # s of chain[a..b] is 2 + 3*(b-a+1) - sum(chain[a..b]) = top_b + base[a]
    # with top_b = 2 + 3*(b+1) - prefix[b+1] and base[a] = prefix[a] - 3*a.
    prefix = [0, *accumulate(chain)]
    base = [prefix[a] - 3 * a for a in range(len(chain))]
    found = []
    for b, last in enumerate(chain):
        top = 2 + 3 * (b + 1) - prefix[b + 1]
        num, den = 0, 1
        for a in range(b, -1, -1):
            first = chain[a]
            num, den = den, first * den - num
            if first == 2 and last == 2:
                continue
            params = _params_of_pair(num, den, top + base[a])
            if params is not None:
                found.append((a, b, params))
    found.sort()
    return found


@given(st.integers(2, 10**6), st.integers(1, 10**6))
def test_find_type_t_substrings_at_large_p(p, q0):
    q = q0 % p
    assume(q != 0 and gcd(p, q) == 1)
    chain = hj_resolve(CyclicQuotient(p, q))
    assume(len(chain) <= 60)
    found = find_type_t_substrings(chain)
    assert found == _sweep_by_recognition(chain)
    for a, b, params in found:
        sub = chain[a : b + 1]
        assert sum(sub) - 3 * len(sub) == 2 - params.s
        assert not (sub[0] == 2 and sub[-1] == 2)


def test_find_type_t_substrings_on_runs_of_twos():
    # the chains the end rule prunes: every interval inside a run of 2s
    assert find_type_t_substrings((2,) * 300) == []
    chain = hj_resolve(CyclicQuotient(3001, 3000))
    assert chain == (2,) * 3000
    assert find_type_t_substrings(chain) == []
    # (2,)*k + (e,) holds one type-T substring, (2,)*(e-4) + (e,) = T(e-2,1,e-3),
    # when e >= 4 and k >= e - 4
    for k in (0, 1, 5, 30):
        for e in range(2, 40):
            chain = (2,) * k + (e,)
            found = find_type_t_substrings(chain)
            assert found == _sweep_by_recognition(chain)
            if 4 <= e <= k + 4:
                assert found == [(k + 4 - e, k, TypeTParams(e - 2, 1, e - 3))]
            else:
                assert found == []


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
def test_find_type_t_substrings_matches_bracket_sweep(p, q0):
    q = q0 % p
    assume(q != 0 and gcd(p, q) == 1 and _chain_length(p, q) <= 200)
    chain = hj_resolve(CyclicQuotient(p, q))
    assert find_type_t_substrings(chain) == _sweep_by_bracket(chain)


_SMALL_TYPE_T = [tuple(chain) for _params, chain in enumerate_type_t(12, 4)]


@st.composite
def _type_t_concatenations(draw):
    # 1-5 type-T chains, each with one entry sometimes raised by 1, and runs
    # of 2s sometimes put between them: many cores, some of them spoiled
    chain = []
    for _ in range(draw(st.integers(1, 5))):
        part = list(draw(st.sampled_from(_SMALL_TYPE_T)))
        if draw(st.booleans()):
            part[draw(st.integers(0, len(part) - 1))] += 1
        chain += part + [2] * draw(st.sampled_from((0, 0, 1, 2, 5)))
    return tuple(chain)


@given(_type_t_concatenations())
def test_find_type_t_substrings_on_concatenations(chain):
    assert find_type_t_substrings(chain) == _sweep_by_bracket(chain)


def test_find_type_t_substrings_on_long_chains():
    # lengths the O(k^2) sweep could not finish
    assert find_type_t_substrings((2,) * 100_000 + (40,)) == [
        (99964, 100000, TypeTParams(38, 1, 37))
    ]
    assert find_type_t_substrings(hj_resolve(CyclicQuotient(10**6 + 3, 10**6 + 2))) == []


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
        attach_family(0, 2, 1, 1)
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


def test_attach_family_positive_exactly_for_the_five_families():
    # C = (4 - m d^2 s)/p, so C > 0 exactly when m d^2 s < 4
    positive = {(1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 1, 1), (3, 1, 1)}
    for m in range(1, 9):
        for r in range(2, 14):
            for s in range(1, 6):
                for d in range(1, r):
                    if gcd(r, d) != 1:
                        continue
                    report, _ = attach_family(m, r, s, d)  # raises on mismatch
                    assert report.positive == ((m, s, d) in positive)


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
