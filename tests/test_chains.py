from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from singlab import (
    AtNode,
    CyclicQuotient,
    DivisionByZero,
    IndexOutOfRange,
    InvalidChain,
    InvalidN,
    InvalidSite,
    NonMinimalChain,
    NotMinusOneCurve,
    OnCurve,
    ResolutionChain,
    SinglabError,
    blow_down,
    blow_up,
    cf_eval,
    chain_to_quotient,
    hj_resolve,
    mod_inverse,
    non_minimal_graph,
    reverse_chain,
)


def test_quotient_validation():
    with pytest.raises(SinglabError):
        CyclicQuotient(1, 1)  # trivial group rejected
    with pytest.raises(SinglabError):
        CyclicQuotient(4, 2)  # not coprime
    with pytest.raises(SinglabError):
        CyclicQuotient(5, 0)
    with pytest.raises(SinglabError):
        CyclicQuotient(5, 5)
    g = CyclicQuotient(5, 2)
    assert (g.p, g.q) == (5, 2)
    assert g.q_inverse() == 3


def test_chain_validation():
    with pytest.raises(InvalidChain):
        ResolutionChain((0, 2))
    with pytest.raises(InvalidChain):
        ResolutionChain((2, -3))
    assert ResolutionChain((3, 2)) == (3, 2)
    assert ResolutionChain((1, 4)).is_minimal is False
    assert ResolutionChain((3, 2)).is_minimal is True
    assert ResolutionChain((3, 2)).sum_e == 5


def test_hj_resolve_examples():
    assert hj_resolve(CyclicQuotient(5, 2)) == (3, 2)
    assert hj_resolve(CyclicQuotient(3, 1)) == (3,)
    assert hj_resolve(CyclicQuotient(7, 3)) == (3, 2, 2)
    assert hj_resolve(CyclicQuotient(2, 1)) == (2,)


def test_hj_resolve_su2_series():
    for p in range(2, 51):
        chain = hj_resolve(CyclicQuotient(p, p - 1))
        assert chain == (2,) * (p - 1)
        assert cf_eval(chain) == Fraction(p - 1, p)


def test_hj_resolve_is_minimal():
    for p in range(2, 80):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert hj_resolve(CyclicQuotient(p, q)).is_minimal


def test_chain_to_quotient_examples():
    assert chain_to_quotient(ResolutionChain((2, 4))) == CyclicQuotient(7, 4)
    assert chain_to_quotient(ResolutionChain((3,))) == CyclicQuotient(3, 1)
    assert chain_to_quotient(ResolutionChain((2, 2, 4))) == CyclicQuotient(10, 7)


def test_chain_to_quotient_rejects_non_minimal():
    with pytest.raises(NonMinimalChain):
        chain_to_quotient(ResolutionChain((1, 4)))
    with pytest.raises(NonMinimalChain):
        chain_to_quotient(ResolutionChain(()))


def test_round_trip():
    for p in range(2, 101):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            g = CyclicQuotient(p, q)
            assert chain_to_quotient(hj_resolve(g)) == g


def test_reverse_examples():
    assert reverse_chain(ResolutionChain((3, 2))) == (2, 3)
    assert reverse_chain(ResolutionChain((4,))) == (4,)
    rev = reverse_chain(ResolutionChain((3, 2, 2)))
    assert rev == (2, 2, 3)
    assert chain_to_quotient(rev) == CyclicQuotient(7, 5)  # 5 = 3^(-1) mod 7


def test_reversal_duality():
    for p in range(2, 121):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            g = CyclicQuotient(p, q)
            dual = CyclicQuotient(p, mod_inverse(q, p))
            assert hj_resolve(dual) == reverse_chain(hj_resolve(g))


def test_blow_up_on_curve():
    assert blow_up(ResolutionChain((3,)), OnCurve(0, "left")) == (1, 4)
    assert blow_up(ResolutionChain((3,)), OnCurve(0, "right")) == (4, 1)
    assert blow_up(ResolutionChain((1, 5)), OnCurve(0, "left")) == (1, 2, 5)
    # the stated rule applied to the n=3 graph
    assert blow_up(ResolutionChain((1, 4)), OnCurve(0, "left")) == (1, 2, 4)
    assert blow_up(ResolutionChain((3, 2)), OnCurve(1, "right")) == (3, 3, 1)


def test_blow_up_at_node():
    assert blow_up(ResolutionChain((1, 5)), AtNode(0)) == (2, 1, 6)
    assert blow_up(ResolutionChain((3, 2, 2)), AtNode(1)) == (3, 3, 1, 3)


def test_blow_up_site_validation():
    with pytest.raises(IndexOutOfRange):
        blow_up(ResolutionChain((3, 2)), OnCurve(2, "left"))
    with pytest.raises(IndexOutOfRange):
        blow_up(ResolutionChain((3,)), AtNode(0))
    with pytest.raises(InvalidSite):
        blow_up(ResolutionChain((3, 2, 2)), OnCurve(1, "left"))
    with pytest.raises(InvalidSite):
        blow_up(ResolutionChain((3, 2)), OnCurve(0, "right"))
    with pytest.raises(InvalidSite):
        OnCurve(0, "up")


def test_blow_down_examples():
    assert blow_down(ResolutionChain((1, 4)), 0) == (3,)
    assert blow_down(ResolutionChain((2, 1, 6)), 1) == (1, 5)
    assert blow_down(ResolutionChain((3, 1, 3)), 1) == (2, 2)
    assert blow_down(ResolutionChain((1,)), 0) == ()


def test_blow_down_errors():
    with pytest.raises(NotMinusOneCurve):
        blow_down(ResolutionChain((2, 2)), 0)
    with pytest.raises(IndexOutOfRange):
        blow_down(ResolutionChain((1, 4)), 2)


def _valid_sites(chain):
    sites = [OnCurve(0, "left"), OnCurve(len(chain) - 1, "right")]
    sites.extend(AtNode(i) for i in range(len(chain) - 1))
    return sites


@given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_blow_down_inverts_blow_up(entries):
    chain = ResolutionChain(entries)
    for site in _valid_sites(chain):
        bigger = blow_up(chain, site)
        assert len(bigger) == len(chain) + 1
        new_index = 0 if isinstance(site, OnCurve) and site.side == "left" else (
            len(bigger) - 1 if isinstance(site, OnCurve) else site.index + 1
        )
        assert bigger[new_index] == 1
        assert blow_down(bigger, new_index) == chain


@given(
    st.lists(st.integers(2, 7), min_size=1, max_size=4),
    st.lists(st.integers(2, 7), min_size=1, max_size=4),
)
def test_interior_blow_down_preserves_cf(left, right):
    chain = ResolutionChain(left + [1] + right)
    index = len(left)
    smaller = blow_down(chain, index)
    try:
        before = cf_eval(chain)
        after = cf_eval(smaller)
    except DivisionByZero:
        return
    assert before == after


def test_non_minimal_graph():
    assert non_minimal_graph(3) == (1, 4)
    assert non_minimal_graph(4) == (1, 2, 5)
    assert non_minimal_graph(6) == (1, 2, 2, 2, 7)
    with pytest.raises(InvalidN):
        non_minimal_graph(2)


def test_non_minimal_graph_from_blow_ups():
    # n-2 blow-ups: first a free point of the (-n)-curve, then repeatedly a
    # free point of the fresh (-1)-curve on the left end
    for n in range(3, 11):
        chain = ResolutionChain((n,))
        for _ in range(n - 2):
            chain = blow_up(chain, OnCurve(0, "left"))
        assert chain == non_minimal_graph(n)
