import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, strategies as st

from oracles import cf_terms, coprime_pairs
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
)
from singlab.chains import _check_minimal


def test_quotient_validation():
    with pytest.raises(SinglabError):
        CyclicQuotient(1, 1)  # trivial group rejected
    with pytest.raises(SinglabError):
        CyclicQuotient(4, 2)  # not coprime
    with pytest.raises(SinglabError):
        CyclicQuotient(5, 0)
    with pytest.raises(SinglabError):
        CyclicQuotient(5, 5)
    with pytest.raises(SinglabError):
        CyclicQuotient(3, True)  # bool is an int subclass, not an order
    with pytest.raises(SinglabError):
        CyclicQuotient(True, 1)
    for typed in ((10.0, 3), (7, 3.0), ("7", 3)):
        with pytest.raises(SinglabError, match="must be an integer"):
            CyclicQuotient(*typed)
    with pytest.raises(SinglabError, match=r"need p >= 2, got 1"):
        CyclicQuotient(1, 1)
    g = CyclicQuotient(5, 2)
    assert (g.p, g.q) == (5, 2)
    assert mod_inverse(g.q, g.p) == 3


def test_chain_validation():
    with pytest.raises(InvalidChain):
        ResolutionChain((0, 2))
    with pytest.raises(InvalidChain):
        ResolutionChain((2, -3))
    with pytest.raises(InvalidChain):
        ResolutionChain((True, 3))  # bool is an int subclass, not an entry
    assert ResolutionChain((3, 2)) == (3, 2)
    assert all(e >= 2 for e in ResolutionChain((1, 4))) is False
    assert all(e >= 2 for e in ResolutionChain((3, 2))) is True


def test_minimal_predicate_is_every_entry_at_least_2():
    # _check_minimal raises exactly when some entry is below 2; the empty
    # chain is minimal, and a bool entry is an int below 2.
    for chain in [(), (2,), (1,), (True,), (True, 3), (3, False), (3, 2, 2), (2, 1, 5)]:
        if all(e >= 2 for e in chain):
            _check_minimal(chain, "test")
        else:
            with pytest.raises(NonMinimalChain):
                _check_minimal(chain, "test")


def test_chain_unpickles_without_a_second_check(monkeypatch):
    # A scan worker's records carry chains; the parent restores each one
    # without checking its entries again.
    chain = hj_resolve(CyclicQuotient(74, 67))
    data = pickle.dumps(chain)

    def checked_again(cls, entries=()):
        raise AssertionError("ResolutionChain.__new__ ran on unpickling")

    monkeypatch.setattr(ResolutionChain, "__new__", checked_again)
    restored = pickle.loads(data)
    assert type(restored) is ResolutionChain
    assert restored == chain and repr(restored) == repr(chain)


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


def _ceiling_chain(p, q, cap):
    # The modified Euclidean algorithm p = e_1 q - a_1, q = e_2 a_1 - a_2,
    # ..., one entry per step, stopped after cap + 1 entries: the oracle
    # for hj_resolve, which reads the chain off the regular continued
    # fraction.
    entries = []
    a, b = p, q
    while b > 0 and len(entries) <= cap:
        e = -(-a // b)  # ceil(a/b)
        entries.append(e)
        a, b = b, e * b - a
    return tuple(entries)


def test_hj_resolve_matches_the_ceiling_recursion():
    for p, q in coprime_pairs(400):
        chain = hj_resolve(CyclicQuotient(p, q))
        assert chain == _ceiling_chain(p, q, p), (p, q)
    for length in (1, 2, 3, 1000, 100_000):
        chain = hj_resolve(CyclicQuotient(length + 1, length))
        assert chain == _ceiling_chain(length + 1, length, length) == (2,) * length


@given(st.integers(2, 10**9), st.integers(1, 10**9))
@example(10**9, 1)
@example(10**9, 10**9 - 100_001)  # a run of 9 998 entries 2
def test_hj_resolve_matches_the_ceiling_recursion_at_large_p(p, q0):
    q = q0 % p
    assume(q != 0 and gcd(p, q) == 1)
    # The chain has about as many entries as the even-position terms of
    # the regular continued fraction add up to; keep it short.
    assume(sum(cf_terms(p, q)[1::2]) <= 10**5)
    chain = hj_resolve(CyclicQuotient(p, q))
    assert chain == _ceiling_chain(p, q, len(chain))


def test_hj_resolve_is_minimal():
    for p, q in coprime_pairs(79):
        assert all(e >= 2 for e in hj_resolve(CyclicQuotient(p, q)))


def test_chain_to_quotient_examples():
    assert chain_to_quotient(ResolutionChain((2, 4))) == CyclicQuotient(7, 4)
    assert chain_to_quotient(ResolutionChain((3,))) == CyclicQuotient(3, 1)
    assert chain_to_quotient(ResolutionChain((2, 2, 4))) == CyclicQuotient(10, 7)


def test_chain_to_quotient_rejects_non_minimal():
    with pytest.raises(NonMinimalChain):
        chain_to_quotient(ResolutionChain((1, 4)))
    with pytest.raises(NonMinimalChain):
        chain_to_quotient(ResolutionChain(()))
    # a float or str entry of a plain sequence is not a chain entry
    for chain in ((2.5,), (3, 4.0), ("4",)):
        with pytest.raises(InvalidChain):
            chain_to_quotient(chain)


def test_round_trip():
    for p, q in coprime_pairs(100):
        g = CyclicQuotient(p, q)
        assert chain_to_quotient(hj_resolve(g)) == g


def test_reverse_examples():
    assert ResolutionChain(reversed(ResolutionChain((3, 2)))) == (2, 3)
    assert ResolutionChain(reversed(ResolutionChain((4,)))) == (4,)
    rev = ResolutionChain(reversed(ResolutionChain((3, 2, 2))))
    assert rev == (2, 2, 3)
    assert chain_to_quotient(rev) == CyclicQuotient(7, 5)  # 5 = 3^(-1) mod 7


def test_reversal_duality():
    for p, q in coprime_pairs(120):
        g = CyclicQuotient(p, q)
        dual = CyclicQuotient(p, mod_inverse(q, p))
        assert hj_resolve(dual) == ResolutionChain(reversed(hj_resolve(g)))


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
    with pytest.raises(InvalidSite, match="curve 1 has a left neighbour"):
        blow_up(ResolutionChain((3, 2, 2)), OnCurve(1, "left"))
    with pytest.raises(InvalidSite, match="curve 0 has a right neighbour"):
        blow_up(ResolutionChain((3, 2)), OnCurve(0, "right"))
    with pytest.raises(InvalidSite):
        OnCurve(0, "up")
    with pytest.raises(SinglabError, match="^unknown blow-up site 'left'$"):
        blow_up(ResolutionChain((2, 3)), "left")
    # An index is an int >= 0, not a float or a bool.
    with pytest.raises(IndexOutOfRange, match="must be an integer"):
        blow_up((3, 2), AtNode(0.0))
    with pytest.raises(IndexOutOfRange, match="must be an integer"):
        blow_up((3, 2), OnCurve(True, "right"))
    with pytest.raises(IndexOutOfRange, match=r"need index >= 0, got -1"):
        blow_up((3, 2), OnCurve(-1, "left"))
    with pytest.raises(IndexOutOfRange, match=r"need index >= 0, got -1"):
        blow_up((3, 2), AtNode(-1))


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
    with pytest.raises(IndexOutOfRange, match="must be an integer"):
        blow_down((1, 2), True)
    with pytest.raises(IndexOutOfRange, match=r"need index >= 0, got -1"):
        blow_down((1, 2), -1)


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
    with pytest.raises(InvalidN, match="must be an integer"):
        non_minimal_graph(3.0)


def test_non_minimal_graph_from_blow_ups():
    # n-2 blow-ups: first a free point of the (-n)-curve, then repeatedly a
    # free point of the fresh (-1)-curve on the left end
    for n in range(3, 11):
        chain = ResolutionChain((n,))
        for _ in range(n - 2):
            chain = blow_up(chain, OnCurve(0, "left"))
        assert chain == non_minimal_graph(n)
