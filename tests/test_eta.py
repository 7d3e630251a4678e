from fractions import Fraction
from math import gcd
from operator import mul

from hypothesis import assume, given, strategies as st

from oracles import coprime_pairs, partial_quotient_sum, valid_d
from singlab import (
    CyclicQuotient,
    TypeTParams,
    artin_configuration,
    chain_to_quotient,
    configuration_invariants,
    eta_cotangent,
    eta_exact,
    mod_inverse,
    type_t_group,
    type_t_invariants,
)
from singlab.eta import _eta_num


def test_eta_exact_examples():
    assert eta_exact(CyclicQuotient(3, 1)) == Fraction(2, 9)
    assert eta_exact(CyclicQuotient(5, 2)) == 0
    assert eta_exact(CyclicQuotient(9, 2)) == Fraction(16, 27)
    assert eta_exact(CyclicQuotient(2, 1)) == 0
    # (1/3)(4 + (1+1)/4) - 1 and (1/3)(6 + (3+3)/8) - 2
    assert eta_exact(CyclicQuotient(4, 1)) == Fraction(1, 2)
    assert eta_exact(CyclicQuotient(8, 3)) == Fraction(1, 4)


def test_eta_cotangent_examples():
    assert abs(eta_cotangent(CyclicQuotient(2, 1))) < 1e-12
    assert abs(eta_cotangent(CyclicQuotient(3, 1)) - 2 / 9) < 1e-12
    assert abs(eta_cotangent(CyclicQuotient(5, 2))) < 1e-12


def test_oracle_agreement_small():
    for p, q in coprime_pairs(79):
        g = CyclicQuotient(p, q)
        assert abs(eta_cotangent(g) - float(eta_exact(g))) < 1e-9


def test_inverse_symmetry_small():
    for p, q in coprime_pairs(79):
        assert eta_exact(CyclicQuotient(p, q)) == eta_exact(
            CyclicQuotient(p, mod_inverse(q, p))
        )


def test_type_t_closed_form_examples():
    assert type_t_invariants(TypeTParams(2, 1, 1)).eta == Fraction(1, 2)
    assert type_t_invariants(TypeTParams(3, 1, 1)).eta == Fraction(16, 27)
    assert type_t_invariants(TypeTParams(2, 2, 1)).eta == Fraction(1, 4)
    assert type_t_invariants(TypeTParams(2, 3, 1)).eta == Fraction(-1, 18)


def test_type_t_closed_form_matches_eta_exact():
    for r in range(2, 13):
        for s in range(1, 5):
            for d in valid_d(r):
                t = TypeTParams(r, s, d)
                assert eta_exact(type_t_group(t)) == type_t_invariants(t).eta


@st.composite
def _large_coprime_pairs(draw):
    p = draw(st.integers(2, 10**12))
    q = draw(st.integers(1, p - 1))
    assume(gcd(p, q) == 1)
    return p, q


@given(_large_coprime_pairs())
def test_eta_exact_matches_chain_sums_at_large_p(pair):
    # q = p - 1 resolves to p - 1 entries, so keep the chains short; the
    # partial-quotient sum bounds the chain length
    assume(partial_quotient_sum(*pair) <= 2000)
    g = CyclicQuotient(*pair)
    report = configuration_invariants(artin_configuration(g))
    eta = eta_exact(g)
    assert report.eta == eta
    assert report.c_value == 2 - report.k + Fraction(2, g.p) - 3 * eta
    assert chain_to_quotient(report.chain) == g


@given(_large_coprime_pairs())
def test_eta_exact_reversal_duality_at_large_p(pair):
    p, q = pair
    assert eta_exact(CyclicQuotient(p, q)) == eta_exact(
        CyclicQuotient(p, mod_inverse(q, p))
    )


def test_eta_exact_on_the_longest_chain():
    # (p, p-1) resolves to p - 1 entries of 2, so the chain sums give
    # 3p*eta = 2p(p-1) + 2(p-1) - 3p(p-1) = -(p-1)(p-2)
    p = 10**12 + 39
    assert eta_exact(CyclicQuotient(p, p - 1)) == -Fraction((p - 1) * (p - 2), 3 * p)


def _sawtooth_sum(p, q):
    # S = sum_{i=1}^{p-1} (2i - p)(2(qi mod p) - p) = 4 p^2 s(q, p), from the
    # sawtooth definition s(q, p) = sum_i ((i/p)) ((qi/p)) with
    # ((x)) = x - floor(x) - 1/2, in integers.  Since sum_i (2i - p) = 0,
    # S = 2 sum_i (2i - p)(qi mod p); p.__rmod__(q*i) is qi mod p.
    residues = map(p.__rmod__, range(q, q * p, q))
    return 2 * sum(map(mul, range(2 - p, p - 1, 2), residues))


def test_eta_num_matches_the_sawtooth_dedekind_sum():
    # A third route with no floats and no reciprocity law: eta = 4 s(q, p),
    # so 3p*eta = 3S/p.  Every coprime pair with p <= 200, then four q at
    # two primes near 10^6.
    for p, q in coprime_pairs(200):
        assert _eta_num(p, q) * p == 3 * _sawtooth_sum(p, q)
    for p in (1_000_003, 999_983):
        for q in (1, p - 1, p // 2, 314_159):
            assert _eta_num(p, q) * p == 3 * _sawtooth_sum(p, q)
