from fractions import Fraction
from math import gcd

from singlab import (
    CyclicQuotient,
    TypeTParams,
    eta_cotangent,
    eta_exact,
    mod_inverse,
    type_t_group,
    type_t_invariants,
)


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
    for p in range(2, 80):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            g = CyclicQuotient(p, q)
            assert abs(eta_cotangent(g) - float(eta_exact(g))) < 1e-9


def test_inverse_symmetry_small():
    for p in range(2, 80):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
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
            for d in range(1, r):
                if gcd(r, d) != 1:
                    continue
                t = TypeTParams(r, s, d)
                assert eta_exact(type_t_group(t)) == type_t_invariants(t).eta
