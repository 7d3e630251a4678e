from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from oracles import coprime_pairs, valid_d
from singlab import (
    CyclicQuotient,
    DivisionByZero,
    InvalidChain,
    NotInvertible,
    cf_eval,
    cf_eval_pair,
    decimal_str,
    hj_resolve,
    mod_inverse,
)


def test_mod_inverse_examples():
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(5, 9) == 2


def test_mod_inverse_range_and_normalization():
    assert mod_inverse(1, 2) == 1
    assert mod_inverse(-3, 7) == mod_inverse(4, 7) == 2
    assert mod_inverse(12, 7) == mod_inverse(5, 7) == 3


def test_mod_inverse_errors():
    with pytest.raises(NotInvertible, match="need p >= 2, got 1"):
        mod_inverse(2, 1)
    with pytest.raises(NotInvertible):
        mod_inverse(4, 6)
    with pytest.raises(NotInvertible):
        mod_inverse(7, 7)
    with pytest.raises(NotInvertible):
        mod_inverse(0, 5)
    # Both arguments are ints: not a bare TypeError for a float, and no
    # inverse of a bool.
    with pytest.raises(NotInvertible, match="q must be an integer"):
        mod_inverse(2.0, 5)
    with pytest.raises(NotInvertible, match="p must be an integer"):
        mod_inverse(3, 7.0)
    with pytest.raises(NotInvertible, match="q must be an integer"):
        mod_inverse(True, 5)


def test_cf_eval_rejects_entries_that_are_not_integers():
    # A non-int entry would give a value that is not a pair of ints.
    with pytest.raises(InvalidChain, match="must be integers"):
        cf_eval_pair((2.5,))
    with pytest.raises(InvalidChain, match="must be integers"):
        cf_eval_pair((3.0, 2))
    with pytest.raises(InvalidChain, match="must be integers"):
        cf_eval((Fraction(5, 2),))


@given(st.integers(2, 10**9), st.integers(1, 10**9))
def test_mod_inverse_involution(p, q0):
    q = q0 % p
    assume(q != 0 and gcd(p, q) == 1)
    x = mod_inverse(q, p)
    assert 1 <= x <= p - 1
    assert (q * x) % p == 1
    assert mod_inverse(x, p) == q


def test_inverse_of_type_t_weight():
    # the inverse of rsd-1 modulo r^2*s is rs(r-d)-1, for every valid d
    for r in range(2, 21):
        for s in range(1, 7):
            for d in valid_d(r):
                assert mod_inverse(r * s * d - 1, r * r * s) == r * s * (r - d) - 1


def test_cf_eval_examples():
    assert cf_eval([3, 2]) == Fraction(2, 5)
    assert cf_eval([2, 4]) == Fraction(4, 7)
    for e in range(1, 10):
        assert cf_eval([e]) == Fraction(1, e)


def test_cf_eval_pair_is_coprime():
    num, den = cf_eval_pair([2, 3, 2, 4])
    assert gcd(num, den) == 1
    assert Fraction(num, den) == cf_eval([2, 3, 2, 4])


def test_cf_eval_division_by_zero():
    with pytest.raises(DivisionByZero):
        cf_eval([2, 1, 2])
    with pytest.raises(DivisionByZero):
        cf_eval([1, 1])
    with pytest.raises(DivisionByZero):
        cf_eval([])


def test_cf_eval_non_minimal_chains_are_legal():
    # 1-entries are allowed whenever no nested denominator vanishes
    assert cf_eval([1, 3]) == Fraction(3, 2)
    assert cf_eval([1, 1, 2]) == -1


def test_cf_round_trip_small():
    for p, q in coprime_pairs(60):
        assert cf_eval(hj_resolve(CyclicQuotient(p, q))) == Fraction(q, p)


def test_decimal_str():
    assert decimal_str(Fraction(16, 27)) == "0.592592592592593"
    assert decimal_str(Fraction(0, 1)) == "0"
    assert decimal_str(Fraction(-4, 13)) == "-0.307692307692308"
