"""Exact integer and rational arithmetic primitives.

All values in this module are arbitrary-precision integers or
:class:`fractions.Fraction` instances (always reduced, denominator > 0).  No
floating point is used anywhere; ``decimal_str`` is the one rendering helper
that goes through a float, for display only.

The continued fractions here use the bracket convention

    [e_1, e_2, ..., e_k]  =  1 / (e_1 - 1/(e_2 - ... - 1/e_k)),

which sends the resolution chain of a cyclic quotient singularity to q/p
(not p/q).  Minimal chains (all entries >= 2) always evaluate to a value in
(0, 1); chains containing 1-entries are legal input but can hit a vanishing
nested denominator, which raises :class:`DivisionByZero` rather than
wrapping silently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DivisionByZero, InvalidChain, NotInvertible, _check_int

__all__ = ["mod_inverse", "cf_eval", "cf_eval_pair", "decimal_str"]


def mod_inverse(q: int, p: int) -> int:
    """Return the inverse of q modulo p, normalized into [1, p-1].

    Raises NotInvertible if p < 2 or gcd(q, p) != 1 (which covers q = 0 mod p),
    or if q or p is not an int (a bool or float included).
    """
    # Exact ints with p >= 2 pass at once, as in CyclicQuotient: every scan
    # pair and point query calls this.
    if not type(q) is type(p) is int or p < 2:
        _check_int("q", q, error=NotInvertible)
        _check_int("p", p, 2, NotInvertible)
    try:
        return pow(q, -1, p)
    except ValueError as exc:
        raise NotInvertible(f"{q} has no inverse modulo {p}") from exc


def cf_eval_pair(chain: Sequence[int]) -> tuple[int, int]:
    """Evaluate the bracket right-to-left, returning a coprime (num, den).

    The running pair stays coprime at every step (gcd(den, e*den - num) =
    gcd(den, num)), so no reduction pass is needed.  The denominator sign is
    not normalized here; use :func:`cf_eval` for a canonical Fraction.
    An entry that is not an int gives a value that is not a pair of ints,
    which raises InvalidChain.
    """
    if not chain:
        raise DivisionByZero("cannot evaluate an empty chain")
    num, den = 0, 1
    for e in reversed(chain):
        num, den = den, e * den - num
        if den == 0:
            raise DivisionByZero(
                f"nested denominator vanished while evaluating {tuple(chain)}"
            )
    # One type check per call, not one per entry: a float or Fraction entry
    # makes den, and every num after it, of its type.
    if not type(num) is type(den) is int:
        raise InvalidChain(f"chain entries must be integers, got {tuple(chain)}")
    return num, den


def cf_eval(chain: Sequence[int]) -> Fraction:
    """Value of [e_1, ..., e_k] as a reduced Fraction.

    For chains with every entry >= 2 the result q/p satisfies 0 < q/p < 1
    and gcd(q, p) = 1.
    """
    num, den = cf_eval_pair(chain)
    return Fraction(num, den)


def decimal_str(value: Fraction | int | float) -> str:
    """Render a rational as a decimal string with 15 significant digits."""
    return f"{float(value):.15g}"

