"""Eta invariant of the lens space S^3/(1/p)(1,q).

Three routes are written in the library, each exactly once:

* the chain sums, in the pair record of :mod:`singlab.invariants`,

      eta = (1/3) * (sum(e_i) + (q^(-1;p) + q)/p) - k,

  from the minimal resolution chain (e_1, ..., e_k);

* ``eta_exact`` -- the Dedekind sum, eta = 4*s(q, p), evaluated exactly from
  one Euclidean run on (p, q) in O(log p) steps; it uses neither the chain
  nor q^(-1;p), so it is an independent check on the chain sums, which
  runs once per pair, for every report and every scan row;

* ``eta_cotangent`` -- the defect sum over the nontrivial group elements,

      eta = (1/p) * sum_{j=1}^{p-1} cot(pi j/p) * cot(pi (j q mod p)/p),

  evaluated in double precision with compensated (Kahan) summation.  The
  individual terms are bounded by cot(pi/p)^2 = O(p^2), so it is a float
  oracle that agrees with the exact routes to well below 1e-9 for p <= 200
  but not at large p.
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, pi, sin

from .chains import CyclicQuotient

__all__ = ["eta_exact", "eta_cotangent"]


def _eta_num(p: int, q: int) -> int:
    # 3*p*eta = 12*p*s(q, p) as an integer, for coprime 1 <= q < p.
    #
    # s(q, p) = (1/(4p)) * sum_j cot(pi j/p) cot(pi j q/p) is the Dedekind
    # sum, so eta = 4*s(q, p).  Run Euclid r_0 = p, r_1 = q,
    # r_{i-1} = a_i r_i + r_{i+1}, ending at r_n = 1, r_{n+1} = 0, so that
    # q/p = [0; a_1, ..., a_n].  Since s(h, k) depends on h mod k only, the
    # reciprocity law s(h, k) + s(k, h) = (h^2 + k^2 + 1)/(12hk) - 1/4
    # (Rademacher-Grosswald, Dedekind Sums, 1972) telescopes to
    #
    #     12 s(q, p) = sum_i (-1)^(i+1) (r_{i-1}/r_i + r_i/r_{i-1}
    #                                     + 1/(r_{i-1} r_i) - 3).
    #
    # With r_{i-1}/r_i = a_i + r_{i+1}/r_i the first two terms sum to
    # sum (-1)^(i+1) a_i + q/p.  With the convergent denominators
    # Q_{-1} = 0, Q_0 = 1, Q_i = a_i Q_{i-1} + Q_{i-2} and the identity
    # p = Q_{i-1} r_{i-1} + Q_{i-2} r_i, the term 1/(r_{i-1} r_i) equals
    # (Q_{i-1}/r_i + Q_{i-2}/r_{i-1})/p, which telescopes to
    # (-1)^(n+1) Q_{n-1}/p.  The -3 terms leave -3 for odd n.  Hence
    #
    #     3*p*eta = p * sum (-1)^(i+1) a_i + q - (-1)^n Q_{n-1} - 3p[n odd].
    alternating = 0
    sign = 1  # (-1)^(i+1) while adding a_i; (-1)^n after the loop
    den_prev, den = 0, 1  # Q_{i-1}, Q_i
    a, b = p, q
    while b:
        t = a // b
        alternating += sign * t
        sign = -sign
        den_prev, den = den, t * den + den_prev
        a, b = b, a - t * b
    return p * alternating + q - sign * den_prev - (3 * p if sign < 0 else 0)


def eta_exact(g: CyclicQuotient) -> Fraction:
    """Exact eta invariant of S^3/(1/p)(1,q), from the Dedekind sum 4*s(q, p)."""
    return Fraction(_eta_num(g.p, g.q), 3 * g.p)


def eta_cotangent(g: CyclicQuotient) -> float:
    """Double-precision eta invariant via the cotangent defect sum."""
    p, q = g.p, g.q
    # Both cotangents are computed per term, so memory stays O(1) in p.
    total = 0.0
    comp = 0.0
    for j in range(1, p):
        x_j = pi * j / p
        x_jq = pi * (j * q % p) / p
        term = (cos(x_j) / sin(x_j)) * (cos(x_jq) / sin(x_jq))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / p
