"""The rows with C > 0, in closed form.

Take a configuration of (1/p)(1, q) with h contracted type-T hits, and let
out be the chain entries outside them.  Then

    p*C = (2 - h - sum_out (e - 2))*p + 2 - q - q^(-1;p),

which test_search checks on every row it scans.  Since 2 <= q + q^(-1;p)
<= 2p - 2, a positive row has h <= 1, so multi-contraction adds none; with
h = 1 every entry outside the hit is 2, and with h = 0 the entries exceed 2
by at most 1 in all.  So a positive row's chain is 2^(p-1) (Artin), or
2^a + X + 2^b with X a contracted T-string or the Artin entry (3).

Both cases read p*C = 2 + p - q - q^(-1;p) off the chain's matrix, the
product of ((e, -1), (1, 0)) over its entries, which is
((p, -q^(-1;p)), (q, -t)).  With X's matrix ((P, -Q'), (Q, -T)) and the
run 2^a's ((a + 1, -a), (a, 1 - a)), the product gives

    p*C = (2 + P - Q - Q') + a(T - Q') + b(T - Q) + ab(Q + Q' - P - T).

For X = T(r,s,d), P = r^2 s, Q = rsd - 1, Q' = rs(r - d) - 1 and
T = (QQ' - 1)/P = sd(r - d) - 1, so

    p*C = 4 - s(r-d)^2 a - s d^2 b - (s d(r-d) + 1) a b;

for X = (3), P = 3, Q = Q' = 1 and T = 0, so p*C = 4 - (a + 1)(b + 1).
Hence the positive rows are exactly:

- the Artin rows of (p, p - 1), whose chain is all 2s (p*C = 4);
- five sporadic Artin rows, (3,1), (5,2), (5,3), (7,3) and (7,5), the
  2^a + (3) + 2^b with (a + 1)(b + 1) < 4;
- the full contraction of every T(r,s,d) with r^2 s <= p_max (C = 4/p);
- the five one-sided attachment families, m (-2)-curves left of the
  T(r,s,r-1) string or right of the T(r,s,1) string, with (m, s) in
  {(1,1), (1,2), (1,3), (2,1), (3,1)}: a, b >= 1 gives p*C <= 0, b = 0
  needs s(r - d)^2 a < 4, so d = r - 1 and sa < 4, and a = 0 needs
  s d^2 b < 4, so d = 1 and sb < 4.

The tests check both closed forms on a grid against configuration_invariants,
which computes C from eta, and compare a generator of these rows with the
scan's --positive rows in every mode.  The generator builds each chain from
type_t_string and takes each label from the T-string's params, not from
find_type_t_substrings.
"""

from collections import Counter
from itertools import count

import pytest

from oracles import matrix, type_t_params, valid_d
from singlab import (
    SearchQuery,
    TypeTParams,
    artin_configuration,
    chain_to_quotient,
    configuration,
    configuration_invariants,
    scan,
    type_t_string,
)

_SPORADIC = ((3, 1), (5, 2), (5, 3), (7, 3), (7, 5))

# (m, s) of the attachment families with C > 0, all with d = 1.
_FAMILIES = ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))


def _contracted(t, a=0, b=0):
    # (p, q, label) of the chain 2^a + (the T-string of t) + 2^b with the
    # T-string contracted.
    x = type_t_string(t)
    (p, _), (q, _) = matrix((2,) * a + x + (2,) * b)
    return p, q, f"contract[{a}..{a + len(x) - 1}]={t.label()}"


def _positive_rows(p_max, mode):
    # (p, q, label) of every row with C > 0 of a scan to p_max in mode.
    rows = [(p, p - 1, "artin") for p in range(2, p_max + 1)]
    rows += [(p, q, "artin") for p, q in _SPORADIC if p <= p_max]
    if mode == "artin-only":
        return rows
    rows += [_contracted(TypeTParams(*params)) for params in type_t_params(p_max)]
    for m, s in _FAMILIES:
        # p = m + m*r*s + r^2*s grows with r, and the two sides share it.
        for r in count(2):
            row = _contracted(TypeTParams(r, s, r - 1), a=m)
            if row[0] > p_max:
                break
            rows += [row, _contracted(TypeTParams(r, s, 1), b=m)]
    return rows


@pytest.mark.parametrize(
    "mode, n_rows",
    [("artin-only", 404), ("single-contraction", 1_126), ("multi-contraction", 1_126)],
)
def test_positive_rows_are_the_classification(mode, n_rows):
    rows = scan(SearchQuery(p_max=400, mode=mode, positive_only=True))
    expected = Counter(_positive_rows(400, mode))
    assert Counter((row.p, row.q, row.label) for row in rows) == expected
    assert len(rows) == sum(expected.values()) == n_rows


def _c_num(g, intervals):
    # p*C and the label of the configuration of g with these substrings
    # contracted, from configuration_invariants.
    report = configuration_invariants(
        configuration(g, intervals) if intervals else artin_configuration(g)
    )
    return report.c_value * report.p, report.label


def test_closed_forms_on_their_grids():
    # 2^a + T(r,s,d) + 2^b with the T-string contracted:
    # p*C = 4 - s(r-d)^2 a - s d^2 b - (s d(r-d) + 1) a b.
    cases = 0
    for r in range(2, 12):
        for s in range(1, 5):
            for d in valid_d(r):
                t = TypeTParams(r, s, d)
                x = type_t_string(t)
                for a in range(5):
                    for b in range(5):
                        chain = (2,) * a + x + (2,) * b
                        g = chain_to_quotient(chain)
                        c_num, label = _c_num(g, [(a, a + len(x) - 1)])
                        assert (g.p, g.q, label) == _contracted(t, a, b)
                        assert c_num == (
                            4 - s * (r - d) ** 2 * a - s * d * d * b
                            - (s * d * (r - d) + 1) * a * b
                        ), (r, s, d, a, b)
                        cases += 1
    assert cases == 4_100
    # 2^a + (3) + 2^b, the Artin row: p*C = 4 - (a + 1)(b + 1).
    for a in range(30):
        for b in range(30):
            g = chain_to_quotient((2,) * a + (3,) + (2,) * b)
            assert _c_num(g, []) == (4 - (a + 1) * (b + 1), "artin"), (a, b)
