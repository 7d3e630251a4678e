"""An independent generator of the single-contraction rows.

Every contracted row of a single-contraction scan is a pair (p, q) and one
type-T hit of its chain, and that chain reads L + X + R: X is the string of
some T(r,s,d), taken from the arithmetic by type_t_string, and L and R are
any chains with entries >= 2 (either may be empty).  The pair is the first
column of the product of the matrices ((e, -1), (1, 0)) over the chain,
((p, -q^(-1;p)), (q, -t)).  Appending an entry e >= 2 to a chain with
matrix ((A, B), (C, D)) gives ((eA + B, -A), (eC + D, -C)), and prepending
one to a chain whose first column is (p, q) gives (ep - q, p).  Both raise
p, and the largest e that keeps p <= p_max follows from the bound, so a
depth-first walk from each X visits only chains it yields: first every R,
then every L.

The tests compare the generated rows with the scan's, count the hits of
two primes p against find_type_t_substrings, and check the identity

    p*C = (1 - sum over L and R of (e - 2))*p + 2 - q - q^(-1;p)

of a row with one hit against configuration_invariants on a sample.  The
generator takes nothing from the scan: no sweep, no recognition and no
resolve of (p, q).
"""

from collections import Counter

from oracles import c_num_identity, matrix, type_t_params
from singlab import (
    CyclicQuotient,
    SearchQuery,
    TypeTParams,
    chains,
    configuration,
    configuration_invariants,
    find_type_t_substrings,
    hj_resolve,
    search,
    type_t_string,
)


def _with_rights(x, p_max):
    # (p, q, excess) of X + R for every chain R with p <= p_max, where
    # excess is the sum of (e - 2) over R.
    (a, b), (c, d) = matrix(x)
    stack = [(a, b, c, d, 0)]
    while stack:
        a, b, c, d, excess = stack.pop()
        yield a, c, excess
        for e in range(2, (p_max - b) // a + 1):
            stack.append((e * a + b, -a, e * c + d, -c, excess + e - 2))


def _contracted_rows(p_max):
    # (p, q, label, excess) of every chain L + X + R with p <= p_max, with
    # the label of the row that contracts X and excess the sum of (e - 2)
    # over L and R.
    for params in type_t_params(p_max):
        t = TypeTParams(*params)
        x = type_t_string(t)
        name = t.label()
        for p, q, excess in _with_rights(x, p_max):
            stack = [(p, q, 0, excess)]
            while stack:
                p, q, start, excess = stack.pop()
                yield p, q, f"contract[{start}..{start + len(x) - 1}]={name}", excess
                for e in range(2, (p_max + q) // p + 1):
                    stack.append((e * p - q, p, start + 1, excess + e - 2))


def test_generated_rows_are_the_scans_contracted_rows():
    # The scan's rows as records, so that no report is built.
    query = SearchQuery(p_max=400, mode="single-contraction")
    scanned = Counter(
        (p, pair[0], label)
        for part in search._parts(query, list, chains._hj_chain)
        for p, pair, rows in part
        for _b2, _c_num, label in rows
        if label != "artin"
    )
    generated = Counter(row[:3] for row in _contracted_rows(400))
    assert generated == scanned
    assert sum(generated.values()) == 64_343


def test_generated_hits_of_one_p_are_the_sweeps():
    # Primes, so every q is coprime to p.  The hits are counted, not stored:
    # the walk to p_max 1999 yields about 2.3 million rows.
    for p in (997, 1999):
        generated = sum(1 for row in _contracted_rows(p) if row[0] == p)
        swept = sum(
            len(find_type_t_substrings(hj_resolve(CyclicQuotient(p, q)))) for q in range(1, p)
        )
        assert generated == swept > 0


def test_generated_rows_satisfy_the_identity():
    rows = list(_contracted_rows(300))
    for p, q, label, excess in rows[:: len(rows) // 200]:
        interval = label[len("contract[") : label.index("]")]
        start, stop = map(int, interval.split(".."))
        report = configuration_invariants(configuration(CyclicQuotient(p, q), [(start, stop)]))
        assert report.label == label
        assert report.c_value * p == c_num_identity(p, q, 1, excess), (p, q, label)
