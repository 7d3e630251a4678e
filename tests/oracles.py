"""Reference arithmetic for the tests' second routes.

Each function computes a fact that singlab computes too, by a route that
reads none of singlab's code.  The module imports only the standard library
(tests/test_oracles.py checks that), so a test that compares singlab with a
function here compares two independent routes.
"""

from math import gcd, isqrt


def coprime_pairs(p_max):
    # Every (p, q) with 2 <= p <= p_max, 1 <= q < p and gcd(p, q) = 1, in
    # (p, q) order.
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def valid_d(r):
    # The d of T(r,s,d): 1 <= d <= r - 1 with gcd(r, d) = 1, in order.
    return [d for d in range(1, r) if gcd(r, d) == 1]


def phi(n):
    # Euler's phi, by counting.
    return sum(1 for d in range(1, n + 1) if gcd(n, d) == 1)


def cf_terms(p, q):
    # The partial quotients a_1, ..., a_n of the regular continued fraction
    # p/q = a_1 + 1/(a_2 + ...), by Euclid's algorithm.
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p % q
    return terms


def partial_quotient_sum(p, q):
    # a_1 + ... + a_n of p/q.  The T-string of T(r,s,d) has length
    # s - 2 + partial_quotient_sum(r, d), and the minimal resolution chain
    # of (p, q) has at most partial_quotient_sum(p, q) entries.
    return sum(cf_terms(p, q))


def chain_length(p, q):
    # len(hj_resolve(CyclicQuotient(p, q))) from the regular continued
    # fraction, without building the chain: q = p - 1 alone has p - 1
    # entries, 8 GB at p = 10**9.  See hj_resolve for the entry counts.
    terms = cf_terms(p, q)
    return len(terms[::2]) + sum(t - 1 for t in terms[1::2])


def matrix(chain):
    # The product of the matrices ((e, -1), (1, 0)) over the entries e of a
    # chain, ((p, -q^(-1;p)), (q, -t)): its first column is the (p, q) with
    # p/q = e_1 - 1/(e_2 - ...).
    a, b, c, d = 1, 0, 0, 1
    for e in chain:
        a, b, c, d = e * a + b, -a, e * c + d, -c
    return (a, b), (c, d)


def type_t_params(p_max):
    # (r, s, d) of every T(r,s,d) with r^2 s <= p_max, in (s, r, d) order.
    for s in range(1, p_max // 4 + 1):
        for r in range(2, isqrt(p_max // s) + 1):
            for d in valid_d(r):
                yield r, s, d


def c_num_identity(p, q, hits, excess):
    # p*C of a configuration of (1/p)(1, q) with this many contracted hits,
    # where excess is the sum of (e - 2) over the chain entries outside
    # them: p*C = (2 - hits - excess)*p + 2 - q - q^(-1;p).  It follows from
    # p*C = (2 - b2)*p + 2 - 3*p*eta, the b2 rule and each T-string's sum
    # law sum(e) = 3L + 2 - s (Kollar--Shepherd-Barron 1988).
    return (2 - hits - excess) * p + 2 - q - pow(q, -1, p)
