"""Topological invariants of resolution configurations.

A configuration is a minimal resolution chain together with a set of
disjoint contracted type-T substrings.  The empty set is the Artin
configuration (b2 = chain length); contracting a T(r,s,d) substring of
length L removes its L curves and the smoothing returns s - 1 to b2.

The central quantity is

    C = 2 - b2 + 2/p - 3*eta(S^3/Gamma),

computed from the one chain-sum route for eta,

    3*p*eta = p*sum(e) + q^(-1;p) + q - 3*k*p,

as an integer numerator over p; Fractions are built only for a report.
That numerator depends only on the pair (p, q), so it is computed once per
pair, in a pair record (q, chain, k, sum_e, q_inv, eta_num) built from the
integers p, q and the chain, and checked there against the Dedekind-sum
route of :mod:`singlab.eta` (eta = 4*s(q, p)), which reads neither the
chain nor q^(-1;p): a wrong chain entry or a wrong inverse raises
InternalCheckError.  A configuration of the pair adds the row
(b2, c_num, label), with p*C = c_num, read from its contracted substrings
(hits), each the plain tuple (start, stop, params) that
``find_type_t_substrings`` or ``configuration`` returns.  Every row, of a
scan or of a point query, is ``_row(p, pair, hits)``, the Artin row with
no hits; ``_row`` is the one home of the row label.
``configuration_invariants`` turns one configuration into an
``InvariantReport``; it is the route for point queries and the CLI's point
commands, and the reference for a scan, which builds its rows from pair
records and hits (:mod:`singlab.search`).

The attachment families with C > 0 are listed once, as the keys (m, s) of
``_FAMILY_GRAPHS``; ``theorem_tables`` and ``family_minimal_graph`` read
that list, and ``attach_family`` covers every m, s and d.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd
from typing import Sequence

from .chains import (
    CyclicQuotient,
    ResolutionChain,
    _check_minimal,
    chain_to_quotient,
    hj_resolve,
)
from .errors import (
    InternalCheckError,
    InvalidConfiguration,
    MismatchError,
    SinglabError,
    UnsupportedFamily,
    _check_int,
)
from .eta import _eta_num
from .exact import cf_eval_pair, mod_inverse
from .type_t import TypeTParams, recognize_type_t, type_t_string

__all__ = [
    "ResolutionConfiguration",
    "InvariantReport",
    "artin_configuration",
    "configuration",
    "configuration_invariants",
    "find_type_t_substrings",
    "FamilyClosedForm",
    "attach_family",
    "family_minimal_graph",
    "theorem_tables",
]


@dataclass(frozen=True)
class ResolutionConfiguration:
    """A quotient, its minimal chain, and disjoint contracted type-T substrings.

    Each contracted substring is the plain tuple (start, stop, params) of
    chain[start..stop] (inclusive) and its T(r,s,d).
    """

    quotient: CyclicQuotient
    chain: ResolutionChain
    contracted: tuple[tuple[int, int, TypeTParams], ...]


@dataclass(frozen=True)
class InvariantReport:
    """The full invariant bundle of one configuration."""

    p: int
    q: int
    chain: ResolutionChain
    k: int
    sum_e: int
    q_inv: int
    eta: Fraction
    b2: int
    c_value: Fraction
    positive: bool
    label: str


def artin_configuration(g: CyclicQuotient) -> ResolutionConfiguration:
    """The configuration with nothing contracted: ``configuration(g, ())``,
    so its chain is resolved in one place.  ``search.scan`` reads each
    pair's chain from it; ``search.scan_pieces`` resolves the same chain
    from the integers (p, q), without building this configuration."""
    return configuration(g, ())


def configuration(
    g: CyclicQuotient, intervals: Sequence[tuple[int, int]]
) -> ResolutionConfiguration:
    """Build a configuration contracting chain[a..b] for each (a, b).

    The intervals are taken in sorted order, and the contracted intervals
    come back sorted by start, each as the tuple (a, b, params).  Raises
    InvalidConfiguration if the intervals are not an iterable, an interval
    is not a tuple or list of two ints, an interval is out of bounds, the
    intervals overlap, or a substring is not a recognized type-T chain.
    The shape and type checks run first, in the order given; of several
    intervals that fail a later check, the first in sorted order is
    reported.  Recognition is O(length) per substring.
    """
    try:
        intervals = list(intervals)  # read twice, so not a one-shot iterator
    except TypeError as exc:
        raise InvalidConfiguration(
            f"intervals must be an iterable of pairs (a, b), got {intervals!r}"
        ) from exc
    for interval in intervals:
        if not isinstance(interval, (tuple, list)) or len(interval) != 2:
            raise InvalidConfiguration(f"an interval must be a pair (a, b), got {interval!r}")
        for bound in interval:
            _check_int("interval bound", bound, error=InvalidConfiguration)
    chain = hj_resolve(g)
    contracted = []
    for a, b in sorted(map(tuple, intervals)):
        if not (0 <= a <= b < len(chain)):
            raise InvalidConfiguration(
                f"interval [{a}..{b}] out of bounds for chain of length {len(chain)}"
            )
        if contracted and a <= contracted[-1][1]:
            raise InvalidConfiguration(f"interval [{a}..{b}] overlaps another one")
        params = recognize_type_t(chain[a : b + 1])
        if params is None:
            raise InvalidConfiguration(
                f"substring {chain[a : b + 1]} at [{a}..{b}] is not type T"
            )
        contracted.append((a, b, params))
    return ResolutionConfiguration(g, chain, tuple(contracted))


def _pair_record(p: int, q: int, chain: Sequence[int]) -> tuple:
    # (q, chain, k, sum_e, q_inv, eta_num) of a valid quotient (p, q) and
    # its minimal chain, with eta_num = 3*p*eta from the chain sums.  Every
    # row of the pair shares these facts, so the Dedekind check runs here,
    # once per pair.
    k = len(chain)
    sum_e = sum(chain)
    q_inv = mod_inverse(q, p)
    eta_num = p * sum_e + q_inv + q - 3 * k * p
    dedekind_num = _eta_num(p, q)
    if eta_num != dedekind_num:
        raise InternalCheckError(
            f"eta cross-check failed for (p, q) = ({p}, {q}): chain sums give "
            f"{Fraction(eta_num, 3 * p)}, the Dedekind sum {Fraction(dedekind_num, 3 * p)}"
        )
    return q, chain, k, sum_e, q_inv, eta_num


def _row(p: int, pair: tuple, hits: Sequence[tuple]) -> tuple[int, int, str]:
    # (b2, c_num, label) of the configuration of a pair record with these
    # hits contracted: p*C = c_num.  b2 is the chain length k, and each hit
    # (a, b, T(r,s,d)) trades its b - a + 1 curves for the s - 1 classes of
    # its smoothing.  This is the one place a row label is written.  The
    # Artin label is a constant, so the most common row of a scan pays no
    # join.
    b2 = pair[2]
    for a, b, t in hits:
        b2 += t.s - 2 - b + a
    label = "+".join(f"contract[{a}..{b}]={t.label()}" for a, b, t in hits) if hits else "artin"
    return b2, (2 - b2) * p + 2 - pair[5], label


def _report(p: int, pair: tuple, row: tuple[int, int, str]) -> InvariantReport:
    # The report of one row of a pair record.
    q, chain, k, sum_e, q_inv, eta_num = pair
    b2, c_num, label = row
    return InvariantReport(
        p=p,
        q=q,
        chain=chain,
        k=k,
        sum_e=sum_e,
        q_inv=q_inv,
        eta=Fraction(eta_num, 3 * p),
        b2=b2,
        c_value=Fraction(c_num, p),
        positive=c_num > 0,
        label=label,
    )


def configuration_invariants(cfg: ResolutionConfiguration) -> InvariantReport:
    """Invariant report of one configuration.

    This is the route for point queries and the CLI, and the reference a
    scan's rows are tested against; a scan computes the pair-level facts
    once per pair instead.  Raises InternalCheckError if the chain-sum eta
    disagrees with the Dedekind-sum eta of the quotient.
    """
    p = cfg.quotient.p
    pair = _pair_record(p, cfg.quotient.q, cfg.chain)
    return _report(p, pair, _row(p, pair, cfg.contracted))


def find_type_t_substrings(chain: Sequence[int]) -> list[tuple[int, int, TypeTParams]]:
    """Every type-T substring chain[start..stop] as the tuple (start, stop,
    params), sorted by (start, stop).

    The chain must be minimal (every entry >= 2); otherwise NonMinimalChain
    is raised, as recognize_type_t does.  A type-T substring peels back to a
    unique seed, which sits in the chain as a *core* with its end entries
    possibly lowered: an entry >= 4 is the core of (4), and two entries >= 3
    with only 2s between them are the core of (3, 2, ..., 2, 3).  Each core
    is walked outward with the state (a, b, vL, vR, r, d), where vL <=
    chain[a] and vR <= chain[b] are the virtual end values: grow_left needs
    vL == chain[a] and gives (a-1, b, 2, vR+1, 2r-d, r), grow_right needs
    vR == chain[b] and gives (a, b+1, vL+1, 2, r+d, d), and a state with
    both ends equal to the chain is a hit.  A hit allows neither move and
    every other state at most one, so only a core entry > 4 forks (one walk
    per side) and the cost is O(k + total walk length).

    Each hit is then checked by a second route: the continued fraction of
    chain[start..stop] must be (r*s*d - 1)/(r^2*s) for the walk's params,
    else InternalCheckError is raised.  That costs O(length) per hit, so
    the sweep stays output-sensitive.
    """
    _check_minimal(chain, "find_type_t_substrings")
    k = len(chain)
    found = []
    walks = []  # (a, b, vL, vR, r, s, d)
    prev = None  # index of the last entry >= 3
    for i, e in enumerate(chain):
        if e < 3:
            continue
        if prev is not None:
            walks.append((prev, i, 3, 3, 2, i - prev + 1, 1))
        prev = i
        if e == 4:
            found.append((i, i, TypeTParams(2, 1, 1)))
        elif e > 4:
            # The core (4) lies below the entry, so both first moves apply.
            if i > 0:
                walks.append((i - 1, i, 2, 5, 3, 1, 2))
            if i + 1 < k:
                walks.append((i, i + 1, 5, 2, 3, 1, 1))
    for a, b, v_left, v_right, r, s, d in walks:
        while True:
            if v_left == chain[a]:
                if v_right == chain[b]:
                    found.append((a, b, TypeTParams(r, s, d)))
                    break
                if a == 0:
                    break
                a, v_left, v_right, r, d = a - 1, 2, v_right + 1, 2 * r - d, r
            elif v_right == chain[b] and b + 1 < k:
                b, v_left, v_right, r = b + 1, v_left + 1, 2, r + d
            else:
                break
    for a, b, t in found:
        if cf_eval_pair(chain[a : b + 1]) != (t.r * t.s * t.d - 1, t.r * t.r * t.s):
            raise InternalCheckError(
                f"type-T hit [{a}..{b}] = {t.label()} fails the continued-fraction check"
            )
    found.sort()
    return found


def _contracted_report(chain: Sequence[int], a: int, b: int) -> InvariantReport:
    # The report of the group of a minimal chain with chain[a..b] contracted.
    return configuration_invariants(configuration(chain_to_quotient(chain), [(a, b)]))


@dataclass(frozen=True)
class FamilyClosedForm:
    """Closed-form record for the m-curve attachment family."""

    p: int
    q: int
    q_inv: int
    eta: Fraction
    c_value: Fraction


def _family_closed_form(m: int, r: int, s: int, d: int) -> FamilyClosedForm:
    p = m + m * d * r * s + r * r * s
    q = (m - 1) + (m - 1) * d * r * s + r * r * s
    q_inv = d * s * r + m * d * d * s - 1
    # eta = (3 - s - m)/3 + (m d^2 s - 2)/(3p), for every m >= 1
    return FamilyClosedForm(
        p=p,
        q=q,
        q_inv=q_inv,
        eta=Fraction((3 - s - m) * p + m * d * d * s - 2, 3 * p),
        c_value=Fraction(4 - m * d * d * s, p),
    )


def attach_family(
    m: int, r: int, s: int, d: int
) -> tuple[InvariantReport, FamilyClosedForm]:
    """m (-2)-curves attached on the left of the T(r,s,r-d) string.

    Runs the full pipeline (chain build, continued fraction, eta, chain-sum
    C with the type-T substring contracted, b2 = s - 1 + m) and evaluates
    the closed forms for p, q^(-1;p), eta and C; the two must be equal and a
    disagreement raises MismatchError.  Any m >= 1 is accepted; since
    C = (4 - m d^2 s)/p, C > 0 exactly when m d^2 s < 4, that is, d = 1 and
    (m, s) a key of ``_FAMILY_GRAPHS``, the one list of these families.
    """
    for name, value, least in (("m", m, 1), ("r", r, 2), ("s", s, 1), ("d", d, 1)):
        _check_int(name, value, least)
    if d > r - 1 or gcd(r, d) != 1:
        raise SinglabError(f"invalid family parameters (r, s, d) = ({r}, {s}, {d})")
    t_chain = type_t_string(TypeTParams(r, s, r - d))
    report = _contracted_report((2,) * m + t_chain, m, m + len(t_chain) - 1)
    closed = _family_closed_form(m, r, s, d)
    if any(getattr(report, f.name) != getattr(closed, f.name) for f in fields(closed)):
        raise MismatchError(
            f"pipeline and closed form disagree for (m, r, s, d) = "
            f"({m}, {r}, {s}, {d}): {report} vs {closed}"
        )
    return report, closed


_FAMILY_GRAPHS = {
    # (m, s) -> minimal-resolution graph of m (-2)-curves left of the
    # T(r,s,r-1) string, as a function of r.  The keys are exactly the
    # (m, s) with m*s < 4: the attachment families with C > 0.
    (1, 1): lambda r: (2,) * (r - 1) + (r + 2,),
    (1, 2): lambda r: (2,) * (r - 1) + (3, r + 1),
    (1, 3): lambda r: (2,) * (r - 1) + (3, 2, r + 1),
    (2, 1): lambda r: (2,) * r + (r + 2,),
    (3, 1): lambda r: (2,) * (r + 1) + (r + 2,),
}


def family_minimal_graph(m: int, r: int, s: int) -> ResolutionChain:
    """Minimal-resolution graph of the d = 1 attachment family.

    Published for (m, s) in {(1,1), (1,2), (1,3), (2,1), (3,1)} with r >= 2;
    anything else, a bool or float argument included, raises
    UnsupportedFamily.
    """
    _check_int("m", m, error=UnsupportedFamily)
    _check_int("r", r, 2, UnsupportedFamily)
    _check_int("s", s, error=UnsupportedFamily)
    if (m, s) not in _FAMILY_GRAPHS:
        raise UnsupportedFamily(
            f"no minimal-resolution graph for (m, r, s) = ({m}, {r}, {s})"
        )
    return ResolutionChain(_FAMILY_GRAPHS[m, s](r))


def theorem_tables(r_max: int = 20) -> list[InvariantReport]:
    """Invariant rows for the named group families.

    The three small groups whose versal deformation has only the Artin
    component (1/3(1,1), 1/5(1,2), 1/7(1,3)) as Artin rows, then the five
    infinite non-Artin families 1/(r^2+r+1)(1,r), 1/(r^2+2r+2)(1,r+1),
    1/(2r^2+2r+1)(1,2r+1), 1/(r^2+3r+3)(1,r+2), 1/(3r^2+3r+1)(1,3r+2) for
    r in [2, r_max], one per key (m, s) of ``_FAMILY_GRAPHS``, each row
    with its T(r,s,1) string contracted.  Every row has positive C.
    """
    _check_int("r_max", r_max, 2)
    rows = [
        configuration_invariants(artin_configuration(CyclicQuotient(p, q)))
        for p, q in ((3, 1), (5, 2), (7, 3))
    ]
    for (m, s), graph in _FAMILY_GRAPHS.items():
        for r in range(2, r_max + 1):
            # The reversal-conjugate presentation: the T(r,s,1) string with
            # m (-2)-curves on its right, which gives the groups above.
            chain = graph(r)[::-1]
            rows.append(_contracted_report(chain, 0, len(chain) - 1 - m))
    return sorted(rows, key=lambda row: (row.p, row.q, row.label))
