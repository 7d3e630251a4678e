"""Topological invariants of resolution configurations.

A configuration is a minimal resolution chain together with a set of
disjoint contracted type-T substrings.  The empty set is the Artin
configuration (b2 = chain length); contracting a T(r,s,d) substring of
length L removes its L curves and the smoothing returns s - 1 to b2.

The central quantity is

    C = 2 - b2 + 2/p - 3*eta(S^3/Gamma),

computed here by two independent routes (through the exact eta invariant,
and through the chain sums 2 + (k - b2) - sum(e_i - 2) + (2 - q^(-1;p) - q)/p)
that are required to agree on every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .chains import CyclicQuotient, ResolutionChain, chain_to_quotient, hj_resolve
from .errors import (
    InternalCheckError,
    InvalidConfiguration,
    MismatchError,
    SinglabError,
    UnsupportedFamily,
)
from .type_t import TypeTParams, _params_of_pair, recognize_type_t, type_t_string

__all__ = [
    "ContractedInterval",
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
class ContractedInterval:
    """A contracted substring chain[start..stop] (inclusive) with its params."""

    start: int
    stop: int
    params: TypeTParams

    @property
    def length(self) -> int:
        return self.stop - self.start + 1

    def label(self) -> str:
        return f"contract[{self.start}..{self.stop}]={self.params.label()}"


@dataclass(frozen=True)
class ResolutionConfiguration:
    """A quotient, its minimal chain, and disjoint contracted type-T substrings."""

    quotient: CyclicQuotient
    chain: ResolutionChain
    contracted: tuple[ContractedInterval, ...]

    @property
    def b2(self) -> int:
        """Second Betti number of the smoothing: the curves of each
        contracted substring are traded for s - 1 classes."""
        return (
            len(self.chain)
            - sum(iv.length for iv in self.contracted)
            + sum(iv.params.s - 1 for iv in self.contracted)
        )

    @property
    def is_artin(self) -> bool:
        return not self.contracted

    def label(self) -> str:
        if self.is_artin:
            return "artin"
        return "+".join(iv.label() for iv in self.contracted)


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
    """The configuration with nothing contracted."""
    return ResolutionConfiguration(g, hj_resolve(g), ())


def configuration(
    g: CyclicQuotient, intervals: Sequence[tuple[int, int]]
) -> ResolutionConfiguration:
    """Build a configuration contracting chain[a..b] for each (a, b).

    Raises InvalidConfiguration if an interval is out of bounds, the
    intervals overlap, or a substring is not a recognized type-T chain.
    """
    chain = hj_resolve(g)
    used: set[int] = set()
    contracted = []
    for a, b in intervals:
        if not (0 <= a <= b < len(chain)):
            raise InvalidConfiguration(
                f"interval [{a}..{b}] out of bounds for chain of length {len(chain)}"
            )
        span = set(range(a, b + 1))
        if span & used:
            raise InvalidConfiguration(f"interval [{a}..{b}] overlaps another one")
        used |= span
        params = recognize_type_t(ResolutionChain(chain[a : b + 1]))
        if params is None:
            raise InvalidConfiguration(
                f"substring {tuple(chain[a:b + 1])} at [{a}..{b}] is not type T"
            )
        contracted.append(ContractedInterval(a, b, params))
    contracted.sort(key=lambda iv: iv.start)
    return ResolutionConfiguration(g, chain, tuple(contracted))


def configuration_invariants(cfg: ResolutionConfiguration) -> InvariantReport:
    """Invariant report with C computed by both routes (they must agree)."""
    g = cfg.quotient
    chain = cfg.chain
    k = len(chain)
    sum_e = sum(chain)
    q_inv = g.q_inverse()
    eta = Fraction(sum_e + Fraction(q_inv + g.q, g.p), 3) - k
    b2 = cfg.b2
    c_from_eta = 2 - b2 + Fraction(2, g.p) - 3 * eta
    c_from_sums = (
        2 + (k - b2) - (sum_e - 2 * k) + Fraction(2 - q_inv - g.q, g.p)
    )
    if c_from_eta != c_from_sums:
        raise InternalCheckError(
            f"C cross-check failed for (p, q) = ({g.p}, {g.q}), "
            f"label {cfg.label()}: {c_from_eta} != {c_from_sums}"
        )
    return InvariantReport(
        p=g.p,
        q=g.q,
        chain=chain,
        k=k,
        sum_e=sum_e,
        q_inv=q_inv,
        eta=eta,
        b2=b2,
        c_value=c_from_eta,
        positive=c_from_eta > 0,
        label=cfg.label(),
    )


def find_type_t_substrings(
    chain: Sequence[int],
) -> list[tuple[int, int, TypeTParams]]:
    """All (start, stop, params) with chain[start..stop] a type-T substring.

    Scans every interval with an incremental continued-fraction recurrence
    (extending the bracket one entry to the left costs O(1) integer work),
    so the whole sweep is O(k^2) plus a divisor test per interval.
    """
    k = len(chain)
    found = []
    for b in range(k):
        num, den = 0, 1
        for a in range(b, -1, -1):
            num, den = den, chain[a] * den - num
            params = _params_of_pair(num, den)
            if params is not None:
                found.append((a, b, params))
    found.sort()
    return found


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
    if m == 1:
        num = s * (-1 + d * d + 2 * d * r + 2 * r * r - r * (d + r) * s)
    elif m == 2:
        num = s * (-2 + 2 * d * d + 2 * d * r + r * r - r * (2 * d + r) * s)
    else:
        num = -2 - s * (3 - 3 * d * d + r * (3 * d + r) * s)
    return FamilyClosedForm(
        p=p,
        q=q,
        q_inv=q_inv,
        eta=Fraction(num, 3 * p),
        c_value=Fraction(4 - m * d * d * s, p),
    )


def attach_family(
    m: int, r: int, s: int, d: int
) -> tuple[InvariantReport, FamilyClosedForm]:
    """m (-2)-curves attached on the left of the T(r,s,r-d) string.

    Runs the full pipeline (chain build, continued fraction, eta, chain-sum
    C with the type-T substring contracted, b2 = s - 1 + m) and evaluates
    the closed forms for p, q^(-1;p), eta and C; the two must be equal and a
    disagreement raises MismatchError.
    """
    if m not in (1, 2, 3):
        raise SinglabError(f"the attachment family needs m in {{1,2,3}}, got {m}")
    if r < 2 or s < 1 or not 1 <= d <= r - 1 or gcd(r, d) != 1:
        raise SinglabError(f"invalid family parameters (r, s, d) = ({r}, {s}, {d})")
    t_chain = type_t_string(TypeTParams(r, s, r - d))
    chain = ResolutionChain((2,) * m + tuple(t_chain))
    g = chain_to_quotient(chain)
    cfg = configuration(g, [(m, m + len(t_chain) - 1)])
    report = configuration_invariants(cfg)
    closed = _family_closed_form(m, r, s, d)
    if (report.p, report.q, report.q_inv, report.eta, report.c_value) != (
        closed.p,
        closed.q,
        closed.q_inv,
        closed.eta,
        closed.c_value,
    ):
        raise MismatchError(
            f"pipeline and closed form disagree for (m, r, s, d) = "
            f"({m}, {r}, {s}, {d}): {report} vs {closed}"
        )
    return report, closed


_FAMILY_GRAPHS = {
    # (m, s) -> minimal-resolution graph as a function of r
    (1, 1): lambda r: (2,) * (r - 1) + (r + 2,),
    (1, 2): lambda r: (2,) * (r - 1) + (3, r + 1),
    (1, 3): lambda r: (2,) * (r - 1) + (3, 2, r + 1),
    (2, 1): lambda r: (2,) * r + (r + 2,),
    (3, 1): lambda r: (2,) * (r + 1) + (r + 2,),
}


def family_minimal_graph(m: int, r: int, s: int) -> ResolutionChain:
    """Minimal-resolution graph of the d = 1 attachment family.

    Published for (m, s) in {(1,1), (1,2), (1,3), (2,1), (3,1)} with r >= 2;
    anything else raises UnsupportedFamily.
    """
    key = (m, s)
    if key not in _FAMILY_GRAPHS or r < 2:
        raise UnsupportedFamily(
            f"no minimal-resolution graph for (m, r, s) = ({m}, {r}, {s})"
        )
    return ResolutionChain(_FAMILY_GRAPHS[key](r))


def _right_attached_report(m: int, r: int, s: int) -> InvariantReport:
    # The reversal-conjugate presentation: T(r,s,1) string with m (-2)-curves
    # appended on the right.  This realizes the group presentations
    # 1/(r^2+r+1)(1,r) and friends directly.
    t_chain = type_t_string(TypeTParams(r, s, 1))
    chain = ResolutionChain(tuple(t_chain) + (2,) * m)
    g = chain_to_quotient(chain)
    cfg = configuration(g, [(0, len(t_chain) - 1)])
    return configuration_invariants(cfg)


def theorem_tables(r_max: int = 20) -> list[InvariantReport]:
    """Invariant rows for the named group families.

    The three small groups whose versal deformation has only the Artin
    component (1/3(1,1), 1/5(1,2), 1/7(1,3)) as Artin rows, then the five
    infinite non-Artin families 1/(r^2+r+1)(1,r), 1/(r^2+2r+2)(1,r+1),
    1/(2r^2+2r+1)(1,2r+1), 1/(r^2+3r+3)(1,r+2), 1/(3r^2+3r+1)(1,3r+2) for
    r in [2, r_max].  Every row has positive C.
    """
    if r_max < 2:
        raise SinglabError(f"need r_max >= 2, got {r_max}")
    rows = [
        configuration_invariants(artin_configuration(CyclicQuotient(p, q)))
        for p, q in ((3, 1), (5, 2), (7, 3))
    ]
    for m, s in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3)):
        for r in range(2, r_max + 1):
            rows.append(_right_attached_report(m, r, s))
    rows.sort(key=lambda row: (row.p, row.q, row.label))
    return rows
