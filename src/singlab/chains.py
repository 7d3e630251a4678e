"""Cyclic quotient singularities and their resolution chains.

A group (1/p)(1,q) acts on C^2 by (z1, z2) -> (zeta_p z1, zeta_p^q z2).  Its
minimal resolution is a linear string of rational curves whose dual graph we
store as the tuple of minus-self-intersections (e_1, ..., e_k): the entry 1
encodes a (-1)-curve, so minimal chains are exactly those with all entries
>= 2.  The chain determines and is determined by q/p = [e_1, ..., e_k] in the
bracket convention of :mod:`singlab.exact`.

Blow-up and blow-down act on chains the way the corresponding surface
operations act on dual graphs, restricted to the moves that keep the graph
linear: a free-point blow-up at the outward side of an end curve, and a
blow-up of the intersection point of two adjacent curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import (
    IndexOutOfRange,
    InvalidChain,
    InvalidN,
    InvalidSite,
    NonMinimalChain,
    NotMinusOneCurve,
    SinglabError,
    _check_int,
)
from .exact import cf_eval

__all__ = [
    "CyclicQuotient",
    "ResolutionChain",
    "OnCurve",
    "AtNode",
    "hj_resolve",
    "chain_to_quotient",
    "blow_up",
    "blow_down",
    "non_minimal_graph",
]


@dataclass(frozen=True)
class CyclicQuotient:
    """The singularity (1/p)(1,q), with p >= 2, 1 <= q < p, gcd(p,q) = 1.

    The gcd condition is what makes the action on S^3 free (for a cyclic
    group it is equivalent to containing no complex reflections); p = 1
    would be the trivial group and is rejected.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        # Exact ints with p >= 2 pass at once; anything else gets the full
        # check.
        if not type(self.p) is type(self.q) is int or self.p < 2:
            _check_int("p", self.p, 2)
            _check_int("q", self.q)
        if not 1 <= self.q < self.p:
            raise SinglabError(f"need 1 <= q < p, got (p, q) = ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise SinglabError(
                f"(p, q) = ({self.p}, {self.q}) is not coprime; the action is not free"
            )


class ResolutionChain(tuple):
    """A dual-graph chain: a tuple of minus-self-intersections, each >= 1.

    Adjacent entries are curves meeting in one point.  The empty chain is
    allowed as the degenerate result of contracting a single curve.
    """

    def __new__(cls, entries: Iterable[int] = ()) -> "ResolutionChain":
        items = tuple(entries)
        for e in items:
            # bool is an int subclass: False already fails e < 1, and True
            # is caught by identity, which costs no call per entry.
            if not isinstance(e, int) or e < 1 or e is True:
                raise InvalidChain(f"chain entries must be integers >= 1, got {e!r}")
        return super().__new__(cls, items)

    def __repr__(self) -> str:
        return f"ResolutionChain{tuple.__repr__(self)}"

    def __reduce__(self):
        # Every entry was checked when the chain was built, so unpickling
        # (a scan worker's records, say) restores it without a second check.
        return tuple.__new__, (ResolutionChain, tuple(self))


def _check_minimal(chain: Sequence[int], what: str) -> None:
    # The one minimal-chain check of the functions that need one.  A
    # ResolutionChain's entries were checked when it was built; any other
    # sequence must hold only ints (InvalidChain), so a float or str entry
    # never reaches the arithmetic.  A bool is an int here and fails below.
    if not isinstance(chain, ResolutionChain):
        for e in chain:
            if not isinstance(e, int):
                raise InvalidChain(f"chain entries must be integers, got {e!r}")
    # No (-1)-curve: every entry is >= 2.  The empty chain is minimal; a
    # True entry is not, since True < 2.
    if min(chain, default=2) < 2:
        raise NonMinimalChain(f"{what} needs a minimal chain, got {tuple(chain)}")


@dataclass(frozen=True)
class OnCurve:
    """Blow up a free point of curve ``index``; the new (-1) goes on ``side``.

    Only the outward side of an end curve keeps the graph linear.
    """

    index: int
    side: str  # "left" or "right"

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise InvalidSite(f"side must be 'left' or 'right', got {self.side!r}")


@dataclass(frozen=True)
class AtNode:
    """Blow up the intersection point of curves ``index`` and ``index + 1``."""

    index: int


BlowUpSite = Union[OnCurve, AtNode]


def hj_resolve(g: CyclicQuotient) -> ResolutionChain:
    """Minimal resolution chain of (1/p)(1,q).

    Reads it off the regular continued fraction p/q = a_1 + 1/(a_2 + ...),
    in O(Euclid steps) rather than O(k) steps: the chain is a_1 + 1, then
    a_2 - 1 entries 2, a_3 + 2, a_4 - 1 entries 2, a_5 + 2, ..., with the
    last entry one less when the expansion ends on an odd-position term
    (so q = 1 gives (p,)).  Every entry is >= 2 and cf_eval of the result
    is exactly q/p; the ceiling recursion p = e_1 q - a_1, q = e_2 a_1 -
    a_2, ... is the test oracle.
    """
    return _hj_chain(g.p, g.q)


def _hj_chain(p: int, q: int) -> ResolutionChain:
    # hj_resolve of a pair the caller knows to be a valid quotient, so no
    # CyclicQuotient is built: the scan's chain source.
    entries = []
    a, b, bump = p, q, 1
    while True:
        # a/b = t + (a % b)/b, t at an odd position: one entry t + bump.
        entries.append(a // b + bump)
        a %= b
        if not a:
            entries[-1] -= 1
            break
        # b/a = t + b'/a, t at an even position: t - 1 entries 2.
        t, b = divmod(b, a)
        if t > 1:
            entries += [2] * (t - 1)
        if not b:
            break
        bump = 2
    # Every e is an int >= 2 by construction, so the per-entry validation
    # of ResolutionChain.__new__ is skipped.
    return tuple.__new__(ResolutionChain, entries)


def chain_to_quotient(chain: Sequence[int]) -> CyclicQuotient:
    """The group (p, q) with q/p = cf_eval(chain); left inverse of hj_resolve.

    Requires a minimal chain: with a 1-entry the bracket value can leave
    (0, 1) and stops encoding a quotient singularity.
    """
    if len(chain) == 0:
        raise NonMinimalChain("cannot recover a group from an empty chain")
    _check_minimal(chain, "chain_to_quotient")
    value = cf_eval(chain)
    return CyclicQuotient(value.denominator, value.numerator)


def blow_up(chain: ResolutionChain, site: BlowUpSite) -> ResolutionChain:
    """Blow up the surface at ``site`` and return the new chain (length + 1).

    OnCurve increments e_i and inserts a new 1 outward of the end curve i;
    AtNode increments both e_i and e_{i+1} and inserts the 1 between them.
    """
    if not isinstance(site, (OnCurve, AtNode)):
        raise SinglabError(f"unknown blow-up site {site!r}")
    k = len(chain)
    entries = list(chain)
    i = site.index
    _check_int("index", i, 0, IndexOutOfRange)
    if isinstance(site, AtNode):
        if i >= k - 1:
            raise IndexOutOfRange(
                f"node index {i} not in chain of length {k} (needs two curves)"
            )
        return ResolutionChain(
            entries[:i] + [entries[i] + 1, 1, entries[i + 1] + 1] + entries[i + 2:]
        )
    if i >= k:
        raise IndexOutOfRange(f"curve index {i} not in chain of length {k}")
    left = site.side == "left"
    if i != (0 if left else k - 1):
        raise InvalidSite(
            "a free-point blow-up keeps the graph linear only at a chain end; "
            f"curve {i} has a {site.side} neighbour"
        )
    entries[i] += 1
    return ResolutionChain([1] + entries if left else entries + [1])


def blow_down(chain: ResolutionChain, index: int) -> ResolutionChain:
    """Contract the (-1)-curve at ``index``; each existing neighbour's
    self-intersection rises by one (entry decrements)."""
    k = len(chain)
    _check_int("index", index, 0, IndexOutOfRange)
    if index >= k:
        raise IndexOutOfRange(f"index {index} not in chain of length {k}")
    if chain[index] != 1:
        raise NotMinusOneCurve(
            f"entry {index} is {chain[index]}, only a (-1)-curve can be blown down"
        )
    entries = list(chain)
    del entries[index]
    if index - 1 >= 0:
        entries[index - 1] -= 1
    if index < len(entries):
        entries[index] -= 1
    return ResolutionChain(entries)


def non_minimal_graph(n: int) -> ResolutionChain:
    """The chain (1, 2, ..., 2, n+1) with n-3 two-entries, for n >= 3.

    This is the result of n-2 iterated blow-ups of the single chain (n):
    first a free point of the (-n)-curve, then repeatedly a free point of
    the fresh (-1)-curve.
    """
    _check_int("n", n, 3, InvalidN)
    return ResolutionChain((1,) + (2,) * (n - 3) + (n + 1,))
