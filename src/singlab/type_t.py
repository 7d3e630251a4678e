"""Type T(r,s,d) singularities: construction, enumeration, recognition.

T(r,s,d) is the cyclic quotient (1/(r^2 s))(1, r s d - 1) with gcd(r, d) = 1
-- exactly the non-SU(2) cyclic singularities admitting one-parameter
Q-Gorenstein smoothings.  Their resolution chains are generated from small
seed chains by two end moves, and that recursion gives a second, independent
way to recognize them, used as a cross-check against the arithmetic test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .chains import CyclicQuotient, ResolutionChain, hj_resolve
from .errors import InternalCheckError, NonMinimalChain, SinglabError
from .exact import cf_eval_pair

__all__ = [
    "TypeTParams",
    "type_t_group",
    "type_t_string",
    "seed_chain",
    "grow_left",
    "grow_right",
    "enumerate_type_t",
    "recognize_type_t",
    "type_t_invariants",
    "TypeTInvariants",
    "conjugate",
]


@dataclass(frozen=True)
class TypeTParams:
    """Parameters of the singularity (1/(r^2 s))(1, r s d - 1).

    d is canonicalized into [1, r-1] at construction (d and d + r present
    the same group mod r^2 s), which makes params <-> group a bijection.
    Requires r >= 2, s >= 1 and gcd(r, d) = 1.
    """

    r: int
    s: int
    d: int

    def __post_init__(self) -> None:
        if self.r < 2:
            raise SinglabError(f"need r >= 2, got r={self.r}")
        if self.s < 1:
            raise SinglabError(f"need s >= 1, got s={self.s}")
        object.__setattr__(self, "d", self.d % self.r)
        if self.d == 0 or gcd(self.r, self.d) != 1:
            raise SinglabError(
                f"d must be invertible mod r, got (r, d) = ({self.r}, {self.d})"
            )

    @property
    def group_order(self) -> int:
        return self.r * self.r * self.s

    def label(self) -> str:
        return f"T({self.r},{self.s},{self.d})"


def type_t_group(t: TypeTParams) -> CyclicQuotient:
    """The group (1/(r^2 s))(1, r s d - 1) of T(r,s,d)."""
    return CyclicQuotient(t.r * t.r * t.s, t.r * t.s * t.d - 1)


def type_t_string(t: TypeTParams) -> ResolutionChain:
    """Minimal resolution chain of T(r,s,d)."""
    return hj_resolve(type_t_group(t))


def seed_chain(s: int) -> ResolutionChain:
    """The shortest chain with smoothing dimension s: (4), (3,3), or
    (3, 2, ..., 2, 3) with s-2 middle twos."""
    if s < 1:
        raise SinglabError(f"need s >= 1, got {s}")
    if s == 1:
        return ResolutionChain((4,))
    return ResolutionChain((3,) + (2,) * (s - 2) + (3,))


def grow_left(chain: Sequence[int]) -> ResolutionChain:
    """(e_1, ..., e_k) -> (2, e_1, ..., e_{k-1}, e_k + 1)."""
    c = tuple(chain)
    return ResolutionChain((2,) + c[:-1] + (c[-1] + 1,))


def grow_right(chain: Sequence[int]) -> ResolutionChain:
    """(e_1, ..., e_k) -> (e_1 + 1, e_2, ..., e_k, 2)."""
    c = tuple(chain)
    return ResolutionChain((c[0] + 1,) + c[1:] + (2,))


def enumerate_type_t(
    r_max: int, s_max: int
) -> list[tuple[TypeTParams, ResolutionChain]]:
    """All (params, chain) pairs with r <= r_max and s <= s_max.

    For each s the recursion tree over grow_left/grow_right is walked from
    seed_chain(s) to depth r_max - 2, the chains are deduplicated and paired
    with their arithmetically recovered parameters, and entries whose r
    exceeds r_max are dropped.  Both moves preserve type-T-ness and every
    type-T chain with parameter r is reached within r - 2 moves, so each
    (r, s) cell comes out complete: exactly phi(r) chains, one per valid d.
    The result is sorted by (r, s, d).
    """
    if r_max < 2 or s_max < 1:
        raise SinglabError(f"need r_max >= 2 and s_max >= 1, got ({r_max}, {s_max})")
    out: list[tuple[TypeTParams, ResolutionChain]] = []
    for s in range(1, s_max + 1):
        level = {tuple(seed_chain(s))}
        seen = set(level)
        for _ in range(r_max - 2):
            nxt = set()
            for c in level:
                nxt.add(tuple(grow_left(c)))
                nxt.add(tuple(grow_right(c)))
            seen |= nxt
            level = nxt
        for c in seen:
            chain = ResolutionChain(c)
            params = recognize_type_t(chain)
            if params is None or params.s != s:
                raise InternalCheckError(
                    f"recursion tree produced {chain!r} which does not recognize "
                    f"as a type-T chain with s={s} (got {params})"
                )
            if params.r <= r_max:
                out.append((params, chain))
    out.sort(key=lambda pc: (pc[0].r, pc[0].s, pc[0].d))
    return out


def _params_of_pair(q: int, p: int) -> Optional[TypeTParams]:
    # The type-T test on a chain value q/p: look for r >= 2 with r^2 | p,
    # s = p/r^2, rs | q+1 and d = (q+1)/(rs) a valid parameter.  The
    # parameterization is a bijection, so at most one r can succeed.
    r = 2
    while r * r <= p:
        if p % (r * r) == 0:
            s = p // (r * r)
            if (q + 1) % (r * s) == 0:
                d = (q + 1) // (r * s)
                if 1 <= d <= r - 1 and gcd(r, d) == 1:
                    return TypeTParams(r, s, d)
        r += 1
    return None


def _peel_to_seed(chain: Sequence[int]) -> Optional[int]:
    # Undo grow moves until a seed is reached.  Undoing grow_left needs
    # c[0] == 2 and undoing grow_right needs c[0] >= 3, so at most one move
    # applies at each step, and on a minimal chain neither pushes an entry
    # below 2.  Returns the s of the seed reached, else None.
    c = tuple(chain)
    while True:
        if c == (4,):
            return 1
        if len(c) < 2:
            return None
        if c[0] == 3 and c[-1] == 3 and all(e == 2 for e in c[1:-1]):
            return len(c)
        if c[0] == 2 and c[-1] >= 3:
            c = c[1:-1] + (c[-1] - 1,)
        elif c[-1] == 2 and c[0] >= 3:
            c = (c[0] - 1,) + c[1:-1]
        else:
            return None


def recognize_type_t(chain: ResolutionChain) -> Optional[TypeTParams]:
    """Parameters of a type-T chain, or None for anything else.

    Runs both the arithmetic test and the graph-peeling test; they must
    agree, and disagreement raises InternalCheckError.
    """
    if len(chain) == 0:
        return None
    if not all(e >= 2 for e in chain):
        raise NonMinimalChain(
            f"type-T recognition needs a minimal chain, got {tuple(chain)}"
        )
    params = _params_of_pair(*cf_eval_pair(chain))
    seed_s = _peel_to_seed(chain)
    if (params is None) != (seed_s is None):
        raise InternalCheckError(
            f"recognizers disagree on {tuple(chain)}: arithmetic={params}, "
            f"peeling seed s={seed_s}"
        )
    if params is not None and params.s != seed_s:
        raise InternalCheckError(
            f"recognizers disagree on s for {tuple(chain)}: "
            f"arithmetic s={params.s}, peeling s={seed_s}"
        )
    return params


@dataclass(frozen=True)
class TypeTInvariants:
    """Closed-form invariant bundle of T(r,s,d)."""

    length: int
    sum_e: int
    eta: Fraction
    c_value: Fraction


def type_t_invariants(t: TypeTParams) -> TypeTInvariants:
    """Closed forms computed from (r, s, d) alone, without resolving the chain.

    length = s - 2 + (sum of the regular continued-fraction partial quotients
    of r/d), and sum = 3*length + 2 - s: the seed chains satisfy both and
    each grow move adds 1 to the length and 3 to the sum.  Only the extremal
    d in {1, r-1} give length r+s-2 and sum 3r+2s-4; T(5,1,2) has chain
    (3,5,2).  eta = (1/3)(3-s-2/(r^2 s)) and C = 4/(r^2 s) after smoothing
    the fully contracted singularity hold for every valid d."""
    p = t.group_order
    pq_sum, a, b = 0, t.r, t.d
    while b:
        pq_sum += a // b
        a, b = b, a % b
    length = t.s - 2 + pq_sum
    return TypeTInvariants(
        length=length,
        sum_e=3 * length + 2 - t.s,
        eta=Fraction(3 - t.s - Fraction(2, p), 3),
        c_value=Fraction(4, p),
    )


def conjugate(t: TypeTParams) -> TypeTParams:
    """T(r,s,d) -> T(r,s,r-d): the same singularity with the chain reversed."""
    return TypeTParams(t.r, t.s, t.r - t.d)
