"""Type T(r,s,d) singularities: construction, enumeration, recognition.

T(r,s,d) is the cyclic quotient (1/(r^2 s))(1, r s d - 1) with gcd(r, d) = 1
-- exactly the non-SU(2) cyclic singularities admitting one-parameter
Q-Gorenstein smoothings.  Their resolution chains are generated from small
seed chains by two end moves, and that recursion gives a second, independent
way to recognize them, used as a cross-check against the arithmetic test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from typing import Optional, Sequence

from .chains import CyclicQuotient, ResolutionChain, _check_minimal, hj_resolve
from .errors import InternalCheckError, SinglabError, _check_int
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
        # Exact ints with r >= 2 and s >= 1 pass at once; anything else gets
        # the full check.
        if not type(self.r) is type(self.s) is type(self.d) is int or self.r < 2 or self.s < 1:
            _check_int("r", self.r, 2)
            _check_int("s", self.s, 1)
            _check_int("d", self.d)
        object.__setattr__(self, "d", self.d % self.r)
        if self.d == 0 or gcd(self.r, self.d) != 1:
            raise SinglabError(
                f"d must be invertible mod r, got (r, d) = ({self.r}, {self.d})"
            )

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
    _check_int("s", s, 1)
    if s == 1:
        return ResolutionChain((4,))
    return ResolutionChain((3,) + (2,) * (s - 2) + (3,))


def grow_left(chain: Sequence[int]) -> ResolutionChain:
    """(e_1, ..., e_k) -> (2, e_1, ..., e_{k-1}, e_k + 1)."""
    c = ResolutionChain(chain)
    if not c:
        raise SinglabError("cannot grow an empty chain")
    return ResolutionChain((2,) + c[:-1] + (c[-1] + 1,))


def grow_right(chain: Sequence[int]) -> ResolutionChain:
    """(e_1, ..., e_k) -> (e_1 + 1, e_2, ..., e_k, 2)."""
    c = ResolutionChain(chain)
    if not c:
        raise SinglabError("cannot grow an empty chain")
    return ResolutionChain((c[0] + 1,) + c[1:] + (2,))


def enumerate_type_t(
    r_max: int, s_max: int
) -> list[tuple[TypeTParams, ResolutionChain]]:
    """All (params, chain) pairs with r <= r_max and s <= s_max.

    For each s the recursion tree over grow_left/grow_right is walked from
    seed_chain(s), and every chain visited is paired with its recognised
    parameters.  Both moves preserve type-T-ness and s, and each strictly
    increases r: grow_right sends r to r + d and grow_left sends it to
    2r - d, both above r since 1 <= d <= r - 1.  So every descendant of a
    chain with r > r_max also has r > r_max, and the walk stops growing such
    a chain; the cost is proportional to the output, not exponential in
    r_max.  The tree has no repeats (a grow_left result starts with 2 and
    ends in an entry >= 3, a grow_right result the other way round, and
    seeds have neither shape), and every type-T chain peels back to its
    seed, so each (r, s) cell comes out complete: exactly phi(r) chains, one
    per valid d.  The result is sorted by (r, s, d).
    """
    _check_int("r_max", r_max, 2)
    _check_int("s_max", s_max, 1)
    out: list[tuple[TypeTParams, ResolutionChain]] = []
    for s in range(1, s_max + 1):
        todo = [seed_chain(s)]
        while todo:
            chain = todo.pop()
            params = recognize_type_t(chain)
            if params is None or params.s != s:
                raise InternalCheckError(
                    f"recursion tree produced {chain!r} which does not recognize "
                    f"as a type-T chain with s={s} (got {params})"
                )
            if params.r <= r_max:
                out.append((params, chain))
                todo += [grow_left(chain), grow_right(chain)]
    out.sort(key=lambda pc: (pc[0].r, pc[0].s, pc[0].d))
    return out


def _params_of_pair(q: int, p: int, s: int) -> Optional[TypeTParams]:
    # The type-T test on a chain of value q/p whose entries e satisfy
    # s = 2 + 3*len - sum(e).  Every type-T chain obeys that sum law with its
    # own s (each seed does, and each grow move adds 1 to the length and 3 to
    # the sum), so only r = isqrt(p/s) can work: no search over r is needed.
    # The test is sound for any s: acceptance means p = r^2 s and
    # q = r s d - 1 with d valid, i.e. q/p is the group of T(r,s,d), and a
    # minimal chain of that value is the (unique) chain of T(r,s,d).
    if s < 1:
        return None
    r = isqrt(p // s)
    if r < 2 or r * r * s != p or (q + 1) % (r * s):
        return None
    d = (q + 1) // (r * s)
    if 1 <= d <= r - 1 and gcd(r, d) == 1:
        return TypeTParams(r, s, d)
    return None


def _peel_to_seed(chain: Sequence[int]) -> Optional[int]:
    # Undo grow moves until a seed is reached.  Undoing grow_left needs
    # c[0] == 2 and undoing grow_right needs c[0] >= 3, so at most one move
    # applies at each step, and on a minimal chain neither pushes an entry
    # below 2.  No move applies to a seed, so the seed test runs once, after
    # the loop; each move pops one end and lowers the other in place, so the
    # peel is O(len(chain)).  Returns the s of the seed reached, else None.
    c = deque(chain)
    while len(c) >= 2:
        if c[0] == 2 and c[-1] >= 3:
            c.popleft()
            c[-1] -= 1
        elif c[-1] == 2 and c[0] >= 3:
            c.pop()
            c[0] -= 1
        else:
            break
    if len(c) == 1:
        return 1 if c[0] == 4 else None
    if c and c[0] == c[-1] == 3 and all(e == 2 for e in islice(c, 1, len(c) - 1)):
        return len(c)
    return None


def recognize_type_t(chain: Sequence[int]) -> Optional[TypeTParams]:
    """Parameters of a type-T chain, or None for anything else.

    Runs both the arithmetic test and the graph-peeling test; they must
    agree, and disagreement raises InternalCheckError.  Both are O(len(chain)).
    """
    if len(chain) == 0:
        return None
    _check_minimal(chain, "recognize_type_t")
    q, p = cf_eval_pair(chain)
    params = _params_of_pair(q, p, 2 + 3 * len(chain) - sum(chain))
    seed_s = _peel_to_seed(chain)
    if (params.s if params else None) != seed_s:
        raise InternalCheckError(
            f"recognizers disagree on {tuple(chain)}: arithmetic={params}, "
            f"peeling seed s={seed_s}"
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
    p = type_t_group(t).p
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
