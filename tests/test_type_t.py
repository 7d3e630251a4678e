import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import partial_quotient_sum, phi, valid_d
from singlab import (
    CyclicQuotient,
    InternalCheckError,
    InvalidChain,
    NonMinimalChain,
    ResolutionChain,
    SinglabError,
    TypeTParams,
    chain_to_quotient,
    configuration,
    enumerate_type_t,
    grow_left,
    grow_right,
    hj_resolve,
    recognize_type_t,
    seed_chain,
    type_t_group,
    type_t_invariants,
    type_t_string,
)
from singlab.type_t import _params_of_pair, _peel_to_seed


def _conjugate(t):
    # T(r,s,d) -> T(r,s,r-d): the same singularity with the chain reversed.
    return TypeTParams(t.r, t.s, t.r - t.d)


def test_params_validation_and_canonicalization():
    with pytest.raises(SinglabError):
        TypeTParams(1, 1, 1)
    with pytest.raises(SinglabError):
        TypeTParams(2, 0, 1)
    with pytest.raises(SinglabError):
        TypeTParams(4, 1, 2)  # gcd(4, 2) != 1
    with pytest.raises(SinglabError):
        TypeTParams(3, 1, 3)  # canonicalizes to d = 0
    for flagged in ((2, True, 1), (3, 1, True), (True, 1, 1)):
        with pytest.raises(SinglabError):
            TypeTParams(*flagged)  # bool is an int subclass, not a parameter
    for typed in ((3.0, 1, 1), (3, 1.0, 1), (3, 1, 1.0)):
        with pytest.raises(SinglabError, match="must be an integer"):
            TypeTParams(*typed)
    assert TypeTParams(3, 1, 4) == TypeTParams(3, 1, 1)
    assert TypeTParams(3, 1, 5).d == 2
    assert type_t_group(TypeTParams(3, 2, 1)).p == 18
    assert TypeTParams(3, 1, 2).label() == "T(3,1,2)"


def test_type_t_group_examples():
    assert type_t_group(TypeTParams(2, 1, 1)) == CyclicQuotient(4, 1)
    assert type_t_group(TypeTParams(3, 1, 1)) == CyclicQuotient(9, 2)
    assert type_t_group(TypeTParams(2, 2, 1)) == CyclicQuotient(8, 3)


def test_type_t_string_examples():
    assert type_t_string(TypeTParams(2, 1, 1)) == (4,)
    assert type_t_string(TypeTParams(3, 1, 1)) == (5, 2)
    assert type_t_string(TypeTParams(3, 1, 2)) == (2, 5)
    assert type_t_string(TypeTParams(2, 2, 1)) == (3, 3)


def test_seed_chains():
    assert seed_chain(1) == (4,)
    assert seed_chain(2) == (3, 3)
    assert seed_chain(3) == (3, 2, 3)
    assert seed_chain(5) == (3, 2, 2, 2, 3)
    with pytest.raises(SinglabError):
        seed_chain(0)
    for s in (2.0, True):
        with pytest.raises(SinglabError, match="s must be an integer"):
            seed_chain(s)


def test_grow_moves():
    assert grow_left((4,)) == (2, 5)
    assert grow_right((4,)) == (5, 2)
    assert grow_left((2, 5)) == (2, 2, 6)
    assert grow_right((2, 5)) == (3, 5, 2)
    for grow in (grow_left, grow_right):
        with pytest.raises(SinglabError, match="empty chain"):
            grow(())
        # an entry must be an int >= 1, not a bool or a float
        for chain in ([True], [True, 2], [2, True], [4.0]):
            with pytest.raises(InvalidChain):
                grow(chain)


def test_strings_reachable_within_r_minus_2_moves():
    # walking the tree to depth r-2 must reach the string of every d
    for r in range(2, 9):
        for s in range(1, 4):
            level = {tuple(seed_chain(s))}
            seen = set(level)
            for _ in range(r - 2):
                level = {m for c in level for m in (tuple(grow_left(c)), tuple(grow_right(c)))}
                seen |= level
            for d in valid_d(r):
                assert tuple(type_t_string(TypeTParams(r, s, d))) in seen


def test_string_length_law():
    # length is s - 2 + (partial-quotient sum of r/d); the extremal values
    # d = 1 and d = r-1 are exactly the chains of length r + s - 2
    for r in range(2, 13):
        for s in range(1, 4):
            for d in valid_d(r):
                chain = type_t_string(TypeTParams(r, s, d))
                assert len(chain) == s - 2 + partial_quotient_sum(r, d)
                assert sum(chain) == 3 * len(chain) + 2 - s
                if d in (1, r - 1):
                    assert len(chain) == r + s - 2
                    assert sum(chain) == 3 * r + 2 * s - 4
                else:
                    assert len(chain) < r + s - 2


def test_enumerate_smallest_cells():
    assert enumerate_type_t(2, 1) == [(TypeTParams(2, 1, 1), (4,))]
    by_r3 = [pc for pc in enumerate_type_t(3, 1) if pc[0].r == 3]
    assert by_r3 == [
        (TypeTParams(3, 1, 1), (5, 2)),
        (TypeTParams(3, 1, 2), (2, 5)),
    ]
    by_r4 = [pc for pc in enumerate_type_t(4, 1) if pc[0].r == 4]
    assert by_r4 == [
        (TypeTParams(4, 1, 1), (6, 2, 2)),
        (TypeTParams(4, 1, 3), (2, 2, 6)),
    ]


def test_enumerate_counts_and_round_trip():
    # r_max 30 is out of reach of an unpruned walk: the grow tree doubles
    # with every level.
    for r_max in (8, 30):
        entries = enumerate_type_t(r_max, 3)
        cells = {}
        for params, chain in entries:
            cells.setdefault((params.r, params.s), []).append((params, chain))
            assert recognize_type_t(chain) == params
            assert type_t_string(params) == chain
        assert set(cells) == {(r, s) for r in range(2, r_max + 1) for s in range(1, 4)}
        for cell in cells.values():
            assert len(cell) == phi(cell[0][0].r)


def test_enumerate_children_have_larger_r():
    # The pruning in enumerate_type_t rests on this: both moves keep s and
    # strictly increase r, so no chain beyond r_max has a descendant within.
    # find_type_t_substrings applies the same (r, d) updates as it walks.
    for params, chain in enumerate_type_t(20, 4):
        r, s, d = params.r, params.s, params.d
        right = recognize_type_t(grow_right(chain))
        left = recognize_type_t(grow_left(chain))
        assert right == TypeTParams(r + d, s, d)
        assert left == TypeTParams(2 * r - d, s, r)
        assert min(right.r, left.r) > r


def test_enumerate_validation():
    with pytest.raises(SinglabError):
        enumerate_type_t(1, 1)
    with pytest.raises(SinglabError):
        enumerate_type_t(4, 0)
    with pytest.raises(SinglabError, match="r_max must be an integer"):
        enumerate_type_t(3.0, 1)
    with pytest.raises(SinglabError, match="s_max must be an integer"):
        enumerate_type_t(2, True)
    with pytest.raises(SinglabError, match=r"need r_max >= 2, got 1"):
        enumerate_type_t(1, 1)
    with pytest.raises(SinglabError, match=r"need s_max >= 1, got 0"):
        enumerate_type_t(4, 0)


def test_recognize_examples():
    assert recognize_type_t(ResolutionChain((4,))) == TypeTParams(2, 1, 1)
    assert recognize_type_t(ResolutionChain((3, 3))) == TypeTParams(2, 2, 1)
    assert recognize_type_t(ResolutionChain((3, 2))) is None
    assert recognize_type_t(ResolutionChain((2, 2, 2))) is None
    assert recognize_type_t(ResolutionChain(())) is None
    assert recognize_type_t(ResolutionChain((3, 5, 2))) == TypeTParams(5, 1, 2)
    assert _peel_to_seed(()) is None
    # 7/16 with s = 1 gives r = 4 and d = 2, which shares a factor with r
    assert _params_of_pair(7, 16, 1) is None


@st.composite
def _long_type_t_params(draw):
    # d in {1, r-1} gives the longest chain of its (r, s) cell, r + s - 2
    r = draw(st.integers(2, 10**4))
    d = draw(st.one_of(st.sampled_from((1, r - 1)), st.integers(1, r - 1)))
    assume(gcd(r, d) == 1)
    return TypeTParams(r, draw(st.integers(1, 6)), d)


@settings(deadline=None)  # a correctness property; no time is asserted
@given(_long_type_t_params())
@example(TypeTParams(10**4, 6, 10**4 - 1))
def test_recognize_long_type_t_strings(params):
    assert recognize_type_t(type_t_string(params)) == params


def test_configuration_on_a_long_type_t_chain():
    chain = ResolutionChain((2,) * 19999 + (20003,))
    cfg = configuration(chain_to_quotient(chain), [(0, 19999)])
    assert cfg.contracted == ((0, 19999, TypeTParams(20001, 1, 20000)),)


def test_recognize_rejects_non_minimal():
    with pytest.raises(NonMinimalChain):
        recognize_type_t(ResolutionChain((1, 4)))
    for chain in ((4.0,), (3, 3.0), ("4",), (3, None)):
        with pytest.raises(InvalidChain, match="must be integers"):
            recognize_type_t(chain)


def test_recognizers_agree_on_small_sweep():
    for k in range(1, 5):
        for chain in itertools.product(range(2, 7), repeat=k):
            recognize_type_t(ResolutionChain(chain))  # raises on disagreement


def test_recognizer_disagreement_raises(monkeypatch):
    monkeypatch.setattr("singlab.type_t._peel_to_seed", lambda chain: None)
    with pytest.raises(InternalCheckError):
        recognize_type_t(ResolutionChain((4,)))
    monkeypatch.setattr("singlab.type_t._peel_to_seed", lambda chain: 2)
    with pytest.raises(InternalCheckError):
        recognize_type_t(ResolutionChain((4,)))


def test_enumerate_checks_each_recognized_chain(monkeypatch):
    # Every chain of the grow tree is recognised, and a chain that does not
    # recognise as type T with the seed's s raises.
    monkeypatch.setattr("singlab.type_t.recognize_type_t", lambda chain: None)
    with pytest.raises(InternalCheckError, match="does not recognize"):
        enumerate_type_t(2, 1)
    monkeypatch.setattr("singlab.type_t.recognize_type_t", lambda chain: TypeTParams(2, 2, 1))
    with pytest.raises(InternalCheckError, match="with s=1"):
        enumerate_type_t(2, 1)


def test_type_t_invariants_examples():
    inv = type_t_invariants(TypeTParams(3, 1, 1))
    assert (inv.length, inv.sum_e) == (2, 7)
    assert inv.eta == Fraction(16, 27)
    assert inv.c_value == Fraction(4, 9)

    inv = type_t_invariants(TypeTParams(2, 1, 1))
    assert (inv.length, inv.sum_e) == (1, 4)
    assert inv.eta == Fraction(1, 2)
    assert inv.c_value == 1

    inv = type_t_invariants(TypeTParams(2, 3, 1))
    assert (inv.length, inv.sum_e) == (3, 8)
    assert inv.eta == Fraction(-1, 18)
    assert inv.c_value == Fraction(1, 3)
    assert hj_resolve(type_t_group(TypeTParams(2, 3, 1))) == (3, 2, 3)

    # non-extremal d: length and sum fall below r+s-2 and 3r+2s-4
    inv = type_t_invariants(TypeTParams(5, 1, 2))
    assert (inv.length, inv.sum_e) == (3, 10)
    assert type_t_string(TypeTParams(5, 1, 2)) == (3, 5, 2)

    assert type_t_string(TypeTParams(7, 2, 3)) == (3, 2, 3, 5, 2)
    assert type_t_string(TypeTParams(7, 2, 4)) == (2, 5, 3, 2, 3)
    for d in (3, 4):
        inv = type_t_invariants(TypeTParams(7, 2, d))
        assert (inv.length, inv.sum_e) == (5, 15)

    # conjugate parameters name the same singularity with the chain reversed
    for r in range(2, 13):
        for s in range(1, 5):
            for d in valid_d(r):
                t = TypeTParams(r, s, d)
                inv, inv_c = type_t_invariants(t), type_t_invariants(_conjugate(t))
                assert (inv.length, inv.sum_e) == (inv_c.length, inv_c.sum_e)


def test_conjugate():
    assert _conjugate(TypeTParams(3, 1, 1)) == TypeTParams(3, 1, 2)
    assert _conjugate(TypeTParams(5, 1, 2)) == TypeTParams(5, 1, 3)
    for s in range(1, 5):
        assert _conjugate(TypeTParams(2, s, 1)) == TypeTParams(2, s, 1)


def test_conjugate_reverses_string():
    for params, chain in enumerate_type_t(12, 6):
        assert type_t_string(_conjugate(params)) == ResolutionChain(reversed(chain))
