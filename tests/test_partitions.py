import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starwalk.partitions import (
    CaseTag,
    Ordering,
    Partition,
    enumerate_shortlex,
    parse_partition,
    shortlex_compare,
    shortlex_successor,
)

from oracles import all_partitions


def test_partition_normalizes_and_validates():
    assert Partition([3, 1, 2]).parts == (1, 2, 3)
    assert Partition((5,)).parts == (5,)
    assert Partition([2, 2]).n == 4
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([0, 2])
    with pytest.raises(ValueError):
        Partition([-1])


def test_shortlex_compare_orders_by_length_then_lex():
    assert shortlex_compare(Partition([2, 2, 2]), Partition([1, 1, 1, 3])) == Ordering.LESS
    assert shortlex_compare(Partition([1, 1, 4]), Partition([1, 2, 3])) == Ordering.LESS
    assert shortlex_compare(Partition([1, 2, 3]), Partition([1, 2, 3])) == Ordering.EQUAL
    assert shortlex_compare(Partition([1, 2, 3]), Partition([1, 1, 4])) == Ordering.GREATER


def test_successor_case_i():
    succ = shortlex_successor(Partition([1, 1, 4]))
    assert succ is not None
    nxt, case = succ
    assert nxt.parts == (1, 2, 3)
    assert case.tag == CaseTag.CASE_I


def test_successor_case_ii_bookkeeping():
    nxt, case = shortlex_successor(Partition([1, 2, 3]))
    assert nxt.parts == (2, 2, 2)
    assert case.tag == CaseTag.CASE_II
    assert case.j == 1
    assert case.p == 1
    assert case.q == 1
    assert case.f == 2


def test_successor_case_iii_grows_length():
    nxt, case = shortlex_successor(Partition([2, 2, 2]))
    assert nxt.parts == (1, 1, 1, 3)
    assert case.tag == CaseTag.CASE_III


def test_successor_none_at_all_ones():
    assert shortlex_successor(Partition([1, 1, 1, 1, 1, 1])) is None
    assert shortlex_successor(Partition([1])) is None


def test_enumerate_shortlex_frozen_small():
    got = [p.parts for p in enumerate_shortlex(6, 3)]
    assert got == [
        (1, 1, 4),
        (1, 2, 3),
        (2, 2, 2),
        (1, 1, 1, 3),
        (1, 1, 2, 2),
        (1, 1, 1, 1, 2),
        (1, 1, 1, 1, 1, 1),
    ]
    got5 = [p.parts for p in enumerate_shortlex(5, 3)]
    assert got5 == [(1, 1, 3), (1, 2, 2), (1, 1, 1, 2), (1, 1, 1, 1, 1)]


@pytest.mark.slow
@pytest.mark.parametrize("min_parts", [1, 2, 3, 4])
@pytest.mark.parametrize("n", list(range(1, 21)))
def test_successor_chain_matches_brute_force(n, min_parts):
    got = [p.parts for p in enumerate_shortlex(n, min_parts)]
    assert got == all_partitions(n, min_parts)


def test_case_ii_closing_part_properties():
    # f >= b always, with equality exactly in the excluded corner b-a=1, q=1
    for n in range(6, 22):
        for alpha in enumerate_shortlex(n, 3):
            step = shortlex_successor(alpha)
            if step is None or step[1].tag != CaseTag.CASE_II:
                continue
            case = step[1]
            a = alpha.parts[case.j - 1]
            b = alpha.parts[-1] - 1
            assert case.f == (case.p + case.q - 1) * (b - a) + b - case.p
            assert case.f >= b
            assert (case.f == b) == (b - a == 1 and case.q == 1)
            assert case.j + case.p + case.q == len(alpha)
            assert step[0].n == alpha.n


def test_successor_preserves_sum_and_never_shrinks_length():
    for n in range(3, 20):
        for alpha in enumerate_shortlex(n, 3):
            step = shortlex_successor(alpha)
            if step is None:
                continue
            beta, _ = step
            assert beta.n == alpha.n
            assert len(beta) >= len(alpha)
            assert shortlex_compare(alpha, beta) == Ordering.LESS


@functools.lru_cache(maxsize=None)
def _shortlex_universe(n: int) -> list[tuple[int, ...]]:
    # hypothesis draws many partitions of the same n; enumerate each n once
    return all_partitions(n, 1)


@st.composite
def partitions(draw):
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=7))
    return Partition(parts)


@given(partitions())
@settings(max_examples=200, deadline=None)
def test_successor_is_immediate_in_shortlex(alpha):
    step = shortlex_successor(alpha, min_parts=1)
    universe = _shortlex_universe(alpha.n)
    idx = universe.index(alpha.parts)
    if step is None:
        assert idx == len(universe) - 1
    else:
        assert universe[idx + 1] == step[0].parts


def test_parse_partition_sorts_and_flags():
    part, reordered = parse_partition("1,2,3")
    assert part.parts == (1, 2, 3)
    assert not reordered
    part, reordered = parse_partition("3, 1, 2")
    assert part.parts == (1, 2, 3)
    assert reordered


@pytest.mark.parametrize("bad", ["", "1,,2", "a,b", "1:2", "1, ,3"])
def test_parse_partition_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)
