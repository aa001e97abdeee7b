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
    shortlex_tuples,
)

from oracles import all_partitions, partitions_with_parts


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
    assert shortlex_tuples(n, min_parts) == got


@pytest.mark.slow
@pytest.mark.parametrize("min_parts", [1, 2, 3, 4])
@pytest.mark.parametrize("n", list(range(1, 21)))
def test_successor_chain_from_the_minimum_is_the_shortlex_order(n, min_parts):
    # the paper's construction, followed from (1, ..., 1, n - k + 1) to the
    # all-ones end, visits exactly what the direct enumeration lists
    chain = []
    if n >= min_parts:
        cur = Partition((1,) * (min_parts - 1) + (n - min_parts + 1,))
        while cur is not None:
            chain.append(cur)
            step = shortlex_successor(cur)
            cur = None if step is None else step[0]
    assert chain == enumerate_shortlex(n, min_parts)
    assert [p.parts for p in chain] == all_partitions(n, min_parts)


def test_enumerate_shortlex_input_checks():
    with pytest.raises(ValueError):
        enumerate_shortlex(0)
    with pytest.raises(ValueError):
        enumerate_shortlex(-3, 1)
    with pytest.raises(ValueError):
        enumerate_shortlex(5, 0)
    assert enumerate_shortlex(2, 3) == []
    assert enumerate_shortlex(4, 5) == []
    assert enumerate_shortlex(3, 3) == [Partition((1, 1, 1))]
    assert enumerate_shortlex(1) == [] and enumerate_shortlex(1, 1) == [Partition((1,))]


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
def _shortlex_window(n: int, k: int) -> tuple[list[tuple[int, ...]], dict]:
    """The partitions of n with k or k + 1 parts in shortlex order, and each
    one's index. Shortlex lists every shorter partition first, so the
    successor of a k-part partition is in this window. Hypothesis draws many
    partitions with the same (n, k); each window is enumerated once."""
    window = partitions_with_parts(n, k) + partitions_with_parts(n, k + 1)
    return window, {parts: i for i, parts in enumerate(window)}


def test_windows_tile_the_shortlex_order():
    # the per-length oracle, concatenated, is the whole shortlex order
    for n in range(1, 16):
        tiled = [p for k in range(1, n + 1) for p in partitions_with_parts(n, k)]
        assert tiled == all_partitions(n, 1)


@st.composite
def partitions(draw):
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=7))
    return Partition(parts)


@given(partitions())
@settings(max_examples=200, deadline=None)
def test_successor_is_immediate_in_shortlex(alpha):
    step = shortlex_successor(alpha)
    window, index = _shortlex_window(alpha.n, len(alpha))
    idx = index[alpha.parts]
    if step is None:
        assert idx == len(window) - 1
    else:
        assert window[idx + 1] == step[0].parts


def test_parse_partition_sorts():
    assert parse_partition("1,2,3").parts == (1, 2, 3)
    assert parse_partition("3, 1, 2").parts == (1, 2, 3)


@pytest.mark.parametrize("bad", ["", "1,,2", "a,b", "1:2", "1, ,3"])
def test_parse_partition_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)
