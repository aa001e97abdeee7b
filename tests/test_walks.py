import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starwalk.partitions import enumerate_shortlex
from starwalk.trees import Graph, enumerate_free_trees, make_path, make_starlike
from starwalk.walks import (
    _propagate,
    all_walk_counts,
    closed_walk_counts,
    closed_walk_counts_at,
    starlike_closed_walk_counts,
    starlike_even_walk_counts,
)

from oracles import (
    charpoly_fraction_gauss,
    closed_walk_trace_dp,
    count_closed_walks_brute,
    newton_power_sums,
    prufer_to_edges,
)


def test_closed_walks_frozen_values():
    star = make_starlike([1, 1, 1])
    assert closed_walk_counts(star, 4).values == (4, 0, 6, 0, 18)
    p4 = make_path(4)
    assert closed_walk_counts(p4, 6).values == (4, 0, 6, 0, 14, 0, 36)
    p3 = make_path(3)
    assert closed_walk_counts_at(p3, 0, 4).values == (1, 0, 1, 0, 2)
    assert closed_walk_counts_at(p4, 0, 4).values[4] == 2
    assert closed_walk_counts(p3, 6).values == (3, 0, 4, 0, 8, 0, 16)


def test_all_walks_frozen_values():
    p3 = make_path(3)
    seq = all_walk_counts(p3, 4)
    assert seq.values[0] == 3
    assert seq.values[1] == 4  # twice the edge count
    assert seq.values[2] == 6
    star = make_starlike([1, 1, 1])
    assert all_walk_counts(star, 1).values == (4, 6)


def test_trees_have_m2_twice_edges_and_odd_zeros():
    for parts in [(1, 1, 1), (2, 3, 4), (1, 1, 2, 2)]:
        g = make_starlike(parts)
        seq = closed_walk_counts(g, 9).values
        assert seq[2] == 2 * (g.n - 1)
        assert all(seq[k] == 0 for k in range(1, 10, 2))


def test_empty_and_trivial_graphs():
    empty = Graph.from_edges(0, [])
    assert closed_walk_counts(empty, 3).values == (0, 0, 0, 0)
    assert all_walk_counts(empty, 2).values == (0, 0, 0)
    single = make_path(1)
    assert closed_walk_counts(single, 3).values == (1, 0, 0, 0)
    assert closed_walk_counts_at(single, 0, 2).values == (1, 0, 0)
    edge = make_path(2)
    assert closed_walk_counts(edge, 5).values == (2, 0, 2, 0, 2, 0)


def test_per_vertex_counts_sum_to_trace():
    g = make_starlike([1, 2, 2])
    total = closed_walk_counts(g, 12).values
    by_vertex = [closed_walk_counts_at(g, v, 12).values for v in range(g.n)]
    for k in range(13):
        assert sum(col[k] for col in by_vertex) == total[k]


def test_dp_matches_brute_force_enumeration():
    graphs = [
        make_path(5),
        make_starlike([1, 1, 1]),
        make_starlike([1, 2, 3]),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # C4: not a tree
    ]
    for g in graphs:
        for v in range(g.n):
            at = closed_walk_counts_at(g, v, 8).values
            for k in range(9):
                assert at[k] == count_closed_walks_brute(list(g.adj), v, k)


def test_rooted_counts_through_the_charpoly_match_propagation():
    # every vertex of every free tree of order <= 9, at every horizon
    # K = 0..41, against the unit vector at v propagated step by step
    for n in range(1, 10):
        for g in enumerate_free_trees(n):
            for v in range(n):
                start = [0] * n
                start[v] = 1
                ref = tuple(x[v] for x in _propagate(g, start, 41))
                for k in range(42):
                    assert closed_walk_counts_at(g, v, k).values == ref[: k + 1], (g, v, k)


def test_rooted_counts_on_a_forest_read_only_their_tree():
    # the other trees divide out, a cycle anywhere takes the propagation
    forest = Graph.from_edges(9, [(2, 5), (5, 7), (7, 1), (5, 0), (3, 4), (6, 8)])
    with_cycle = Graph.from_edges(9, [*forest.edges(), (3, 6), (4, 8)])
    for g in (forest, with_cycle):
        for v in range(g.n):
            at = closed_walk_counts_at(g, v, 9).values
            assert at == tuple(count_closed_walks_brute(list(g.adj), v, k) for k in range(10))


def test_dp_matches_independent_oracle_brute():
    g = make_starlike([2, 2, 2])
    for v in range(g.n):
        at = closed_walk_counts_at(g, v, 7).values
        for k in range(8):
            assert at[k] == count_closed_walks_brute(list(g.adj), v, k)


def test_dp_matches_newton_power_sums_exactly():
    """Exact cross-check against the charpoly route (Fraction Gaussian
    elimination + Newton identities), no shared code with the DP."""
    graphs = [
        make_path(6),
        make_starlike([1, 2, 2]),
        make_starlike([1, 1, 1, 2]),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
    ]
    for g in graphs:
        cp = charpoly_fraction_gauss(list(g.adj))
        assert closed_walk_counts(g, 25).values == tuple(newton_power_sums(cp, 25))


def test_packed_dp_wide_degree_and_long_horizon():
    # stress the limb-width bound: high degree star and K past 64-bit range
    star = make_starlike([1] * 9)
    seq = closed_walk_counts(star, 80).values
    assert seq[2] == 18
    # closed 2k-walks at a star's center are 9^k
    at = closed_walk_counts_at(star, 0, 80).values
    assert at[80] == 9**40
    assert seq[80] == 9**40 + 9 * 9**39  # center + 9 leaves
    assert seq[80] > 2**63  # genuinely out of fixed-width range


def test_newton_kernel_matches_trace_dp_oracle():
    cases = [
        (make_starlike([2, 3, 4]), 400),
        (make_starlike(range(1, 8)), 60),
        (make_starlike([20, 30, 40]), 200),
        # a forest that is not a tree, and one that is not starlike
        (Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (3, 5), (5, 6)]), 40),
        (Graph.from_edges(9, prufer_to_edges((4, 4, 2, 7, 1, 1, 0))), 40),
        # K well below n: only the top of the charpoly is computed
        (make_starlike([20, 30, 40]), 16),
        (Graph.from_edges(40, [(i, i + 1) for i in range(37)] + [(1, 38), (35, 39)]), 13),
    ]
    for g, max_k in cases:
        expected = tuple(closed_walk_trace_dp(list(g.adj), max_k))
        assert closed_walk_counts(g, max_k).values == expected


def test_cyclic_graph_matches_trace_dp_oracle():
    # a 5-cycle with one chord (one triangle) and a pendant path: odd closed
    # walks exist, so this takes the per-vertex route
    g = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (4, 5), (5, 6)]
    )
    seq = closed_walk_counts(g, 30).values
    assert seq == tuple(closed_walk_trace_dp(list(g.adj), 30))
    assert seq[3] == 6


def test_packed_trace_on_complete_graphs_past_64_bits():
    # K_n has eigenvalues n - 1 once and -1 n - 1 times; its entries of A^k
    # come within a factor n of the limb bound, and past 2^64 here
    for n, max_k in ((3, 130), (4, 90), (7, 50), (12, 40)):
        g = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
        seq = closed_walk_counts(g, max_k).values
        assert seq == tuple((n - 1) ** k + (n - 1) * (-1) ** k for k in range(max_k + 1))
    assert seq[-1] > 2**64


@given(st.integers(3, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_packed_trace_matches_trace_dp_on_random_cyclic_graphs(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    edges = {tuple(sorted(uv)) for uv in prufer_to_edges(seq)}
    # one to n extra edges, at least one of them new: a cycle
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    extra = data.draw(st.lists(pairs.filter(lambda uv: uv[0] != uv[1]), min_size=1, max_size=n))
    edges |= {tuple(sorted(uv)) for uv in extra}
    assume(len(edges) > n - 1)
    g = Graph.from_edges(n, sorted(edges))
    max_k = data.draw(st.integers(0, 3 * n))
    expected = tuple(closed_walk_trace_dp(list(g.adj), max_k))
    assert closed_walk_counts(g, max_k).values == expected


@given(st.integers(2, 14), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_walk_counts_match_trace_dp_on_random_forests(n, data):
    # K from 0 to 3n covers odd K, K < n, where the charpoly top is cut
    # short, and K > n, where Newton's steps run past a_n
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    edges = prufer_to_edges(seq)
    # drop a random subset of edges: a forest, or the whole tree
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [e for e, kept in zip(edges, keep) if kept]
    g = Graph.from_edges(n, edges)
    max_k = data.draw(st.integers(0, 3 * n))
    expected = tuple(closed_walk_trace_dp(list(g.adj), max_k))
    assert closed_walk_counts(g, max_k).values == expected


@given(st.integers(3, 10), st.data())
@settings(max_examples=40, deadline=None)
def test_random_tree_walk_invariants(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    g = Graph.from_edges(n, prufer_to_edges(seq))
    K = 14
    total = closed_walk_counts(g, K).values
    assert total[0] == n
    assert total[2] == 2 * (n - 1)
    assert all(total[k] == 0 for k in range(1, K + 1, 2))
    per_vertex = [closed_walk_counts_at(g, v, K).values for v in range(n)]
    assert all(
        sum(col[k] for col in per_vertex) == total[k] for k in range(K + 1)
    )
    walks = all_walk_counts(g, K).values
    assert walks[1] == 2 * (n - 1)
    # Cauchy-Schwarz on walk vectors: W_{a+b}^2 <= W_{2a} W_{2b}
    for a in range(1, 5):
        for b in range(a, 5):
            assert walks[a + b] ** 2 <= walks[2 * a] * walks[2 * b]
    assert all(total[k] <= walks[k] for k in range(K + 1))


def test_starlike_chain_counts_match_the_trees_in_any_order():
    # every starlike tree of orders 4..16, paths and two-branch trees
    # included: the shortlex chain shares long prefixes, a shuffle shares
    # few, and repeats share everything with their predecessor
    rng = random.Random(9)
    for n in range(4, 17):
        chain = enumerate_shortlex(n - 1, min_parts=1)
        shuffled = rng.sample(chain, len(chain))
        repeated = [pi for pi in chain for _ in range(1 + pi.parts[-1] % 2)]
        for max_k in (0, 1, 7, 40, 3 * n):
            expected = {pi: closed_walk_counts(make_starlike(pi), max_k).values for pi in chain}
            for order in (chain, shuffled, repeated):
                got = starlike_closed_walk_counts(order, max_k)
                assert got == [expected[pi] for pi in order], (n, max_k)
    # orders mixed in one chain, plain tuples in any part order
    mixed = [(3, 1), (1, 1, 1), (1, 1, 1, 1), (2,), (1, 3), (1, 1)]
    expected = [closed_walk_counts(make_starlike(p), 12).values for p in mixed]
    assert starlike_closed_walk_counts(mixed, 12) == expected


def test_starlike_even_counts_are_the_even_entries():
    # every odd closed-walk count of a tree is 0, at odd and even horizons
    chain = [pi.parts for n in range(2, 12) for pi in enumerate_shortlex(n - 1, min_parts=1)]
    for max_k in (0, 1, 2, 7, 40):
        full = starlike_closed_walk_counts(chain, max_k)
        even = starlike_even_walk_counts(chain, max_k)
        assert even == [counts[::2] for counts in full], max_k
        assert all(not any(counts[1::2]) for counts in full)
    with pytest.raises(ValueError):
        starlike_even_walk_counts([(1, 2)], -1)


def test_starlike_chain_counts_reject_bad_input():
    with pytest.raises(ValueError):
        starlike_closed_walk_counts([(1, 2)], -1)
    with pytest.raises(ValueError):
        starlike_closed_walk_counts([(1, 2), (1, 0)], 4)
    assert starlike_closed_walk_counts([], 4) == []
