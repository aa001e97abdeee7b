import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starwalk.trees import Graph, make_path, make_starlike
from starwalk.walks import (
    all_walk_counts,
    brute_force_closed_walks,
    closed_walk_counts,
    closed_walk_counts_at,
)

from oracles import (
    charpoly_fraction_gauss,
    closed_walk_trace_dp,
    count_closed_walks_brute,
    newton_power_sums,
    prufer_to_edges,
)


def test_closed_walks_frozen_values():
    star = make_starlike([1, 1, 1]).graph
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
    star = make_starlike([1, 1, 1]).graph
    assert all_walk_counts(star, 1).values == (4, 6)


def test_trees_have_m2_twice_edges_and_odd_zeros():
    for parts in [(1, 1, 1), (2, 3, 4), (1, 1, 2, 2)]:
        g = make_starlike(parts).graph
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
    g = make_starlike([1, 2, 2]).graph
    total = closed_walk_counts(g, 12).values
    by_vertex = [closed_walk_counts_at(g, v, 12).values for v in range(g.n)]
    for k in range(13):
        assert sum(col[k] for col in by_vertex) == total[k]


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_closed_walks(make_path(9), 0, 4)
    with pytest.raises(ValueError):
        brute_force_closed_walks(make_path(4), 0, 11)
    with pytest.raises(ValueError):
        brute_force_closed_walks(make_path(4), 7, 4)


def test_dp_matches_brute_force_enumeration():
    graphs = [
        make_path(5),
        make_starlike([1, 1, 1]).graph,
        make_starlike([1, 2, 3]).graph,
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # C4: not a tree
    ]
    for g in graphs:
        for v in range(g.n):
            at = closed_walk_counts_at(g, v, 8).values
            for k in range(9):
                assert at[k] == brute_force_closed_walks(g, v, k)


def test_dp_matches_independent_oracle_brute():
    # second oracle route, shared-code-free
    g = make_starlike([2, 2, 2]).graph
    for v in range(g.n):
        at = closed_walk_counts_at(g, v, 7).values
        for k in range(8):
            assert at[k] == count_closed_walks_brute(list(g.adj), v, k)


def test_dp_matches_newton_power_sums_exactly():
    """Exact cross-check against the charpoly route (Fraction Gaussian
    elimination + Newton identities), no shared code with the DP."""
    graphs = [
        make_path(6),
        make_starlike([1, 2, 2]).graph,
        make_starlike([1, 1, 1, 2]).graph,
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
    ]
    for g in graphs:
        cp = charpoly_fraction_gauss(list(g.adj))
        assert closed_walk_counts(g, 25).values == tuple(newton_power_sums(cp, 25))


def test_packed_dp_wide_degree_and_long_horizon():
    # stress the limb-width bound: high degree star and K past 64-bit range
    star = make_starlike([1] * 9).graph
    seq = closed_walk_counts(star, 80).values
    assert seq[2] == 18
    # closed 2k-walks at a star's center are 9^k
    at = closed_walk_counts_at(star, 0, 80).values
    assert at[80] == 9**40
    assert seq[80] == 9**40 + 9 * 9**39  # center + 9 leaves
    assert seq[80] > 2**63  # genuinely out of fixed-width range


def test_newton_kernel_matches_trace_dp_oracle():
    cases = [
        (make_starlike([2, 3, 4]).graph, 400),
        (make_starlike(range(1, 8)).graph, 60),
        (make_starlike([20, 30, 40]).graph, 200),
        # a forest that is not a tree, and one that is not starlike
        (Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (3, 5), (5, 6)]), 40),
        (Graph.from_edges(9, prufer_to_edges((4, 4, 2, 7, 1, 1, 0))), 40),
        # K well below n: only the top of the charpoly is computed
        (make_starlike([20, 30, 40]).graph, 16),
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


def test_kinds_are_labeled():
    g = make_path(3)
    assert closed_walk_counts(g, 2).kind == "closed_total"
    assert closed_walk_counts_at(g, 0, 2).kind == "closed_at_vertex"
    assert all_walk_counts(g, 2).kind == "all_walks"
    obj = closed_walk_counts(g, 2).to_json_obj()
    assert obj == {"kind": "closed_total", "values": ["3", "0", "4"]}
