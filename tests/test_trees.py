import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starwalk.partitions import Partition
from starwalk.trees import (
    Graph,
    attach_two_paths,
    canonical_code,
    coalescence,
    enumerate_free_trees,
    format_edge_list,
    is_starlike,
    is_tree,
    make_path,
    make_starlike,
    parse_edge_list,
    parse_tree_spec,
    starlike_branches,
    tree_centers,
)

from oracles import prufer_to_edges

# isomorphism class counts of trees on n vertices, n = 1..12
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    g = Graph.from_edges(3, [(2, 0)])
    assert g.adj == ((2,), (), (0,))


def test_make_path_shape():
    g = make_path(4)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert make_path(1).edges() == []
    assert make_path(0).n == 0


def test_make_starlike_layout():
    t = make_starlike([1, 2, 3])
    assert t.n == 7
    assert t.center == 0
    # branches occupy 1 | 2,3 | 4,5,6 with the center-adjacent vertex first
    assert t.graph.adj[0] == (1, 2, 4)
    assert t.graph.adj[3] == (2,)
    assert t.graph.adj[6] == (5,)
    assert t.branch_roots() == (1, 2, 4)
    assert is_tree(t.graph)


def test_make_starlike_sorts_branches():
    t = make_starlike([3, 1, 2])
    assert t.branches.parts == (1, 2, 3)


def test_starlike_degenerates_to_path():
    for spec in [(3,), (1, 2)]:
        t = make_starlike(spec)
        assert canonical_code(t.graph) == canonical_code(make_path(t.n))


def test_coalescence_of_two_paths_at_ends_is_path():
    g = coalescence(make_path(3), 2, make_path(3), 0)
    assert g.n == 5
    assert g.edge_count == 4
    assert canonical_code(g) == canonical_code(make_path(5))


def test_coalescence_preserves_host_labels():
    star = make_starlike([1, 1, 1])
    g = coalescence(star.graph, 1, make_path(2), 0)
    assert g.n == 5
    assert g.adj[0] == (1, 2, 3)  # center untouched
    assert g.degree(1) == 2


def test_coalescence_range_errors():
    with pytest.raises(ValueError):
        coalescence(make_path(2), 5, make_path(2), 0)
    with pytest.raises(ValueError):
        coalescence(make_path(2), 0, make_path(2), -1)


def test_attach_two_paths_builds_starlike():
    # a single vertex with two pendent paths is just a path
    g = attach_two_paths(make_path(1), 0, 2, 3)
    assert canonical_code(g) == canonical_code(make_path(6))
    # attaching at an interior path vertex gives a 3-branch starlike tree
    h = attach_two_paths(make_path(5), 2, 3, 1)
    assert starlike_branches(h) is not None
    assert starlike_branches(h).parts == (1, 2, 2, 3)
    # zero-length attachments are no-ops
    same = attach_two_paths(make_path(4), 1, 0, 0)
    assert same.n == 4 and same.edges() == make_path(4).edges()


def test_tree_centers():
    assert tree_centers(make_path(5)) == (2,)
    assert tree_centers(make_path(6)) == (2, 3)
    assert tree_centers(make_starlike([2, 2, 2]).graph) == (0,)
    assert tree_centers(make_path(1)) == (0,)
    assert tree_centers(make_path(2)) == (0, 1)


def test_canonical_code_is_label_invariant():
    star = make_starlike([1, 2, 2])
    # relabel by reversing vertex ids
    n = star.n
    remap = Graph.from_edges(n, [(n - 1 - u, n - 1 - v) for u, v in star.graph.edges()])
    assert canonical_code(star.graph) == canonical_code(remap)
    assert canonical_code(star.graph) != canonical_code(make_starlike([1, 1, 3]).graph)


def test_starlike_detection_and_branch_recovery():
    for parts in [(1, 1, 1), (1, 2, 3), (2, 2, 2, 5)]:
        t = make_starlike(parts)
        assert is_starlike(t.graph)
        assert starlike_branches(t.graph).parts == parts
    assert starlike_branches(make_path(6)).parts == (5,)
    two = make_starlike([2, 2]).graph  # a path in disguise
    assert is_starlike(two)
    # double star: two adjacent degree-3 vertices is not starlike
    double = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (5, 6), (3, 7)])
    assert not is_starlike(double)


@pytest.mark.parametrize("n", range(1, 13))
def test_free_tree_census_counts(n):
    trees = enumerate_free_trees(n)
    assert len(trees) == TREE_COUNTS[n - 1]
    codes = {canonical_code(t) for t in trees}
    assert len(codes) == len(trees)
    assert all(is_tree(t) and t.n == n for t in trees)


def test_free_tree_census_cap():
    with pytest.raises(ValueError):
        enumerate_free_trees(13)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(3, 9))
def test_census_complete_against_prufer(n):
    """Exhaustive Pruefer decode covers every labeled tree; its canonical
    codes must coincide with the census exactly."""
    census = {canonical_code(t) for t in enumerate_free_trees(n)}
    seen = set()
    seq = [0] * (n - 2)
    while True:
        g = Graph.from_edges(n, prufer_to_edges(tuple(seq)))
        seen.add(canonical_code(g))
        i = len(seq) - 1
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            break
        seq[i] += 1
    assert seen == census


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_census_covers_random_prufer_trees(n):
    census = {canonical_code(t) for t in enumerate_free_trees(n)}
    rng = random.Random(n)
    for _ in range(4000):
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        g = Graph.from_edges(n, prufer_to_edges(seq))
        assert canonical_code(g) in census


@given(st.integers(3, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_prufer_decode_always_yields_tree(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    g = Graph.from_edges(n, prufer_to_edges(seq))
    assert is_tree(g)


def test_parse_tree_spec():
    t = parse_tree_spec("S(1,2,3)")
    assert t.branches.parts == (1, 2, 3)
    assert parse_tree_spec(" S(3) ").n == 4
    for bad in ["S()", "S(1,,2)", "P(3)", "1,2,3", "S(1,2", "S(0,2,2)"]:
        with pytest.raises(ValueError):
            parse_tree_spec(bad)


def test_edge_list_round_trip():
    t = make_starlike([2, 2, 3])
    text = format_edge_list(t.graph)
    back = parse_edge_list(text)
    assert back == t.graph
    with_comments = "# a path\n0 1\n\n1 2  # tail\n"
    assert parse_edge_list(with_comments) == make_path(3)
    for bad in ["0", "0 1 2", "x y", "-1 0"]:
        with pytest.raises(ValueError):
            parse_edge_list(bad)


def test_partition_type_accepted_directly():
    t = make_starlike(Partition([2, 3]))
    assert t.branches.parts == (2, 3)
