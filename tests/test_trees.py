import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starwalk.partitions import Partition
from starwalk.trees import (
    CycleError,
    Graph,
    attach_paths,
    canonical_code,
    coalescence,
    enumerate_free_trees,
    is_connected,
    is_starlike,
    is_tree,
    make_path,
    make_starlike,
    parse_branches,
    parse_edge_list,
    rooted_forest,
    starlike_branches,
    tree_centers,
)

from oracles import canonical_code_nested, prufer_to_edges, tree_centers_peeling

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
    g = make_starlike([1, 2, 3])
    assert g.n == 7
    # the center is vertex 0; branches occupy 1 | 2,3 | 4,5,6 with the
    # center-adjacent vertex first
    assert g.adj[0] == (1, 2, 4)
    assert g.adj[3] == (2,)
    assert g.adj[6] == (5,)
    assert is_tree(g)


def test_make_starlike_sorts_branches():
    g = make_starlike([3, 1, 2])
    assert g == make_starlike([1, 2, 3])
    assert starlike_branches(g).parts == (1, 2, 3)


def test_starlike_degenerates_to_path():
    for spec in [(3,), (1, 2)]:
        g = make_starlike(spec)
        assert canonical_code(g) == canonical_code(make_path(g.n))


def test_coalescence_of_two_paths_at_ends_is_path():
    g = coalescence(make_path(3), 2, make_path(3), 0)
    assert g.n == 5
    assert g.edge_count == 4
    assert canonical_code(g) == canonical_code(make_path(5))


def test_coalescence_preserves_host_labels():
    star = make_starlike([1, 1, 1])
    g = coalescence(star, 1, make_path(2), 0)
    assert g.n == 5
    assert g.adj[0] == (1, 2, 3)  # center untouched
    assert g.degree(1) == 2


def test_coalescence_range_errors():
    with pytest.raises(ValueError):
        coalescence(make_path(2), 5, make_path(2), 0)
    with pytest.raises(ValueError):
        coalescence(make_path(2), 0, make_path(2), -1)


def test_attach_paths_builds_starlike():
    # a single vertex with two pendent paths is just a path
    g = attach_paths(make_path(1), 0, (2, 3))
    assert canonical_code(g) == canonical_code(make_path(6))
    # attaching at an interior path vertex gives a 3-branch starlike tree
    h = attach_paths(make_path(5), 2, (3, 1))
    assert starlike_branches(h) is not None
    assert starlike_branches(h).parts == (1, 2, 2, 3)
    # zero-length attachments are no-ops
    same = attach_paths(make_path(4), 1, (0, 0))
    assert same.n == 4 and same.edges() == make_path(4).edges()
    # a starlike tree is its branches attached to a lone center
    assert make_starlike((3, 1, 2)) == attach_paths(make_path(1), 0, (1, 2, 3))
    with pytest.raises(ValueError):
        attach_paths(make_path(2), 2, (1,))
    with pytest.raises(ValueError):
        attach_paths(make_path(2), 0, (1, -1))


@pytest.mark.parametrize(
    "g, u, lengths",
    [
        (make_path(1), 0, (2, 0, 3)),
        (make_path(4), 1, (0,)),
        (make_path(5), 2, (3, 1, 1)),
        (make_starlike((1, 2, 2)), 3, (0, 2, 0, 4)),
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), 2, (1, 2)),
        (make_path(3), 0, ()),
    ],
)
def test_attach_paths_is_successive_coalescence_with_paths(g, u, lengths):
    # the same graph, vertex numbering included, as gluing each path's end at u
    glued = g
    for length in lengths:
        glued = coalescence(glued, u, make_path(length + 1), 0)
    assert attach_paths(g, u, lengths) == glued


def test_tree_centers():
    assert tree_centers(make_path(5)) == (2,)
    assert tree_centers(make_path(6)) == (2, 3)
    assert tree_centers(make_starlike([2, 2, 2])) == (0,)
    assert tree_centers(make_path(1)) == (0,)
    assert tree_centers(make_path(2)) == (0, 1)


def test_tree_centers_match_leaf_peeling():
    # every free tree of orders 1..12, then random labelled trees of up to
    # 400 vertices, whose longest paths run through arbitrary labels
    for n in range(1, 13):
        for g in enumerate_free_trees(n):
            assert tree_centers(g) == tree_centers_peeling(list(g.adj)), g
    rng = random.Random(28)
    for _ in range(200):
        n = rng.randrange(3, 401)
        g = Graph.from_edges(n, prufer_to_edges(tuple(rng.randrange(n) for _ in range(n - 2))))
        assert tree_centers(g) == tree_centers_peeling(list(g.adj)), g.edges()
    with pytest.raises(ValueError, match="trees only"):
        tree_centers(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))


def test_is_connected_with_cycles():
    # a walk must not count a vertex twice when a cycle brings it back
    tailed = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert is_connected(tailed)
    two = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_connected(two)
    # same edge count as a tree on 6 vertices, but a triangle and a path
    split = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
    assert not is_connected(split) and not is_tree(split)
    assert is_connected(make_path(1)) and not is_connected(make_path(0))


def test_rooted_forest_finds_a_cycle_in_any_component():
    # n minus the component count edges make a forest; a triangle beside an
    # edge and an isolated vertex has one more
    with pytest.raises(CycleError, match="forests only"):
        rooted_forest(Graph.from_edges(6, [(0, 1), (3, 4), (4, 5), (5, 3)]))
    order, parent = rooted_forest(Graph.from_edges(6, [(0, 1), (3, 4), (4, 5)]))
    assert order == [0, 1, 2, 3, 4, 5]
    assert parent == [-1, 0, -1, -1, 3, 4]


def test_canonical_code_is_label_invariant():
    star = make_starlike([1, 2, 2])
    # relabel by reversing vertex ids
    n = star.n
    remap = Graph.from_edges(n, [(n - 1 - u, n - 1 - v) for u, v in star.edges()])
    assert canonical_code(star) == canonical_code(remap)
    assert canonical_code(star) != canonical_code(make_starlike([1, 1, 3]))


def test_starlike_detection_and_branch_recovery():
    for parts in [(1, 1, 1), (1, 2, 3), (2, 2, 2, 5)]:
        g = make_starlike(parts)
        assert is_starlike(g)
        assert starlike_branches(g).parts == parts
    assert starlike_branches(make_path(6)).parts == (5,)
    two = make_starlike([2, 2])  # a path in disguise
    assert is_starlike(two)
    # double star: two adjacent degree-3 vertices is not starlike
    double = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (5, 6), (3, 7)])
    assert not is_starlike(double)


def _starlike_by_definition(g):
    return is_tree(g) and sum(1 for v in range(g.n) if g.degree(v) >= 3) <= 1


def _assert_recognizer_matches_definition(g):
    branches = starlike_branches(g)
    starlike = _starlike_by_definition(g)
    assert is_starlike(g) == starlike
    if starlike and g.n >= 2:
        assert branches is not None and branches.n == g.n - 1
        assert canonical_code(make_starlike(branches)) == canonical_code(g)
    else:
        assert branches is None


@pytest.mark.parametrize("n", range(0, 6))
def test_starlike_recognizer_on_every_graph(n):
    # every labeled graph on n <= 5 vertices: forests, trees, graphs with
    # cycles, disconnected graphs with n - 1 edges
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        _assert_recognizer_matches_definition(Graph.from_edges(n, edges))


def test_starlike_recognizer_on_random_forests_and_cycles():
    rng = random.Random(8)
    for _ in range(1500):
        n = rng.randint(6, 10)
        edges = prufer_to_edges(tuple(rng.randrange(n) for _ in range(n - 2)))
        action = rng.randrange(3)
        if action == 0:  # a forest: drop an edge, keep the count at n - 2
            edges.pop(rng.randrange(len(edges)))
        elif action == 1:  # one cycle: swap an edge for a chord, n - 1 edges
            edges.pop(rng.randrange(len(edges)))
            missing = [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in edges and (v, u) not in edges
            ]
            edges.append(rng.choice(missing))
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        _assert_recognizer_matches_definition(g)


@pytest.mark.parametrize("n", range(1, 11))
def test_starlike_recognizer_on_every_free_tree(n):
    for g in enumerate_free_trees(n):
        _assert_recognizer_matches_definition(g)


@pytest.mark.parametrize("n", range(1, 13))
def test_free_tree_census_counts(n):
    trees = enumerate_free_trees(n)
    assert len(trees) == TREE_COUNTS[n - 1]
    codes = {canonical_code(t) for t in trees}
    assert len(codes) == len(trees)
    assert all(is_tree(t) and t.n == n for t in trees)


@pytest.mark.parametrize("n", range(1, 13))
def test_census_order_matches_the_nested_tuple_oracle(n):
    """The census sorts by the flat codes; the nested-tuple codes of the
    same trees come out strictly increasing in that order too."""
    codes = [canonical_code_nested(t.adj) for t in enumerate_free_trees(n)]
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_canonical_codes_compare_as_the_nested_tuple_oracle():
    rng = random.Random(29)
    trees = []
    for _ in range(300):
        n = rng.randint(1, 40)
        edges = prufer_to_edges(tuple(rng.randrange(n) for _ in range(n - 2))) if n > 1 else []
        trees.append(Graph.from_edges(n, edges))
    flat = [canonical_code(t) for t in trees]
    nested = [canonical_code_nested(t.adj) for t in trees]
    for i in range(len(trees)):
        for j in range(i):
            assert (flat[i] < flat[j], flat[i] == flat[j]) == (
                nested[i] < nested[j], nested[i] == nested[j]
            )


def test_canonical_code_of_deep_trees():
    """The codes are built leaves first, with no recursion per level."""
    half = "1" * 750 + "0" * 750
    assert canonical_code(make_path(1500)) == "e" + half + half
    g = make_starlike((1, 1, 2000))
    code = canonical_code(g)
    assert code.startswith("e") and len(code) == 2 * g.n + 1


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


def test_parse_branches():
    assert parse_branches("S(1,2,3)").parts == (1, 2, 3)
    assert parse_branches("S(3,1,2)").parts == (1, 2, 3)
    assert make_starlike(parse_branches(" S(3) ")).n == 4
    for bad in ["S()", "S(1,,2)", "P(3)", "1,2,3", "S(1,2", "S(0,2,2)"]:
        with pytest.raises(ValueError):
            parse_branches(bad)


def test_edge_list_round_trip():
    g = make_starlike([2, 2, 3])
    text = "\n".join(f"{u} {v}" for u, v in g.edges())
    back = parse_edge_list(text)
    assert back == g
    with_comments = "# a path\n0 1\n\n1 2  # tail\n"
    assert parse_edge_list(with_comments) == make_path(3)
    for bad in ["0", "0 1 2", "x y", "-1 0", "0 1\n3 4"]:
        with pytest.raises(ValueError):
            parse_edge_list(bad)


def test_partition_type_accepted_directly():
    assert make_starlike(Partition([2, 3])) == make_starlike([3, 2])
