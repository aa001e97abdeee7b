import pytest

import starwalk.spectra as spectra
from starwalk import poly
from starwalk.poly import (
    CycleError,
    _schwenk_series,
    _starlike_series,
    charpoly,
    charpoly_top,
    rooted_forest,
    starlike_charpoly,
)
from starwalk.trees import Graph, enumerate_free_trees, make_path, make_starlike

from oracles import all_partitions, charpoly_fraction_gauss


def _starlike_trees(max_n):
    """(branches, graph) for every starlike tree on 1..max_n vertices,
    paths and the one- and two-vertex trees included."""
    yield (), make_path(1)
    for n in range(2, max_n + 1):
        for parts in all_partitions(n - 1):
            yield parts, make_starlike(parts)


def test_starlike_closed_form_matches_schwenk():
    for parts, g in _starlike_trees(12):
        for terms in (1, 2, 3, g.n // 2 + 1):
            assert _starlike_series(parts, terms) == _schwenk_series(g, terms), (parts, terms)
        # charpoly takes the closed form; zero-pad Schwenk's series to n // 2 + 1
        full = _schwenk_series(g, g.n // 2 + 1)
        assert list(charpoly(g).coeffs[g.n :: -2]) == full + [0] * (g.n // 2 + 1 - len(full))
        assert starlike_charpoly(parts) == charpoly(g), parts


def test_starlike_closed_form_matches_gauss_oracle():
    for parts, g in _starlike_trees(8):
        assert list(charpoly(g).coeffs) == charpoly_fraction_gauss(list(g.adj)), parts


def test_top_coefficients_are_a_prefix_of_the_full_charpoly():
    # free trees (starlike or not) and a forest that is not a tree
    graphs = [g for n in range(1, 11) for g in enumerate_free_trees(n)]
    graphs.append(Graph.from_edges(9, [(0, 1), (2, 3), (3, 4), (3, 5), (5, 6), (7, 8)]))
    for g in graphs:
        full = list(charpoly(g).coeffs[g.n :: -2])
        assert charpoly_top(g, g.n) == full
        for terms in range(1, len(full) + 1):
            assert charpoly_top(g, terms) == full[:terms]


def test_cycle_is_rejected():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError):
        charpoly_top(triangle, 2)
    with pytest.raises(ValueError, match="forests only"):
        charpoly(triangle)


def test_rooted_forest_lists_parents_first():
    # two components and an isolated vertex; each is rooted at its least vertex
    g = Graph.from_edges(8, [(3, 1), (1, 5), (1, 0), (4, 2), (6, 4)])
    order, parent = rooted_forest(g)
    assert sorted(order) == list(range(8))
    assert [v for v in order if parent[v] < 0] == [0, 2, 7]
    for v in order:
        if parent[v] >= 0:
            assert order.index(parent[v]) < order.index(v)
            assert parent[v] in g.adj[v]
    with pytest.raises(CycleError):
        rooted_forest(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)]))


def test_spectra_reexports_the_polynomial_layer():
    # the bench tracer wraps these through spectra
    for name in ("IntPolynomial", "charpoly", "path_charpoly"):
        assert getattr(spectra, name) is getattr(poly, name)
