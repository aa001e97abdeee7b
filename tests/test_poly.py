import hashlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starwalk.spectra as spectra
from starwalk import poly
from starwalk.poly import (
    IntPolynomial,
    _schwenk_series,
    _starlike_series,
    _unpack,
    charpoly,
    charpoly_top,
    rooted_series,
    starlike_charpoly,
    starlike_series,
)
from starwalk.trees import (
    CycleError,
    Graph,
    enumerate_free_trees,
    make_path,
    make_starlike,
    rooted_forest,
)

from oracles import (
    all_partitions,
    charpoly_fraction_gauss,
    dyadic_horner,
    forest_series_lists,
    horner,
    prufer_to_edges,
    starlike_series_lists,
    unpack_by_bytes,
)


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


def _grow_chain(steps):
    """Each branch list is the one before cut to its first `keep` branches
    and extended by `tail`: shared prefixes, repeats (a full prefix and no
    tail), lists in any part order, empty lists (one vertex), mixed orders."""
    chain, prev = [], ()
    for keep, tail in steps:
        prev = prev[:keep] + tuple(tail)
        chain.append(prev)
    return chain


_chains = st.lists(
    st.tuples(st.integers(0, 5), st.lists(st.integers(1, 9), max_size=4)),
    min_size=1, max_size=10,
).map(_grow_chain)


@given(_chains)
@settings(max_examples=150, deadline=None)
def test_packed_starlike_fold_matches_the_list_fold(chain):
    n = max(sum(parts) + 1 for parts in chain)
    for terms in range(1, n // 2 + 2):
        expected = list(starlike_series_lists(chain, terms))
        assert list(starlike_series(chain, terms)) == expected, terms


@given(st.data(), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_packed_forest_fold_matches_the_list_fold(data, n):
    # parent -1 starts a new component; relabelled, so roots are anywhere
    parents = [data.draw(st.integers(-1, v - 1)) for v in range(n)]
    label = data.draw(st.permutations(range(n)))
    g = Graph.from_edges(n, [(label[v], label[u]) for v, u in enumerate(parents) if u >= 0])
    for terms in range(1, n // 2 + 2):
        assert charpoly_top(g, terms) == forest_series_lists(list(g.adj), terms), terms


def test_limb_width_holds_at_the_extremes():
    # the path maximizes the matching counts on n vertices, and its largest
    # one is within a few bits of the limb bound; the star has the fewest
    for n in range(1, 301):
        path = [(-1) ** j * comb(n - j, j) for j in range(n // 2 + 1)]
        assert charpoly_top(make_path(n), n // 2 + 1) == path, n
        assert _starlike_series((1,) * (n - 1), n // 2 + 1) == [1, 1 - n][: n // 2 + 1], n
    # a large random tree, cut far below its order
    rng = random.Random(13)
    big = Graph.from_edges(1000, prufer_to_edges(tuple(rng.randrange(1000) for _ in range(998))))
    assert charpoly_top(big, 26) == forest_series_lists(list(big.adj), 26)


def test_unpack_matches_the_byte_oracle():
    # 17 limbs is the first count split in halves; 136 and 1 201 split down
    # to halves of odd length, so some high halves start at an odd limb and
    # must carry the sign of their place in the whole
    rng = random.Random(34)
    for limb in range(8, 201, 8):
        for count in (1, 16, 17, 136, 1201):
            counts = [rng.getrandbits(limb) if rng.random() < 0.7 else 0 for _ in range(count)]
            counts[0] = counts[min(1, count - 1)] = 0  # zero limbs at the bottom
            counts[-1] |= 1  # the top limb is the last nonzero one
            packed = sum(c << j * limb for j, c in enumerate(counts))
            assert _unpack(packed, limb) == unpack_by_bytes(packed, limb), (limb, count)
    assert _unpack(0, 8) == unpack_by_bytes(0, 8) == []


def test_large_starlike_charpoly_keeps_its_digest():
    # S(790,800,810), n = 2 401: its top series unpacks from 1 201 limbs
    coeffs = starlike_charpoly((790, 800, 810)).coeffs
    assert len(coeffs) == 2402
    digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
    assert digest == "c295feadc83720dd9883db04a959427feae8162b0fab0f180fe181561a128094"


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
    # the component of `first` comes first, rooted at it
    order, parent = rooted_forest(g, 5)
    assert order[:4] == [5, 1, 0, 3] and [v for v in order if parent[v] < 0] == [5, 2, 7]
    assert rooted_forest(Graph.from_edges(0, [])) == ([], [])


def test_rooted_series_reads_the_tree_of_its_vertex():
    # a star K_{1,3} centered at 1, the path 2-4-6 and the lone vertex 7:
    # phi of v's tree and of that tree less v, up to the last nonzero term
    g = Graph.from_edges(8, [(3, 1), (1, 5), (1, 0), (4, 2), (6, 4)])
    assert rooted_series(g, 1, 5) == ([1, -3], [1])
    assert rooted_series(g, 5, 5) == ([1, -3], [1, -2])
    assert rooted_series(g, 4, 5) == ([1, -2], [1])
    assert rooted_series(g, 6, 5) == ([1, -2], [1, -1])
    assert rooted_series(g, 7, 5) == ([1], [1])
    assert rooted_series(g, 5, 1) == ([1], [1])
    with pytest.raises(CycleError):
        rooted_series(Graph.from_edges(4, [(0, 1), (2, 3), (3, 1), (1, 2)]), 0, 3)


def test_spectra_reexports_the_polynomial_layer():
    # the bench tracer wraps the charpolys and the Sturm chain through
    # spectra and patches IntPolynomial.sign_at there; the radius comparison
    # takes poly_gcd. Each must be the poly object itself
    names = (
        "IntPolynomial", "charpoly", "path_charpoly", "starlike_charpoly_factored",
        "sturm_chain", "poly_gcd",
    )
    for name in names:
        assert getattr(spectra, name) is getattr(poly, name), name


# ---------------------------------------------------------------------------
# evaluation in x^2: every forest charpoly has zeros at the odd offsets from
# its top coefficient, and dyadic_value (which sign_at reads) then runs Horner on half


def _random_forest(data, n):
    """A forest on n vertices: a Pruefer tree, with some edges dropped."""
    if n < 2:
        return Graph.from_edges(n, [])
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    edges = prufer_to_edges(seq)
    keep = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return Graph.from_edges(n, [e for e, k in zip(edges, keep) if k])


def _check_evaluations(p, num, exp):
    x = Fraction(num, 1 << exp)
    v = horner(p.coeffs, x)
    assert p.dyadic_value(num, exp) == v * (1 << (exp * max(p.degree, 0)))
    assert p.sign_at(x) == (v > 0) - (v < 0)
    # a point that is not dyadic has no dyadic_value to read
    with pytest.raises(ValueError):
        p.sign_at(Fraction(3 * num + 1, 3 << exp))


@given(
    st.data(),
    st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)),
    st.integers(-(1 << 64), 1 << 64),
    st.integers(0, 200),
)
@settings(max_examples=150, deadline=None)
def test_half_horner_agrees_with_horner_on_forest_charpolys(data, n, num, exp):
    p = charpoly(_random_forest(data, n))
    assert p.degree == n
    assert p._stride == 2
    _check_evaluations(p, num, exp)
    _check_evaluations(p, -abs(num) - 1, exp)


@given(
    st.data(),
    st.integers(1, 30),
    st.integers(-(1 << 64), 1 << 64),
    st.integers(0, 200),
)
@settings(max_examples=100, deadline=None)
def test_odd_offset_coefficient_falls_back_to_every_coefficient(data, n, num, exp):
    coeffs = list(charpoly(_random_forest(data, n)).coeffs)
    offset = data.draw(st.integers(0, (n - 1) // 2)) * 2 + 1  # odd, <= n
    coeffs[n - offset] += data.draw(st.sampled_from([-3, -1, 1, 2]))
    p = IntPolynomial(coeffs)
    assert p._stride == 1
    _check_evaluations(p, num, exp)


@given(
    st.data(),
    st.integers(-1, 300),
    st.booleans(),
    st.one_of(st.just(0), st.integers(-(1 << 80), 1 << 80)),
    st.integers(0, 300),
)
@settings(max_examples=200, deadline=None)
def test_dyadic_value_matches_horner_with_shifts(data, degree, even, num, exp):
    # binary splitting sums the terms of one Horner loop: degree -1 (the
    # zero polynomial) up to 300, so one block or up to 16 of them, both
    # strides, zero and negative numerators
    coeffs = data.draw(
        st.lists(st.integers(-(1 << 64), 1 << 64), min_size=degree + 1, max_size=degree + 1)
    )
    coeffs = list(IntPolynomial(coeffs).coeffs)
    if even:
        top = len(coeffs) - 1
        coeffs = [0 if (top - i) % 2 else c for i, c in enumerate(coeffs)]
    p = IntPolynomial(coeffs)
    assert p._stride == 2 or not even
    assert p.dyadic_value(num, exp) == dyadic_horner(p.coeffs, num, exp)


def test_half_horner_on_the_smallest_polynomials():
    for coeffs, stride in (
        ((0,), 2), ((5,), 2), ((0, 1), 2), ((-1, 0, 1), 2), ((1, 1), 1), ((0, 1, 1), 1),
    ):
        p = IntPolynomial(coeffs)
        assert p._stride == stride, coeffs
        for num, exp in ((0, 0), (3, 0), (-7, 5), (1 << 80, 200)):
            _check_evaluations(p, num, exp)
