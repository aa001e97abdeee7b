import math
import random
import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd as int_gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starwalk.spectra as spectra
from starwalk.partitions import Ordering, Partition, enumerate_shortlex
from starwalk.poly import (
    _from_top,
    _pseudo_rem,
    poly_gcd,
    starlike_charpoly,
    starlike_charpoly_factored,
    starlike_series,
    sturm_chain,
)
from starwalk.spectra import (
    DisconnectedError,
    IntPolynomial,
    _eigenvalues_above,
    charpoly,
    compare_spectral_radii_exact,
    eigenvalues,
    estrada_index,
    path_charpoly,
    spectral_radius,
)
from starwalk.trees import (
    Graph,
    attach_paths,
    enumerate_free_trees,
    make_path,
    make_starlike,
    rooted_forest,
    starlike_branches,
)
from starwalk.walks import closed_walk_counts, starlike_closed_walk_counts

from oracles import (
    all_partitions,
    charpoly_fraction_gauss,
    count_roots_in,
    horner,
    newton_power_sums,
    poly_product,
    prufer_to_edges,
    spectral_radius_full_halving,
)

# the recurrence check builds P_n from x, independently of the closed form
X = IntPolynomial([0, 1])


# ---------------------------------------------------------------------------
# integer polynomial layer


def test_polynomial_normalization_and_degree():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([]).coeffs == (0,)
    assert IntPolynomial([0, 0]).coeffs == (0,)
    assert IntPolynomial([0]).degree == -1
    assert IntPolynomial([5]).degree == 0
    assert X.degree == 1


def test_polynomial_arithmetic_frozen():
    p = IntPolynomial([1, 1])  # 1 + x
    assert (-p).coeffs == (-1, -1)
    assert p.derivative().coeffs == (1,)
    assert IntPolynomial([0, 0, 4]).derivative().coeffs == (0, 8)
    assert IntPolynomial([6, -9, 3]).primitive().coeffs == (2, -3, 1)
    assert IntPolynomial([6, -9, 3]).content() == 3


def test_polynomial_evaluate_and_sign():
    p = IntPolynomial([-2, 0, 1])  # x^2 - 2
    assert horner(p.coeffs, 2) == 2
    assert horner(p.coeffs, Fraction(3, 2)) == Fraction(1, 4)
    assert p.sign_at(Fraction(3, 2)) == 1
    assert p.sign_at(Fraction(11, 8)) == -1
    assert IntPolynomial([0, 1]).sign_at(Fraction(0)) == 0
    # an int is a dyadic point too
    assert p.sign_at(2) == 1
    # sign_at takes dyadic points only
    with pytest.raises(ValueError):
        p.sign_at(Fraction(7, 5))


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    st.fractions(min_value=-10, max_value=10),
)
@settings(max_examples=150, deadline=None)
def test_sign_at_agrees_with_fraction_evaluate(coeffs, x):
    p = IntPolynomial(coeffs)
    x = Fraction(x)
    if x.denominator & (x.denominator - 1):
        with pytest.raises(ValueError):
            p.sign_at(x)
        return
    v = horner(p.coeffs, x)
    assert p.sign_at(x) == (v > 0) - (v < 0)


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    st.integers(-(1 << 40), 1 << 40),
    st.integers(0, 40),
)
@settings(max_examples=150, deadline=None)
def test_dyadic_value_is_scaled_evaluate(coeffs, num, exp):
    p = IntPolynomial(coeffs)
    x = Fraction(num, 1 << exp)
    v = horner(p.coeffs, x)
    assert p.dyadic_value(num, exp) == v * (1 << (exp * max(p.degree, 0)))
    assert p.sign_at(x) == (v > 0) - (v < 0)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_poly_gcd_divides_both(ca, cb):
    a, b = IntPolynomial(ca), IntPolynomial(cb)
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert g.leading > 0
    assert _pseudo_rem(a, g).is_zero()
    assert _pseudo_rem(b, g).is_zero()


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_path_charpoly_frozen():
    assert path_charpoly(-1).coeffs == (0,)
    assert path_charpoly(0).coeffs == (1,)
    assert path_charpoly(1).coeffs == (0, 1)
    assert path_charpoly(2).coeffs == (-1, 0, 1)
    assert path_charpoly(3).coeffs == (0, -2, 0, 1)
    assert path_charpoly(4).coeffs == (1, 0, -3, 0, 1)


def test_path_charpoly_recurrence_and_value_at_two():
    for n in range(2, 40):
        pn = path_charpoly(n)
        x_prev = poly_product(X.coeffs, path_charpoly(n - 1).coeffs)
        prev2 = path_charpoly(n - 2).coeffs
        assert pn.coeffs == tuple(a - b for a, b in zip_longest(x_prev, prev2, fillvalue=0))
        assert horner(pn.coeffs, 2) == n + 1
        assert horner(pn.coeffs, -2) == (-1) ** n * (n + 1)
        # bipartite symmetry: only every other coefficient is nonzero
        assert all(c == 0 for c in pn.coeffs[(n + 1) % 2 :: 2])


def test_path_polynomial_gcd_structure():
    # common roots of path polynomials follow the index gcd
    for m in range(0, 13):
        for n in range(0, 13):
            expected = path_charpoly(int_gcd(m + 1, n + 1) - 1)
            assert poly_gcd(path_charpoly(m), path_charpoly(n)) == expected


def test_charpoly_frozen():
    assert charpoly(make_path(4)).coeffs == (1, 0, -3, 0, 1)
    assert charpoly(make_starlike([1, 1, 1])).coeffs == (0, 0, -3, 0, 1)
    assert charpoly(make_path(3)).coeffs == (0, -2, 0, 1)
    assert charpoly(Graph.from_edges(1, [])).coeffs == (0, 1)
    assert charpoly(Graph.from_edges(0, [])).coeffs == (1,)


def test_charpoly_paths_match_recurrence():
    for n in range(1, 30):
        assert charpoly(make_path(n)) == path_charpoly(n)


def test_charpoly_forest_is_component_product():
    two_paths = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert charpoly(two_paths).coeffs == poly_product(
        path_charpoly(2).coeffs, path_charpoly(3).coeffs
    )


def test_charpoly_rejects_cycles():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        charpoly(c4)


def test_charpoly_matches_gauss_oracle():
    samples = [
        make_starlike([2, 3, 4]),
        make_starlike([1, 1, 1, 1, 1]),
        Graph.from_edges(8, prufer_to_edges((0, 0, 3, 3, 5, 1))),
        Graph.from_edges(9, prufer_to_edges((4, 4, 2, 7, 1, 1, 0))),
        attach_paths(make_path(2), 0, (2, 2)),
    ]
    for g in samples:
        assert list(charpoly(g).coeffs) == charpoly_fraction_gauss(list(g.adj))


def test_charpoly_newton_consistency_with_walk_counts():
    g = make_starlike([2, 3, 4])
    moments = closed_walk_counts(g, 25).values
    assert newton_power_sums(list(charpoly(g).coeffs), 25) == list(moments)


def test_starlike_factored_identity_small_grid():
    for c in range(1, 5):
        for d in range(1, 5):
            for q in range(2, 5):
                pd, exponent, core = starlike_charpoly_factored(c, d, q)
                assert pd == path_charpoly(d)
                assert exponent == q - 1
                direct = charpoly(make_starlike([c] + [d] * q))
                assert poly_product(*[pd.coeffs] * exponent, core.coeffs) == direct.coeffs


def test_starlike_factored_validation():
    with pytest.raises(ValueError):
        starlike_charpoly_factored(2, 3, 1)
    with pytest.raises(ValueError):
        starlike_charpoly_factored(0, 3, 2)


# ---------------------------------------------------------------------------
# Sturm chains, counted by the oracle's sign variations


def test_sturm_root_counts_on_paths():
    p6 = path_charpoly(6)
    chain = sturm_chain(p6)
    assert count_roots_in(chain, Fraction(-2), Fraction(2)) == 6
    assert count_roots_in(chain, Fraction(0), Fraction(2)) == 3
    # top root 2cos(pi/7) = 1.8019 sits alone above 9/5
    assert count_roots_in(chain, Fraction(9, 5), Fraction(2)) == 1


def test_sturm_counts_distinct_roots_with_multiplicity():
    p3 = path_charpoly(3).coeffs
    doubled = IntPolynomial(poly_product(p3, p3))  # squared roots
    chain = sturm_chain(doubled)
    assert count_roots_in(chain, Fraction(-2), Fraction(2)) == 3


def test_sturm_rejects_root_endpoint():
    p5 = path_charpoly(5)  # has 1 among its roots
    assert horner(p5.coeffs, 1) == 0
    with pytest.raises(ValueError):
        count_roots_in(sturm_chain(p5), Fraction(1), Fraction(2))


# ---------------------------------------------------------------------------
# eigenvalue counts on forests (Jacobs-Trevisan)


def _multiplicity(p, r):
    """Exponent of (x - r) in p, by repeated synthetic division."""
    coeffs, m = list(p.coeffs), 0
    while True:
        acc, high_to_low = 0, []
        for c in reversed(coeffs):
            acc = acc * r + c
            high_to_low.append(acc)
        if acc:
            return m
        coeffs, m = high_to_low[-2::-1], m + 1


def _dyadic(x):
    """(num, exp) with x = num / 2^exp, for x an int or a Fraction whose
    denominator is a power of two."""
    x = Fraction(x)
    exp = x.denominator.bit_length() - 1
    assert x.denominator == 1 << exp, x
    return x.numerator, exp


def _ends(root):
    """The ends of a `_TopRoot`'s interval, as Fractions."""
    return Fraction(root.a, 1 << root.e), Fraction(root.a + root.w, 1 << root.e)


def _width(root):
    return Fraction(root.w, 1 << root.e)


def _check_eigenvalue_counts(g, points):
    """_eigenvalues_above against the float spectrum at dyadic points at least
    1e-6 from every eigenvalue, and against exact multiplicities at the
    integers 0, +-1, +-2. An integer eigenvalue of a subtree gives a child a
    zero entry there (at 0, every leaf), so those points run that rule."""
    rooting = rooted_forest(g)
    spectrum = np.linalg.eigvalsh(
        np.array([[1.0 if w in g.adj[v] else 0.0 for w in range(g.n)] for v in range(g.n)])
    )
    for x in points:
        if np.min(np.abs(spectrum - float(x))) >= 1e-6:
            expected = (int(np.sum(spectrum > float(x))), 0)
            assert _eigenvalues_above(g, *rooting, *_dyadic(x)) == expected
    p = charpoly(g)
    for r in (-2, -1, 0, 1, 2):
        above, at = _eigenvalues_above(g, *rooting, r, 0)
        assert at == _multiplicity(p, r)
        assert above == int(np.sum(spectrum > r + 1e-9))


def _above(g, x):
    return _eigenvalues_above(g, *rooted_forest(g), *_dyadic(x))


def test_eigenvalues_above_small_cases():
    # S(1,1,1) = K_{1,3} has spectrum +-sqrt 3, 0, 0: at 0 all three leaves
    # are zero, the center takes -1/2 and one leaf 2, two zeros remain
    star = make_starlike([1, 1, 1])
    assert _above(star, Fraction(0)) == (1, 2)
    assert _above(star, Fraction(-2)) == (4, 0)
    assert _above(star, Fraction(7, 4)) == (0, 0)
    assert _above(make_path(2), Fraction(1)) == (0, 1)
    assert _above(Graph.from_edges(0, []), Fraction(1)) == (0, 0)
    assert _above(Graph.from_edges(3, []), Fraction(0)) == (0, 3)
    # a point not in lowest terms counts as the same point
    rooting = rooted_forest(star)
    assert _eigenvalues_above(star, *rooting, 0, 5) == (1, 2)
    assert _eigenvalues_above(star, *rooting, -8, 2) == (4, 0)
    assert _eigenvalues_above(star, *rooting, 7 << 9, 11) == (0, 0)


def test_eigenvalues_above_matches_spectrum_on_every_small_tree():
    points = [Fraction(j, 16) for j in range(-56, 57)]
    for n in range(1, 11):
        for g in enumerate_free_trees(n):
            _check_eigenvalue_counts(g, points)


def test_eigenvalues_above_matches_spectrum_on_random_forests():
    rng = random.Random(271)
    for _ in range(40):
        edges, n = [], 0
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 25)
            if size >= 2:
                seq = tuple(rng.randrange(size) for _ in range(size - 2))
                edges += [(u + n, v + n) for u, v in prufer_to_edges(seq)]
            n += size
        g = Graph.from_edges(n, edges)
        points = [Fraction(rng.randint(-4096, 4096), 1024) for _ in range(40)]
        _check_eigenvalue_counts(g, points)


# ---------------------------------------------------------------------------
# spectral radius, exact


def test_spectral_radius_exactly_two_families():
    for branches in ([2, 2, 2], [1, 3, 3], [1, 2, 5], [1, 1, 1, 1]):
        g = make_starlike(branches)
        assert spectral_radius(g) == 2.0


def test_spectral_radius_closed_forms():
    assert spectral_radius(make_path(2), 1e-12) == pytest.approx(1.0, abs=1e-11)
    golden = (1 + math.sqrt(5)) / 2
    assert spectral_radius(make_path(4), 1e-12) == pytest.approx(golden, abs=1e-11)
    star = make_starlike([1, 1, 1])
    assert spectral_radius(star, 1e-12) == pytest.approx(math.sqrt(3), abs=1e-11)


def test_spectral_radius_matches_float_solver():
    double_broom = attach_paths(attach_paths(make_path(2), 0, (2, 2)), 1, (3, 1))
    samples = [
        make_path(7),
        make_starlike([1, 2, 3]),
        make_starlike([1, 1, 4]),
        make_starlike([2, 3, 4]),
        make_starlike([1, 1, 2, 3]),
        double_broom,
        Graph.from_edges(9, prufer_to_edges((4, 4, 2, 7, 1, 1, 0))),
    ]
    for g in samples:
        top = max(eigenvalues(g))
        assert spectral_radius(g, 1e-11) == pytest.approx(top, abs=1e-9)


def test_spectral_radius_large_starlike():
    g = make_starlike([90, 90, 90])
    assert spectral_radius(g, 1e-10) == pytest.approx(2.12132034355964, abs=1e-10)
    # exact floats of the default tolerance, above and below 2
    assert spectral_radius(make_starlike([1, 1, 268]), 1e-10) == 1.999966153744026
    assert spectral_radius(make_starlike([80, 90, 100]), 1e-10) == 2.121320343547268


def test_spectral_radius_reprs_pinned():
    # the floats of rational bisection from the isolating interval: S(1^9)
    # has the integer radius 3, the edge-list tree is not starlike, and P_4
    # and S(1,2,2) have their radii below 2. tol 1e300 keeps the whole
    # canonical interval, and 1e-300 and the least subnormal 5e-324 halve
    # past double precision
    tree = Graph.from_edges(
        12,
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (2, 7), (3, 8), (8, 9), (9, 10), (8, 11)],
    )
    tols = (1e300, 0.5, 1e-10, 1e-14, 1e-300, 5e-324)
    for g, reprs in (
        (make_starlike([1] * 9), ("6.0", "3.0", "3.0", "3.0", "3.0", "3.0")),
        (
            make_starlike([2, 2, 267]),
            ("3.0", "2.25", "2.0581710272526834", "2.058171027271495")
            + ("2.0581710272714924",) * 2,
        ),
        (
            tree,
            ("3.0", "2.25", "2.2469796036893968", "2.2469796037174667")
            + ("2.246979603717467",) * 2,
        ),
        (
            make_path(4),
            ("1.5", "1.75", "1.618033988721436", "1.6180339887498967")
            + ("1.618033988749895",) * 2,
        ),
        (
            make_starlike([1, 2, 2]),
            ("1.625", "1.8125", "1.9318516526109306", "1.9318516525781382")
            + ("1.9318516525781366",) * 2,
        ),
    ):
        assert tuple(repr(spectral_radius(g, tol)) for tol in tols) == reprs


@pytest.fixture
def evaluations(monkeypatch):
    """Counts exact evaluations of a polynomial: the scaled values that
    seeds and halving read, and sign tests, each of which reads one."""
    count = [0]
    original = IntPolynomial.dyadic_value

    def counted(self, *args):
        count[0] += 1
        return original(self, *args)

    monkeypatch.setattr(IntPolynomial, "dyadic_value", counted)
    return count


TRIO = [Partition(t) for t in ((80, 90, 100), (85, 90, 95), (90, 90, 90))]


def _refuse(*args, **kwargs):
    raise AssertionError("must not be called")


def test_exact_root_evaluation_counts(evaluations, monkeypatch):
    # D_271 is below 2: the sign at 2, p(0) = 0 and p(-1), then the output
    # cell confirmed by one inertia count at its lower end and the value at
    # its upper end
    counts = []
    above = spectra._eigenvalues_above
    monkeypatch.setattr(spectra, "_eigenvalues_above", lambda *a: counts.append(1) or above(*a))
    spectral_radius(make_starlike([1, 1, 268]))
    assert evaluations[0] == 4
    assert len(counts) == 1
    # equal radii below 2: the two signs at 2, then the Coxeter numbers; the
    # trio starts next to its roots. Neither runs a gcd or builds a tree
    monkeypatch.setattr(spectra, "poly_gcd", _refuse)
    monkeypatch.setattr(Graph, "from_edges", _refuse)
    evaluations[0] = 0
    assert compare_spectral_radii_exact(Partition([1, 1, 1]), Partition([2, 2])) is Ordering.EQUAL
    assert evaluations[0] == 2
    # the trio: the two signs at 2, then one cell per tree at the level that
    # separates the two estimates, each confirmed by its two end values
    for a, b in ((TRIO[0], TRIO[1]), (TRIO[1], TRIO[2]), (TRIO[0], TRIO[2])):
        evaluations[0] = 0
        assert compare_spectral_radii_exact(a, b) is Ordering.LESS
        assert evaluations[0] <= 6
        assert compare_spectral_radii_exact(b, a) is Ordering.GREATER
    # equal radii above 2: estimates that agree to 2^-128 start both cells
    # under 2^-128, so the one gcd test runs at once
    gcds = []
    monkeypatch.setattr(spectra, "poly_gcd", lambda a, b: gcds.append(1) or poly_gcd(a, b))
    evaluations[0] = 0
    assert compare_spectral_radii_exact(Partition([1, 3, 4]), Partition([1, 2, 9])) is Ordering.EQUAL
    assert evaluations[0] <= 10
    assert len(gcds) == 1


def test_fine_tol_radius_evaluation_counts(evaluations, monkeypatch):
    # below 2^-60 the seed cell stays at most 2^-60 wide: S(80,90,100)
    # reads the same three values at the least subnormal tol as at 1e-17,
    # D_271 the same four, and D_43, whose seed cell ends round to two
    # doubles, halves three more times. No value is read finer than 2^-70
    exps = []
    inner = IntPolynomial.dyadic_value  # the fixture's counting wrapper
    monkeypatch.setattr(
        IntPolynomial, "dyadic_value", lambda p, num, exp: exps.append(exp) or inner(p, num, exp)
    )
    for parts, counts in (((80, 90, 100), (3, 3)), ((1, 1, 268), (4, 4)), ((1, 1, 40), (4, 7))):
        for tol, count in zip((1e-17, 5e-324), counts):
            evaluations[0] = 0
            spectral_radius(make_starlike(parts), tol)
            assert evaluations[0] == count
    assert max(exps) <= 70


def test_fine_tol_radius_matches_the_full_halving_route():
    """Halving stops once both ends of the cell round to one double; the
    float is the one that halving to the output level gives."""
    trees = [make_starlike(t) for t in TRIO] + [make_starlike([1, 1, 268])]
    trees += [make_path(n) for n in range(2, 61)]
    trees += [make_starlike([1, 1, n - 3]) for n in range(4, 61)]
    for tol in (1e-17, 1e-100, 5e-324):
        for g in trees:
            assert spectral_radius(g, tol) == spectral_radius_full_halving(g, tol)


def test_spectral_radius_validation():
    with pytest.raises(ValueError):
        spectral_radius(Graph.from_edges(1, []))
    with pytest.raises(DisconnectedError):
        spectral_radius(Graph.from_edges(4, [(0, 1), (2, 3)]))
    # n - 1 edges and no tree: each has a cycle, and each is disconnected
    for n, edges in (
        (5, [(0, 1), (1, 2), (2, 0), (3, 4)]),  # triangle, edge
        (7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)]),  # tailed triangle, P_3
        (6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]),  # tailed C_4, vertex
    ):
        g = Graph.from_edges(n, edges)
        assert g.edge_count == n - 1
        with pytest.raises(DisconnectedError):
            spectral_radius(g)
    with pytest.raises(ValueError):
        spectral_radius(make_path(3), 0.0)


def test_compare_spectral_radii_frozen():
    cmp = compare_spectral_radii_exact
    # both radii below 2, ordered by their Coxeter numbers
    assert cmp(Partition([1, 1, 4]), Partition([1, 2, 3])) is Ordering.LESS
    assert cmp(Partition([1, 1, 1]), Partition([1, 1, 2])) is Ordering.LESS
    assert cmp(Partition([1, 2, 3]), Partition([1, 1, 4])) is Ordering.GREATER
    # radius exactly 2 on both sides
    assert cmp(Partition([2, 2, 2]), Partition([1, 2, 5])) is Ordering.EQUAL
    assert cmp(Partition([1, 3, 3]), Partition([1, 1, 1, 1])) is Ordering.EQUAL
    # across the three classes
    assert cmp(Partition([1, 2, 3]), Partition([2, 2, 2])) is Ordering.LESS
    assert cmp(Partition([2, 2, 2]), Partition([1, 2, 4])) is Ordering.GREATER
    assert cmp(Partition([2, 2, 2]), Partition([2, 2, 3])) is Ordering.LESS
    # above 2 on both sides, plain rational bisection
    assert cmp(Partition([1, 1, 2, 2]), Partition([2, 2, 4])) is Ordering.GREATER
    assert cmp(Partition([2, 2, 4]), Partition([3, 3, 3])) is Ordering.LESS
    assert cmp(Partition([2, 3, 4]), Partition([3, 3, 3])) is Ordering.LESS
    assert cmp(Partition([5, 5, 5]), Partition([5, 5, 5])) is Ordering.EQUAL
    # equal radii, distinct charpolys: the gcd certifies these above 2, the
    # Coxeter numbers below 2
    for a, b in (
        ([1, 3, 4], [1, 2, 9]),  # above 2
        ([1, 4, 4], [2, 2, 3]),
        ([1, 1, 1], [2, 2]),  # below 2
        ([2, 4], [1, 1, 2]),
    ):
        assert charpoly(make_starlike(a)) != charpoly(make_starlike(b))
        assert cmp(Partition(a), Partition(b)) is Ordering.EQUAL
        assert cmp(Partition(b), Partition(a)) is Ordering.EQUAL


def test_compare_agrees_with_floats_when_separated():
    pairs = [
        ([1, 1, 6], [1, 2, 5]),
        ([2, 2, 2, 2], [1, 2, 2, 3]),
        ([3, 4, 5], [2, 4, 6]),
        ([1, 1, 1, 9], [3, 3, 3, 3]),
        ([2, 2, 8], [4, 4, 4]),
        ([1, 5, 6], [4, 4, 4]),
        ([7], [3, 4]),
        ([1, 7], [2, 6]),
    ]
    for pa, pb in pairs:
        a, b = Partition(pa), Partition(pb)
        fa = max(eigenvalues(make_starlike(a)))
        fb = max(eigenvalues(make_starlike(b)))
        if abs(fa - fb) <= 1e-8:
            continue
        expected = Ordering.LESS if fa < fb else Ordering.GREATER
        assert compare_spectral_radii_exact(a, b) is expected


# ---------------------------------------------------------------------------
# Smith's classification below 2


def _is_dynkin(parts):
    """A_n, D_n or E_6..E_8: at most two branches, or three branches a, b, c
    with 1/(a+1) + 1/(b+1) + 1/(c+1) > 1."""
    return len(parts) <= 2 or (
        len(parts) == 3 and sum(Fraction(1, a + 1) for a in parts) > 1
    )


def test_positive_at_two_exactly_on_dynkin_diagrams():
    # p(2) > 0 puts the radius below 2; one chain of branch lists per order
    dynkin = 0
    for n in range(2, 31):
        chain = [parts.parts for parts in enumerate_shortlex(n - 1, min_parts=1)]
        for parts, top in zip(chain, starlike_series(chain, n // 2 + 1)):
            at_2 = sum(c << (n - 2 * i) for i, c in enumerate(top))
            assert (at_2 > 0) == _is_dynkin(parts), parts
            dynkin += at_2 > 0
    # paths, D_4..D_30 and E_6, E_7, E_8
    assert dynkin == sum((n - 1) // 2 + 1 for n in range(2, 31)) + 27 + 3


def _trees_below_two(n):
    """The path on n vertices and every S(a,b,c) on n vertices with
    p(2) > 0, which puts the radius below 2: up to isomorphism, every tree
    of order n with radius below 2. No other tree has one: two vertices of
    degree >= 3 span some extended D_m, and degree >= 4 holds S(1,1,1,1),
    both of radius 2."""
    trees = [(n - 1,)]
    for a in range(1, n):
        for b in range(a, n):
            c = n - 1 - a - b
            if c >= b and starlike_charpoly((a, b, c)).sign_at(Fraction(2)) > 0:
                trees.append((a, b, c))
    return trees


def test_radius_below_two_is_two_cos_pi_over_the_coxeter_number():
    for n in range(2, 41):
        found = _trees_below_two(n)
        assert len(found) == 1 + (n >= 4) + (n in (6, 7, 8)), n
        for parts in found:
            h = spectra._coxeter_number(parts)
            expected = 2 * math.cos(math.pi / h)
            assert spectral_radius(make_starlike(parts), 1e-12) == pytest.approx(
                expected, abs=1e-11
            ), parts
    # every tree with n <= 10 and radius below 2 is on that list
    for n in range(2, 11):
        for g in enumerate_free_trees(n):
            if _above(g, Fraction(2)) == (0, 0):
                branches = starlike_branches(g)
                assert branches is not None and branches.parts in _trees_below_two(n)


def test_dynkin_radii_match_the_bisection_route(monkeypatch):
    # the seeded output cell below 2, and the fallback with the seed forced
    # into the bottom cell of its grid, which never isolates the top root,
    # give the floats of bisecting (-2, 2] and halving
    trees = (
        [(n - 1,) for n in range(2, 121)]
        + [(1, 1, n - 3) for n in range(4, 121)]
        + [(1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 1, 268)]
    )
    tols = (0.5, 1e-10, 1e-14)
    isolations = []
    isolate = spectra._isolate_top_root
    monkeypatch.setattr(
        spectra,
        "_isolate_top_root",
        lambda g, p, bound: isolations.append(g.n) or isolate(g, p, bound),
    )
    expected, seeded = {}, {}
    for parts in trees:
        g = make_starlike(parts)
        root = isolate(g, charpoly(g), 2)
        for tol in tols:  # coarse to fine, so one root is halved through all three
            while _width(root) > tol:
                root.halve()
            expected[parts, tol] = repr(float(sum(_ends(root)) / 2))
            isolations.clear()
            seeded[parts, tol] = repr(spectral_radius(g, tol)), bool(isolations)
    assert {key: radius for key, (radius, _) in seeded.items()} == expected
    # only P_2, whose root 1 is a point of its grid, falls back at the fine
    # tolerances; the coarsest output cells often hold more than one root
    assert {key for key, (_, fell) in seeded.items() if fell and key[1] < 0.5} == {
        ((1,), 1e-10),
        ((1,), 1e-14),
    }
    monkeypatch.setattr(spectra, "_dynkin_radius", lambda h, bits: -2 << bits)
    for (parts, tol), radius in expected.items():
        isolations.clear()
        assert repr(spectral_radius(make_starlike(parts), tol)) == radius, (parts, tol)
        assert isolations, (parts, tol)
    # an estimate a cell or more below the root, in a cell that may hold no
    # eigenvalue, fails on the value at the cell's upper end: 4 / 2^level
    # below it, times 2^bits
    dynkin_radius = spectra._dynkin_radius
    monkeypatch.setattr(
        spectra,
        "_dynkin_radius",
        lambda h, bits: dynkin_radius(h, bits) - (4 << spectra._ESTIMATE_GUARD),
    )
    for parts in trees[::4]:
        isolations.clear()
        assert repr(spectral_radius(make_starlike(parts), 1e-14)) == expected[parts, 1e-14], parts
        assert isolations, parts


# ---------------------------------------------------------------------------
# the seeded start above 2 and the deferred gcd


def _top_root(parts, level=64):
    bits = level + spectra._ESTIMATE_GUARD
    estimate = spectra._secular_radius(parts, bits)
    return spectra._starlike_top_root(parts, starlike_charpoly(parts), level, estimate, bits)


def _seeded_cases():
    """Every starlike tree with >= 3 branches, radius above 2 and order <= 14,
    then the trio and S(60,60,150)."""
    small = [
        parts.parts
        for n in range(5, 15)
        for parts in enumerate_shortlex(n - 1, min_parts=3)
        if starlike_charpoly(parts.parts).sign_at(Fraction(2)) < 0
    ]
    return small + [t.parts for t in TRIO] + [(60, 60, 150)]


def test_seeded_start_isolates_the_top_root():
    points = set()
    for parts in _seeded_cases():
        k, g = len(parts), make_starlike(parts)
        rooting = rooted_forest(g)
        # the coarsest levels, the level of `spectral_radius` at tol 1e-10
        # on three branches, the level of the tests below and that of the
        # gcd test on three branches
        for level in (1, 2, 35, 64, 130):
            root = _top_root(parts, level)
            lo, hi = _ends(root)
            assert 2 <= lo <= hi <= k + 1, parts
            if lo == hi:
                # a grid point that is the root itself
                assert _eigenvalues_above(g, *rooting, root.a, root.e) == (0, 1), parts
                points.add((parts, level))
                continue
            # the cell of the halving grid of (2, k + 1] at the level asked
            assert _width(root) == Fraction(k - 1, 1 << level), (parts, level)
            assert ((lo - 2) / _width(root)).denominator == 1, (parts, level)
            assert _eigenvalues_above(g, *rooting, root.a, root.e) == (1, 0), parts
            assert _eigenvalues_above(g, *rooting, root.a + root.w, root.e) == (0, 0), parts
    # S(1^9) has the radius 3 = 2 + 2^(level - 3) cells of (2, 10]
    assert points == {((1,) * 9, level) for level in (35, 64, 130)}
    for parts in TRIO:
        assert _width(_top_root(parts.parts)) == Fraction(2, 2**64)


def test_failed_seed_falls_back_to_the_whole_grid(monkeypatch):
    tols = (1e-10, 1e-14)
    expected = {
        parts: [repr(spectral_radius(make_starlike(parts), tol)) for tol in tols]
        for parts in ((4, 5, 6), (3, 3, 3, 3), (60, 60, 150))
    }
    # an estimate at the top of (2, k + 1] puts the seed in the top cell of
    # its level, which never holds the root
    monkeypatch.setattr(spectra, "_secular_radius", lambda parts, bits: (len(parts) + 1) << bits)
    starts = []
    top_root = spectra._TopRoot

    def recorded(p, a, w, e):
        root = top_root(p, a, w, e)
        starts.append(_ends(root))
        return root

    monkeypatch.setattr(spectra, "_TopRoot", recorded)
    for parts, radii in expected.items():
        starts.clear()
        root, k = _top_root(parts), len(parts)
        # one seeded try, the top cell of level 64, then the whole grid
        assert _ends(root) == (2, k + 1)
        assert starts == [(k + 1 - Fraction(k - 1, 2**64), k + 1), (2, k + 1)]
        for tol, radius in zip(tols, radii):
            # the seed is the top cell of the output grid
            cell = Fraction(k - 1)
            while cell > tol:
                cell /= 2
            starts.clear()
            assert repr(spectral_radius(make_starlike(parts), tol)) == radius
            assert starts == [(k + 1 - cell, k + 1), (2, k + 1)]
    assert compare_spectral_radii_exact(TRIO[0], TRIO[1]) is Ordering.LESS
    assert compare_spectral_radii_exact(TRIO[1], TRIO[0]) is Ordering.GREATER


def test_compare_halves_overlapping_cells_to_the_unpatched_verdicts(monkeypatch):
    # every digest pair starts from cells that are already disjoint or under
    # 2^-128; starting each at level 1 of its grid leaves all the narrowing
    # to halving, and equal radii above 2 reach the gcd only after it
    trees = [q for m in range(1, 9) for q in enumerate_shortlex(m, min_parts=1)]
    verdicts = {(a, b): compare_spectral_radii_exact(a, b) for a in trees for b in trees}
    halvings, at_gcd = [0], []
    halve = spectra._TopRoot.halve

    def counted(root):
        halvings[0] += 1
        halve(root)

    monkeypatch.setattr(spectra._TopRoot, "halve", counted)
    monkeypatch.setattr(spectra, "_separating_level", lambda k, gap: 1)
    monkeypatch.setattr(spectra, "poly_gcd", lambda a, b: at_gcd.append(halvings[0]) or poly_gcd(a, b))
    gcd_pairs = 0
    for (a, b), verdict in verdicts.items():
        halvings[0] = 0
        at_gcd.clear()
        assert compare_spectral_radii_exact(a, b) is verdict, (a, b)
        pa, pb = starlike_charpoly(a), starlike_charpoly(b)
        if verdict is Ordering.EQUAL and pa != pb and pa.sign_at(Fraction(2)) < 0:
            # both cells start (k - 1) / 2 wide and end under 2^-128
            assert len(at_gcd) == 1 and at_gcd[0] >= 2 * spectra._GCD_BITS, (a, b)
            gcd_pairs += 1
        else:
            assert not at_gcd, (a, b)
    assert len(verdicts) == 66**2 and gcd_pairs == 2


def test_every_small_tree_seeds_on_its_first_try():
    # every starlike tree above 2 of order 5..30, and every star S(1^k) up to
    # k = 399, keeps the cell of level 64 that holds its estimate: its end
    # values bracket the root, or one of them is the root
    def first_try(parts, p):
        bits = 64 + spectra._ESTIMATE_GUARD
        root = spectra._starlike_top_root(parts, p, 64, spectra._secular_radius(parts, bits), bits)
        if root.w == 0:
            points.append(parts)
        return _width(root) in (0, Fraction(len(parts) - 1, 2**64))

    points = []
    above = seeded = 0
    for n in range(5, 31):
        chain = [parts.parts for parts in enumerate_shortlex(n - 1, min_parts=3)]
        for parts, top in zip(chain, starlike_series(chain, n // 2 + 1)):
            if sum(c << (n - 2 * i) for i, c in enumerate(top)) >= 0:  # p(2)
                continue
            above += 1
            seeded += first_try(parts, _from_top(n, top))
    assert (above, seeded) == (22751, 22751)
    stars = [(1,) * k for k in range(5, 400)]
    assert all(first_try(parts, starlike_charpoly(parts)) for parts in stars)
    # radius 3 on S(1^9) and 5 on S(1^25) are points of the grid
    assert points == [(1,) * 9, (1,) * 25] * 2


def test_trio_radii_snap_to_the_canonical_grid():
    # the floats of the unseeded code, which bisected (2, 4] itself; at the
    # finer tolerances the seeded interval is already narrower than tol
    pinned = {
        0.5: "2.25",
        1e-3: "2.12158203125",
        1e-10: "2.121320343547268",
        1e-14: "2.121320343559642",
    }
    for parts in TRIO:
        g = make_starlike(parts.parts)
        assert _width(_top_root(parts.parts)) < 1e-14
        for tol, radius in pinned.items():
            assert repr(spectral_radius(g, tol)) == radius


def test_equal_radii_that_are_not_cospectral_stay_equal(monkeypatch):
    # S(1,2,2) and S(10) = P_11 both have radius 2cos(pi/12) < 2 and the
    # Coxeter number 12, so they need no gcd; the rest are off-diagonal
    # EQUAL verdicts above 2 with n <= 12
    assert spectral_radius(make_starlike([10]), 1e-12) == pytest.approx(
        2 * math.cos(math.pi / 12), abs=1e-11
    )
    gcds = []
    monkeypatch.setattr(spectra, "poly_gcd", lambda a, b: gcds.append(1) or poly_gcd(a, b))
    for a, b, expected_gcds in (
        ((1, 2, 2), (10,), 0),
        ((1, 1, 1, 2), (3, 3, 3), 2),
        ((2, 2, 3), (1, 4, 4), 2),
        ((1, 1, 1, 1, 1), (2, 2, 2, 2), 2),
    ):
        assert starlike_charpoly(a) != starlike_charpoly(b)
        gcds.clear()
        assert compare_spectral_radii_exact(Partition(a), Partition(b)) is Ordering.EQUAL
        assert compare_spectral_radii_exact(Partition(b), Partition(a)) is Ordering.EQUAL
        assert len(gcds) == expected_gcds


def test_two_point_intervals_at_one_root_are_equal(monkeypatch):
    # S(1^9) and S(2^8) both have radius 3 and S(1^16) has 4. Only the seed
    # of S(1^9) lands on its root, so the point intervals are given as the
    # starts
    roots = {(1,) * 9: 3, (2,) * 8: 3, (1,) * 16: 4}

    def point_start(parts, p, level, estimate, bits):
        r = roots[tuple(parts)]
        assert p.sign_at(r) == 0
        return spectra._TopRoot(p, r, 0, 0)

    monkeypatch.setattr(spectra, "_starlike_top_root", point_start)
    monkeypatch.setattr(spectra, "poly_gcd", _refuse)
    s9, s8, s16 = (Partition(parts) for parts in roots)
    assert compare_spectral_radii_exact(s9, s8) is Ordering.EQUAL
    assert compare_spectral_radii_exact(s8, s9) is Ordering.EQUAL
    assert compare_spectral_radii_exact(s9, s16) is Ordering.LESS
    assert compare_spectral_radii_exact(s16, s8) is Ordering.GREATER


# ---------------------------------------------------------------------------
# float reporting layer


def test_eigenvalues_basic_properties():
    g = make_starlike([2, 3, 4])
    spec = eigenvalues(g)
    assert len(spec) == g.n
    assert spec == tuple(sorted(spec, reverse=True))
    assert sum(spec) == pytest.approx(0.0, abs=1e-9)
    assert sum(v * v for v in spec) == pytest.approx(2 * g.edge_count, abs=1e-8)
    assert eigenvalues(Graph.from_edges(0, [])) == ()


def test_one_vertex_spectrum_needs_no_numpy(monkeypatch):
    # P_1 is a starlike tree, so its spectrum is read without a solver
    assert eigenvalues(make_path(1)) == (0.0,)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert eigenvalues(make_path(1)) == (0.0,)
    with pytest.raises(ValueError, match="needs numpy"):
        eigenvalues(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))


@given(st.integers(3, 10), st.data())
@settings(max_examples=30, deadline=None)
def test_eigenvalue_powers_match_walk_counts(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    g = Graph.from_edges(n, prufer_to_edges(seq))
    spec = eigenvalues(g)
    moments = closed_walk_counts(g, 14).values
    for k in range(15):
        float_sum = sum(v**k for v in spec)
        assert abs(float_sum - moments[k]) <= 1e-6 * max(moments[k], 1)


def test_eigenvalue_powers_match_walk_counts_larger():
    for g in (make_starlike([3, 5, 7, 9]), make_path(30)):
        spec = eigenvalues(g)
        moments = closed_walk_counts(g, 20).values
        for k in range(21):
            assert abs(sum(v**k for v in spec) - moments[k]) <= 1e-6 * max(
                moments[k], 1
            )


def test_estrada_index_frozen():
    assert estrada_index(eigenvalues(make_path(2))) == pytest.approx(
        math.e + 1 / math.e, abs=1e-9
    )
    star = make_starlike([1, 1, 1])
    expected = 2 + 2 * math.cosh(math.sqrt(3))
    assert estrada_index(eigenvalues(star)) == pytest.approx(expected, abs=1e-9)
    assert estrada_index(()) == 0.0


def test_estrada_index_dominated_by_top_eigenvalue():
    g = make_starlike([4, 5, 6])
    ee = estrada_index(eigenvalues(g))
    lam = spectral_radius(g)
    assert math.exp(lam) < ee < g.n * math.exp(lam)


# ---------------------------------------------------------------------------
# the starlike spectrum, read off the branch list


def _dense_spectrum(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return sorted(np.linalg.eigvalsh(a), reverse=True)


def test_starlike_spectrum_matches_the_dense_solver():
    # every starlike tree on 2..20 vertices, paths included
    for n in range(2, 21):
        for parts in all_partitions(n - 1):
            g = make_starlike(parts)
            spec = eigenvalues(g)
            assert len(spec) == n, parts
            assert max(map(abs, np.subtract(spec, _dense_spectrum(g)))) <= 1e-12, parts


def test_starlike_spectrum_power_sums_are_the_walk_counts():
    chain = [t.parts for t in TRIO] + [(1, 1, 268), (1, 2, 267), (2999, 3000, 3001)]
    for parts, moments in zip(chain, starlike_closed_walk_counts(chain, 8)):
        spec = eigenvalues(make_starlike(parts))
        assert len(spec) == moments[0] == sum(parts) + 1
        assert spec == tuple(sorted(spec, reverse=True))
        for k in range(1, 9):
            power_sum = math.fsum(x**k for x in spec)
            assert abs(power_sum - moments[k]) <= 1e-12 * moments[k], (parts, k)


def test_starlike_spectrum_multiplicities_where_poles_coincide():
    # S(90,90,90): each eigenvalue 2cos(j pi / 91) of the three branches
    # twice, and 90 simple roots of the secular equation between them
    spec = eigenvalues(make_starlike((90, 90, 90)))
    for j in range(1, 91):
        pole = 2 * math.cos(j * math.pi / 91)
        near = [x for x in spec if abs(x - pole) <= 1e-12]
        assert len(near) == 2 and near[0] == near[1], j
    # S(1,3,5): the pole 0 is shared by all three branches, 1/2 = 2/4 = 3/6
    spec = eigenvalues(make_starlike((1, 3, 5)))
    assert spec.count(0.0) == 2 and len(spec) == 10
    # S(2,5) = P_8: 2cos(pi / 3) = 1 is a pole of both branches, 1/3 = 2/6,
    # and an eigenvalue once
    spec = eigenvalues(make_starlike((2, 5)))
    assert sum(abs(abs(x) - 1) <= 1e-12 for x in spec) == 2


def test_starlike_spectrum_closed_forms():
    for n in range(2, 61):
        path = [2 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1)]
        assert eigenvalues(make_path(n)) == pytest.approx(path, abs=1e-14), n
    for k in range(1, 40):
        star = eigenvalues(make_starlike((1,) * k))
        assert star == pytest.approx((math.sqrt(k), *[0.0] * (k - 1), -math.sqrt(k)), abs=1e-14)
        assert star.count(0.0) == k - 1
    # the starlike trees with radius exactly 2 (Smith): the top is 2.0 itself
    for parts in ((2, 2, 2), (1, 3, 3), (1, 2, 5), (1, 1, 1, 1)):
        spec = eigenvalues(make_starlike(parts))
        assert spec[0] == 2.0 and spec[-1] == -2.0, parts
        assert spec == pytest.approx(_dense_spectrum(make_starlike(parts)), abs=1e-12)
    # the top is read off the exact layer, within one ulp of the exact
    # radius: every branch list at orders 2..16, paths included, the trio,
    # D_271, two-long-arm and many-branch trees
    trees = [q.parts for m in range(1, 16) for q in enumerate_shortlex(m, min_parts=1)]
    trees += [(80, 90, 100), (85, 90, 95), (90, 90, 90), (1, 1, 268), (2, 2, 267)]
    trees.append((1,) * 40 + (5,) * 10 + (7, 7, 1000))
    for parts in trees:
        g = make_starlike(parts)
        exact = spectral_radius(g, 1e-19)
        assert abs(eigenvalues(g)[0] - exact) <= math.ulp(exact), parts


def test_newton_falls_back_to_bisection():
    # a slope far too flat steps out of the bracket every time, so each
    # step bisects, down to adjacent floats
    values = []

    def flat(x):
        values.append(x)
        return math.pi - x, -1e-300

    assert abs(spectra._newton(flat, 0.0, 4.0) - math.pi) <= math.ulp(math.pi)
    assert 50 <= len(values) <= 60
