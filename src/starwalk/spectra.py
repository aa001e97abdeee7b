"""Certified spectral-radius comparisons on exact characteristic polynomials.

Adjacency spectral radii of same-order starlike trees can agree to far more
digits than a double carries (the gap decays exponentially in branch
length), so any float eigensolver reports ties. Order is decided here by
locating roots exactly instead; all polynomial algebra, characteristic
polynomials included, lives in `poly`, and this module only evaluates signs
and values of what it gets from there, every exact point and width a dyadic
integer num / 2^exp, held as the ints that `dyadic_value` takes. For a
starlike tree the sign of p(2), p its charpoly, puts the radius above, at
or below 2; below 2 the tree is a Dynkin diagram, ordered by its Coxeter
number h (`_coxeter_number`), with radius 2cos(pi/h). One private type,
`_TopRoot`, holds p and a dyadic interval that contains its largest root
and no other root, and narrows it by halving: one exact value of p at the
midpoint keeps the half that holds the root. Above 2 the start is seeded at
the root: Newton's method in integer fixed point solves the tree's secular
equation (`_secular_radius`), and the cell of the halving grid of (2, max
degree + 1] that holds this estimate, at the level the caller asks for, is
kept once two exact values confirm it, or else the whole grid is the start
(`_starlike_top_root`). `spectral_radius` asks for the level of its output
grid, so its seeded interval is its answer, unless that grid is finer than
the doubles near the root: it then asks for cells at most 2^-60 wide and
halves on only while the two ends of its cell round to different doubles.
`compare_spectral_radii_exact` asks for the level that separates the two
estimates, and when they agree to 2^-128 for cells narrower than that.
Below 2 `spectral_radius` seeds its output cell the same way, from
2cos(pi/h) in fixed point (`_dynkin_radius`), in the grid of (c, 2] that
bisecting (-2, 2] moves to, c read off exact values at -1, 0 and 1; an
inertia count at the cell's lower end and one exact value at its upper end
confirm it (`_dynkin_top_root`). Only if they do not, and
for any other forest, it bisects (-2, 2], or (-(max degree + 1), max degree
+ 1], to an isolating interval. Isolation reads no polynomial: at each
midpoint it counts the eigenvalues above it with an O(n) congruence
diagonalization of the tree (Jacobs-Trevisan). Halving the isolating
interval visits the cells that rational bisection of the canonical interval
would, so the floats of `spectral_radius` do not depend on the seed;
`compare_spectral_radii_exact` halves the wider of two intervals until they
are disjoint, and only as a last resort, when both are narrower than 2^-128
and still overlap, decides equality by a gcd root in the overlap.

Floating point appears only where it is honest: reporting eigenvalue lists
and the Estrada index. A starlike tree's eigenvalues are read off its
branch list, as path eigenvalues and the roots of one secular equation
(`_starlike_spectrum`), whose top root is the float of `_secular_radius`
or `_dynkin_radius`; `eigenvalues` imports numpy, for a dense solve, only
for a graph that is not a starlike tree.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from typing import Callable, Sequence

from .partitions import Ordering, Partition
# re-exported: bench/tracing.py wraps these names here; they are the poly
# objects themselves, so its wrappers reach every caller
from .poly import IntPolynomial, charpoly, path_charpoly  # noqa: F401
from .poly import starlike_charpoly_factored, sturm_chain  # noqa: F401
from .poly import poly_gcd, starlike_charpoly
from .trees import Graph, is_connected, rooted_forest, starlike_branches


class DisconnectedError(ValueError):
    """The graph has two components or more: its top eigenvalue may repeat,
    and a repeated root never isolates."""


def _eigenvalues_above(
    g: Graph, order: list[int], parent: list[int], num: int, exp: int
) -> tuple[int, int]:
    """(eigenvalues above x, multiplicity of x) of the forest g, exactly, at
    x = num / 2^exp; (order, parent) is `trees.rooted_forest(g)`.

    Jacobs and Trevisan, "Locating the eigenvalues of trees" (LAA 434,
    2011): A - xI is diagonalized by congruence from the leaves up,
    d(v) = -x - sum of 1/d(c) over the children c of v, and by Sylvester's
    law of inertia the positive entries count the eigenvalues above x and
    the zero entries its multiplicity. A child with d(c) = 0 instead sets
    d(c) = 2, d(v) = -1/2 and cuts v from its parent. Each d(v) is a pair
    (f, h), d(v) = f/h with h > 0, kept without any gcd; the children's
    fractions are summed by one fold, (F, H) -> (F f, H f + F h). x is
    first put in lowest terms, which keeps every f and h short. O(n)
    integer operations.
    """
    shift = min((num & -num).bit_length() - 1, exp) if num else exp
    num, den = num >> shift, 1 << exp - shift
    d: list[tuple[int, int]] = [(0, 1)] * g.n
    cut = [False] * g.n
    for v in reversed(order):
        f_all, h_sum, zero = 1, 0, -1
        for c in g.adj[v]:
            if c == parent[v] or cut[c]:
                continue
            f, h = d[c]
            if f == 0:
                zero = c
                break
            f_all, h_sum = f_all * f, h_sum * f + f_all * h
        if zero >= 0:
            d[zero], d[v], cut[v] = (2, 1), (-1, 2), True
            continue
        f, h = -num * f_all - den * h_sum, den * f_all
        d[v] = (-f, -h) if h < 0 else (f, h)
    return sum(f > 0 for f, _ in d), sum(f == 0 for f, _ in d)


# a seeded start (`_starlike_top_root`, `_dynkin_top_root`) reads its
# estimate to this many bits beyond the level of its cell: an estimate a few
# units off then misses the cell of the root only if the root lies within
# about 2^-30 of a cell's width from its edge
_ESTIMATE_GUARD = 32
# `compare_spectral_radii_exact` runs the gcd test only on intervals narrower
# than 2^-_GCD_BITS
_GCD_BITS = 128
# `spectral_radius` seeds no cell narrower than 2^-_SEED_BITS: every radius
# is at least 1, where doubles lie 2^-52 apart or more, so the two ends of
# such a cell mostly round to one double already
_SEED_BITS = 60


class _TopRoot:
    """The largest root of a forest's charpoly p, isolated in the dyadic
    interval [a / 2^e, (a + w) / 2^e], integers w >= 0 and e >= 0.

    The root is simple (Perron) and the only root of p in the interval:
    either w > 0 and neither end is a root, or w = 0 and a / 2^e is the
    root itself. p is monic, hence negative just below its top root and
    positive above it.
    """

    def __init__(self, p: IntPolynomial, a: int, w: int, e: int):
        self.p, self.a, self.w, self.e = p, a, w, e

    def halve(self) -> None:
        """Keep the half that holds the root, by the sign of one exact value
        at the midpoint; a midpoint that is the root becomes the interval."""
        if not self.w:
            return
        self.a, self.e = self.a << 1, self.e + 1
        mid = self.a + self.w
        value = self.p.dyadic_value(mid, self.e)
        if value <= 0:
            self.a = mid
        if value == 0:
            self.w = 0


def _isolate_top_root(g: Graph, p: IntPolynomial, bound: int) -> _TopRoot:
    """Bisect (-bound, bound] until it holds one eigenvalue of g, the top root
    of its charpoly p.

    bound must exceed every |eigenvalue|. Each step counts the eigenvalues
    above the midpoint (`_eigenvalues_above`, on one rooting of g); a
    midpoint that is an eigenvalue moves to (lo + mid) / 2, so neither end
    is ever a root.
    """
    order, parent = rooted_forest(g)
    lo, hi, e = -bound, bound, 0
    above_lo, above_hi = g.n, 0
    while above_lo - above_hi > 1:
        lo, hi, mid, e = lo << 1, hi << 1, lo + hi, e + 1
        above, at = _eigenvalues_above(g, order, parent, mid, e)
        while at:
            lo, hi, mid, e = lo << 1, hi << 1, lo + mid, e + 1
            above, at = _eigenvalues_above(g, order, parent, mid, e)
        if above > above_hi:
            lo, above_lo = mid, above
        else:
            hi, above_hi = mid, above
    return _TopRoot(p, lo, hi - lo, e)


def _fixed_pow(q: int, a: int, prec: int) -> int:
    """q^a in fixed point, q and the result scaled by 2^prec, truncated
    after each product; 0 once a square drops below 2^-prec."""
    result = 1 << prec
    while True:
        if a & 1:
            result = result * q >> prec
        a >>= 1
        if not a:
            return result
        q = q * q >> prec
        if not q:
            return 0


def _secular_radius(parts: Sequence[int], bits: int) -> int:
    """The radius of S(parts), above 2, times 2^bits, to within a few units,
    by integer arithmetic alone.

    Above 2, put x = z + 1/z with z > 1 and q = z^-2 in (0, 1). Then
    P_a(x) = (z^(a+1) - z^-(a+1)) / (z - 1/z), and the secular equation
    x = sum_i P_(a_i - 1)(x) / P_(a_i)(x) of the top root (see
    `_starlike_spectrum`) reads F(q) = sum_i (1 - q^a_i) / (1 - q^(a_i + 1))
    - 1 - 1/q = 0, whose root gives x = (1 + q) / sqrt(q). Newton's method
    on F, in fixed point, starts from the infinite star's q = 1 / (k - 1),
    about q^a_min from the root, so a_min log2(k - 1) bits are right at
    once, and each step about doubles them. An error in q grows by at most
    (k - 1)^1.5 in x, which the extra bits of the fixed point absorb. The
    result is only an estimate: `_starlike_top_root` confirms it by exact
    signs, while the float top eigenvalue of `_starlike_spectrum` takes it
    unconfirmed, to 64 bits, where a few units are far below an ulp.
    """
    k, branches = len(parts), Counter(parts).items()
    prec = bits + 2 * k.bit_length() + 4
    one = 1 << prec
    q = one // (k - 1)
    for _ in range(_NEWTON_STEPS):
        # f = F(q) and slope = q F'(q), both scaled by 2^prec
        inverse = (one << prec) // q
        f, slope = -one - inverse, inverse
        for a, m in branches:
            qa = _fixed_pow(q, a, prec)
            qa1 = qa * q >> prec
            den = one - qa1
            f += m * ((one - qa) << prec) // den
            slope += m * (((a + 1) * qa1 * (one - qa) - a * qa * den) << prec) // (den * den)
        step = q * f // slope
        q = min(max(q - step, 1), one - 1)
        # convergence is quadratic: after a step below 2^(prec / 2) the
        # error is a few units
        if step * step >> prec == 0:
            break
    return ((one + q) << bits) // math.isqrt(q << prec)


def _grid_cell(
    p: IntPolynomial, c: int, w: int, e: int, level: int, x: int, bits: int
) -> _TopRoot:
    """The cell of the halving grid of (c / 2^e, (c + w) / 2^e] at this level
    that holds x / 2^bits, or the end cell nearer to x / 2^bits."""
    i = (((x << e) - (c << bits)) << level) // (w << bits)
    i = min(max(i, 0), (1 << level) - 1)
    return _TopRoot(p, (c << level) + i * w, w, e + level)


def _level(w: int, e: int, num: int, den: int) -> int:
    """The least L >= 0 with w / 2^(e + L) <= num / den, for num, den > 0 and
    w, e >= 0: the level of the halving grid w / 2^e wide whose cells are
    at most num / den wide. 2^t >= m first at t = bit length of m - 1."""
    return max(((w * den - 1) // num).bit_length() - e, 0) if w else 0


def _starlike_top_root(
    parts: Sequence[int], p: IntPolynomial, level: int, estimate: int, bits: int
) -> _TopRoot:
    """The `_TopRoot` of S(parts), whose charpoly p is negative at 2, started
    at the cell of the halving grid of (2, k + 1] at this level that holds
    the estimate / 2^bits of the root (`_secular_radius`).

    Deleting the center leaves paths, whose eigenvalues lie in (-2, 2); by
    interlacing p has at most one root in [2, inf), so p(2) < 0, = 0, > 0
    puts the top root above, at, below 2 (below 2, see `_dynkin_top_root`).
    Above 2 there are k = len(parts) >= 3 branches and the root lies in
    (2, k + 1]. The cell is kept once its two exact end values have
    opposite signs; an end where p is 0 is the root itself, a point
    interval. Otherwise the start is the whole (2, k + 1], which
    `_TopRoot.halve` narrows through the same grid.
    """
    k = len(parts)
    root = _grid_cell(p, 2, k - 1, 0, level, estimate, bits)
    fa, fb = (p.dyadic_value(x, root.e) for x in (root.a, root.a + root.w))
    if fa < 0 < fb:
        return root
    if fa == 0 or fb == 0:
        return _TopRoot(p, root.a if fa == 0 else root.a + root.w, 0, root.e)
    return _TopRoot(p, 2, k - 1, 0)


def _dynkin_radius(h: int, bits: int) -> int:
    """2cos(pi/h), the radius of a tree with Coxeter number h >= 3
    (`_coxeter_number`), times 2^bits, to within a few units, by integer
    arithmetic alone.

    pi comes from Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239), and
    the cosine from its Taylor series at pi/h <= pi/3, each in fixed point
    with enough extra bits to absorb one unit of truncation per term. Like
    `_secular_radius` it is only an estimate: `_dynkin_top_root` confirms
    it exactly, and the float top of `_starlike_spectrum` takes it as is.
    """
    prec = bits + bits.bit_length() + 8
    one = 1 << prec

    def atan_inverse(m: int) -> int:
        # atan(1/m) = sum_j (-1)^j / ((2j + 1) m^(2j + 1))
        total, power, j = 0, one // m, 0
        while power:
            term = power // (2 * j + 1)
            total += -term if j & 1 else term
            power, j = power // (m * m), j + 1
        return total

    x = (16 * atan_inverse(5) - 4 * atan_inverse(239)) // h
    # cos x = sum_j (-1)^j x^(2j) / (2j)!
    total, term, j = 0, one, 0
    while term:
        total += -term if j & 1 else term
        j += 1
        term = (term * x * x >> 2 * prec) // (2 * j * (2 * j - 1))
    return total >> (prec - bits - 1)


def _dynkin_top_root(
    g: Graph, parts: Sequence[int], p: IntPolynomial, num: int, den: int
) -> _TopRoot:
    """The `_TopRoot` of the starlike tree g = S(parts), whose radius is
    below 2, at the cell, at most num / den wide, of the halving grid that
    `_isolate_top_root` on (-2, 2] and halving would pass through.

    g is a Dynkin diagram, with radius 2cos(pi/h) (`_coxeter_number`). The
    bisection moves a midpoint that is an eigenvalue down to (lo + mid) / 2,
    and a rational eigenvalue is an integer, so it moves only 0 (to -1, and
    -1 to -3/2) and 1 (to 1/2). From there on it visits the cells of one
    halving grid of (c, 2], c read off exact values at integers and held
    here as 2c: -3/2 if p(0) = p(-1) = 0, -1 if only p(0) = 0, 1/2 if
    p(0) != 0 = p(1) and n >= 3, else -2 (P_2 stops at (0, 2] before it
    reaches 1). No grid but the last has an integer inside, and there -1,
    0 and 1 are roots of P_2 alone. The cell of the output level that holds the
    estimate `_dynkin_radius` is kept once exactly one eigenvalue lies above
    its lower end (`_eigenvalues_above`) and p is positive at its upper end:
    the bisection stopped at or above that level, and halving from there
    ends in it. Otherwise, as for P_2, whose root 1 is a point of its grid,
    the start is the bisection's isolating interval.
    """
    if p.dyadic_value(0, 0) == 0:
        c = -3 if p.dyadic_value(-1, 0) == 0 else -2
    elif g.n >= 3 and p.dyadic_value(1, 0) == 0:
        c = 1
    else:
        c = -4
    level = _level(4 - c, 1, num, den)
    bits = level + _ESTIMATE_GUARD
    estimate = _dynkin_radius(_coxeter_number(parts), bits)
    root = _grid_cell(p, c, 4 - c, 1, level, estimate, bits)
    order, parent = rooted_forest(g)
    if (
        _eigenvalues_above(g, order, parent, root.a, root.e) == (1, 0)
        and p.dyadic_value(root.a + root.w, root.e) > 0
    ):
        return root
    return _isolate_top_root(g, p, 2)


def _separating_level(k: int, gap: int) -> int:
    """The level of the halving grid of (2, k + 1] whose cells are at most
    a quarter of the gap between two estimates read to _GCD_BITS +
    _ESTIMATE_GUARD bits, or, if that is finer, the first whose cells are
    narrower than 2^-_GCD_BITS."""
    cap = _GCD_BITS + (k - 1).bit_length()
    return min(_level(k - 1, 0, gap, 4 << _GCD_BITS + _ESTIMATE_GUARD), cap) if gap else cap


def _coxeter_number(parts: Sequence[int]) -> int:
    """The Coxeter number h of S(parts), a tree whose radius is below 2.

    Smith (1970; also Cvetkovic, Rowlinson and Simic, An Introduction to
    the Theory of Graph Spectra): a connected graph with spectral radius
    below 2 is a simply laced Dynkin diagram, and its radius is 2cos(pi/h).
    As starlike trees these are the paths A_n, h = n + 1, D_n = S(1,1,n-3),
    h = 2n - 2, and E_6, E_7, E_8 = S(1,2,2), S(1,2,3), S(1,2,4),
    h = 12, 18, 30; the radius grows with h.
    """
    a, n = sorted(parts), sum(parts) + 1
    if len(a) <= 2:
        return n + 1
    if a[1] == 1:
        return 2 * n - 2
    return {(1, 2, 2): 12, (1, 2, 3): 18, (1, 2, 4): 30}[tuple(a)]


def spectral_radius(g: Graph, tol: float = 1e-10) -> float:
    """Largest adjacency eigenvalue by exact halving on the charpoly.

    The result is the float of the midpoint of the cell, at most tol wide,
    that holds the root in the halving grid of the canonical interval: the
    cell rational bisection would end in. That interval is (2, max degree
    + 1] for a starlike tree with its root above 2, and the grid of (c, 2]
    that bisecting (-2, 2] moves to for one below 2 (`_dynkin_top_root`);
    either seeded start is the cell itself, or, for a tol below 2^-60, the
    cell at most 2^-60 wide that holds it, so the float does not depend on
    the seed. Any other forest bisects (-(max degree + 1), max degree + 1] to
    its isolating interval. A root that a midpoint hits is returned itself.

    Halving stops early once both ends of the cell round to one double.
    Int division rounds correctly, hence monotonically, so every point of
    the cell rounds to that double too, the midpoint of the cell at tol
    included: the float is the same.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if g.n == 0 or g.edge_count == 0:
        raise ValueError("spectral radius needs a connected graph with an edge")
    # the recognizer returns branches for a tree only, so the walk that
    # tells a disconnected graph from a cyclic one runs for no starlike tree
    branches = starlike_branches(g)
    if branches is None and not is_connected(g):
        raise DisconnectedError("spectral radius needs a connected graph")
    num, den = tol.as_integer_ratio()
    # the seed's width: tol, unless that is finer than the doubles need
    seed_num, seed_den = max(tol, 2.0**-_SEED_BITS).as_integer_ratio()
    p = charpoly(g)
    side = 1 if branches is None else p.sign_at(2)
    if side < 0:
        # the seed is the cell of the seed's grid that holds the root
        level = _level(len(branches) - 1, 0, seed_num, seed_den)
        bits = level + _ESTIMATE_GUARD
        estimate = _secular_radius(branches.parts, bits)
        root = _starlike_top_root(branches.parts, p, level, estimate, bits)
    elif side == 0:
        return 2.0
    elif branches is not None:
        root = _dynkin_top_root(g, branches.parts, p, seed_num, seed_den)
    else:
        # |eigenvalues| < max degree + 1
        root = _isolate_top_root(g, p, g.max_degree() + 1)
    for _ in range(_level(root.w, root.e, num, den)):
        scale = 1 << root.e
        if root.a / scale == (root.a + root.w) / scale:
            break
        root.halve()
    return (2 * root.a + root.w) / (1 << root.e + 1)  # correctly rounded


def compare_spectral_radii_exact(alpha: Partition, beta: Partition) -> Ordering:
    """Certified order of the spectral radii of S(alpha) and S(beta).

    Never touches floats. Identical polynomials certify equality at once;
    else the signs at 2 decide, then below 2 the Coxeter numbers. Above 2
    both intervals start at the level of their grids that separates the two
    secular estimates, or, if these agree to 2^-128, narrower than 2^-128.
    Their ends and widths are compared on the larger of the two exponents.
    Two point intervals at one root are equal; otherwise the wider interval
    is halved until the two are disjoint, as unequal radii are after
    finitely many steps. Only if both are narrower than 2^-128 and still
    overlap does a gcd root in the overlap decide equality, once.
    """
    pa, pb = starlike_charpoly(alpha), starlike_charpoly(beta)
    if pa == pb:
        return Ordering.EQUAL
    # the larger p(2), the smaller the radius (see _starlike_top_root)
    sa, sb = pa.sign_at(2), pb.sign_at(2)
    if sa != sb or sa == 0:
        return Ordering((sa < sb) - (sa > sb))
    if sa > 0:
        ha, hb = _coxeter_number(alpha.parts), _coxeter_number(beta.parts)
        return Ordering((ha > hb) - (ha < hb))
    # both start at the level that separates their estimates, or that the
    # gcd test takes if the estimates agree to 2^-128
    bits = _GCD_BITS + _ESTIMATE_GUARD
    xa, xb = _secular_radius(alpha.parts, bits), _secular_radius(beta.parts, bits)
    ra, rb = (
        _starlike_top_root(t.parts, p, _separating_level(len(t.parts), abs(xa - xb)), x, bits)
        for t, p, x in ((alpha, pa, xa), (beta, pb, xb))
    )
    gcd_tested = False
    while True:
        e = max(ra.e, rb.e)
        a, wa = ra.a << e - ra.e, ra.w << e - ra.e
        b, wb = rb.a << e - rb.e, rb.w << e - rb.e
        if a + wa <= b:
            # a point interval's end is the root, any other end is not one
            return Ordering.EQUAL if a == b + wb else Ordering.LESS
        if b + wb <= a:
            return Ordering.GREATER
        if not gcd_tested and max(wa, wb) << _GCD_BITS < 1 << e:
            gcd_tested = True
            # each interval holds no other root of its charpoly, so the gcd
            # has a root in the overlap iff the top roots coincide, and it
            # is simple
            shared = poly_gcd(pa, pb)
            lo, hi = max(a, b), min(a + wa, b + wb)
            if shared.dyadic_value(lo, e) * shared.dyadic_value(hi, e) <= 0:
                return Ordering.EQUAL
        (ra if wa >= wb else rb).halve()


# ---------------------------------------------------------------------------
# Float reporting layer


def eigenvalues(g: Graph) -> tuple[float, ...]:
    """All adjacency eigenvalues, descending.

    A starlike tree's (paths included) are read off its branch list
    (`_starlike_spectrum`), each to within a few ulps; they differ from a
    dense solver's in the last digits only (below 1e-14 at n = 271). Any
    other graph takes numpy's dense symmetric solver, accurate to what
    LAPACK delivers, around 1e-13 * n in practice; without numpy installed,
    such a graph raises ValueError.
    """
    if g.n <= 1:  # P_1 is starlike, with no branch to read
        return (0.0,) * g.n
    branches = starlike_branches(g)
    if branches is not None:
        return _starlike_spectrum(branches.parts)
    try:
        import numpy as np  # here, so that no exact layer or starlike tree loads numpy
    except ImportError:
        raise ValueError(
            "the spectrum of a graph that is not a starlike tree needs numpy; "
            "install it with: pip install numpy"
        ) from None

    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for w in g.adj[u]:
            a[u, w] = 1.0
    vals = np.linalg.eigvalsh(a)
    return tuple(sorted((float(v) for v in vals), reverse=True))


def estrada_index(eigs: tuple[float, ...]) -> float:
    """Sum of exp(eigenvalue) over a spectrum from `eigenvalues`."""
    return math.fsum(math.exp(v) for v in eigs)


def _starlike_spectrum(parts: Sequence[int]) -> tuple[float, ...]:
    """The adjacency spectrum of S(parts), descending, with no matrix.

    Cvetkovic, Rowlinson and Simic, An Introduction to the Theory of Graph
    Spectra: expanding at the center, the charpoly is f(x) prod_i P_(a_i)(x)
    with f(x) = x - sum_i P_(a_i - 1)(x) / P_(a_i)(x), P_a the path's
    charpoly. Each term is a sum of w / (x - mu) over the eigenvalues mu of
    P_a with weights w > 0, so f increases between neighbouring poles, from
    -inf to +inf. Hence each gap between neighbouring distinct poles holds
    exactly one eigenvalue, one more lies beyond each end, and a pole shared
    by c branches is an eigenvalue of multiplicity c - 1; that counts all n.
    The poles are 2cos(j pi / (a + 1)), j = 1..a, keyed by the reduced
    fraction j / (a + 1), so equal poles of different branches merge
    exactly. With x = 2cos(theta), P_(a-1)/P_a = sin(a theta) /
    sin((a + 1) theta). The top eigenvalue is above, at or below 2 as
    f(2) = 2 - sum_i a_i / (a_i + 1) is negative, zero or positive, decided
    exactly; it is read off the exact layer, not solved here: above 2 from
    `_secular_radius`, below 2 from `_dynkin_radius`, 2cos(pi/h) with h the
    Coxeter number (`_coxeter_number`), each to 64 fractional bits. A tree
    is bipartite, so its spectrum is symmetric: only x > 0 (theta < pi/2)
    is solved, mirrored, and 0 fills the rest. Each other root is one
    `_newton` in theta, in a gap (lo, hi) between poles on g(theta)
    (theta - lo)(hi - theta), which has the sign and the root of g there
    but no pole at either end.
    """
    n, branches = sum(parts) + 1, sorted(Counter(parts).items())
    poles: dict[tuple[int, int], int] = {}
    for a, m in branches:
        for j in range(1, (a + 1) // 2 + 1):
            d = math.gcd(j, a + 1)
            key = (j // d, (a + 1) // d)
            poles[key] = poles.get(key, 0) + m
    # two fractions with denominators below 2^26 differ by more than
    # their rounding, so the floats sort them and none collide
    keys = sorted(poles, key=lambda key: key[0] / key[1])
    thetas = [math.pi * j / q for j, q in keys]

    def secular(theta: float) -> tuple[float, float]:
        # f(2cos theta) and its theta derivative
        s, c = math.sin(theta), math.cos(theta)
        value, slope = 2 * c, -2 * s
        for a, m in branches:
            sa, ca = math.sin(a * theta), math.cos(a * theta)
            sb, cb = sa * c + ca * s, ca * c - sa * s  # at (a + 1) theta
            ratio = sa / sb
            value -= m * ratio
            slope -= m * (a * ca - (a + 1) * ratio * cb) / sb
        return value, slope

    def in_gap(lo: float, hi: float) -> float:
        def cancelled(theta: float) -> tuple[float, float]:
            value, slope = secular(theta)
            q = (theta - lo) * (hi - theta)
            return value * q, slope * q + value * (lo + hi - 2 * theta)

        return 2 * math.cos(_newton(cancelled, lo, hi))

    lcm = math.lcm(*(a + 1 for a, _ in branches))  # excess is f(2) times it
    excess = 2 * lcm - sum(m * a * lcm // (a + 1) for a, m in branches)
    # either estimate is a few units of 2^-64 off, and rounds once
    if excess < 0:
        top = _secular_radius(parts, 64) / (1 << 64)
    elif excess == 0:
        top = 2.0
    else:
        top = _dynkin_radius(_coxeter_number(parts), 64) / (1 << 64)
    positive = [top]
    for i, key in enumerate(keys):
        if key == (1, 2):  # the pole at 0
            break
        positive += [2 * math.cos(thetas[i])] * (poles[key] - 1)
        if i + 1 < len(keys):
            positive.append(in_gap(thetas[i], thetas[i + 1]))
    zeros = n - 2 * len(positive)
    return (*positive, *[0.0] * zeros, *(-x for x in reversed(positive)))


# Newton steps before `_newton` falls back to bisection alone, and the most
# that `_secular_radius` takes
_NEWTON_STEPS = 40


def _newton(fn: Callable[[float], tuple[float, float]], lo: float, hi: float) -> float:
    """The root in (lo, hi) of fn, which returns (value, derivative), is
    positive near lo, negative near hi, and has no other root there.

    Newton's method from the midpoint. Every value narrows the bracket, and
    a step that leaves it, or any step after `_NEWTON_STEPS`, bisects it
    instead. It stops once a step is within a few ulps of x, or the bracket
    holds no float between its ends.
    """
    x = 0.5 * (lo + hi)
    for i in itertools.count():
        value, slope = fn(x)
        if value == 0:
            return x
        if value > 0:
            lo = x
        else:
            hi = x
        step = value / slope if slope else math.inf
        if abs(step) <= 4 * sys.float_info.epsilon * abs(x):
            return x - step
        x -= step
        if not lo < x < hi or i >= _NEWTON_STEPS:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return x
