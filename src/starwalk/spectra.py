"""Certified spectral-radius comparisons on exact characteristic polynomials.

Adjacency spectral radii of same-order starlike trees can agree to far more
digits than a double carries (the gap decays exponentially in branch length),
so any float eigensolver reports ties. Order is decided here with integer
polynomial arithmetic instead. Characteristic polynomials come exactly from
`poly` (and are re-exported here). One private type, `_TopRoot`, holds a
charpoly p and a rational interval that contains its largest root and no
other root. For a starlike tree the sign of p(2) picks the start: the root is
2 itself, or it lies in (2, max degree + 1], or a Sturm chain isolates it in
(-2, 2]. Any other graph is Sturm-isolated in (-(max degree + 1), max
degree + 1]. The one refinement step is a sign test of p at the midpoint.
`spectral_radius` narrows one interval to the tolerance;
`compare_spectral_radii_exact` narrows two until they are disjoint, or until
a gcd root in their overlap certifies equality.

Floating point appears only where it is honest: reporting eigenvalue lists
and the Estrada index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partitions import Ordering, Partition
from .poly import ONE, X, IntPolynomial, charpoly, path_charpoly  # noqa: F401 (re-exported)
from .trees import Graph, is_connected, is_starlike, make_starlike


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of lc(b)^(deg a - deg b + 1) * a modulo b, exact over Z."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    ra = list(a.coeffs)
    db, lb = b.degree, b.leading
    da = len(ra) - 1
    if da < db:
        return a
    for k in range(da, db - 1, -1):
        head = ra[k]
        for i in range(len(ra)):
            ra[i] *= lb
        if head:
            for i in range(db + 1):
                ra[i + k - db] -= head * b.coeffs[i]
        assert ra[k] == 0
    return IntPolynomial(ra[:db])


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        a, b = b, _pseudo_rem(a, b).primitive()
    if a.leading < 0:
        a = -a
    return a


def starlike_charpoly_factored(
    c: int, d: int, q: int
) -> tuple[IntPolynomial, int, IntPolynomial]:
    """Factored characteristic polynomial of S(c, d, ..., d) with q copies of d.

    Returns (P_d, q-1, core) with core = P_{c+d+1} - (q-1) P_c P_{d-1}; the
    full polynomial is P_d^(q-1) * core. Repeated equal branches force the
    path factor; only the core carries the spectral radius once it exceeds 2.
    """
    if q < 2:
        raise ValueError("need at least two equal branches")
    if c < 1 or d < 1:
        raise ValueError("branch lengths must be positive")
    core = path_charpoly(c + d + 1) - (q - 1) * (path_charpoly(c) * path_charpoly(d - 1))
    return path_charpoly(d), q - 1, core


# ---------------------------------------------------------------------------
# Sturm chains and exact root work


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Signed primitive remainder sequence of (p, p').

    Each element may be scaled by any positive constant without changing
    sign-variation counts, so pseudo-remainders are divided by their content;
    the sign flip of the classical chain is preserved explicitly. Works for
    non-squarefree p too: variation differences then count distinct roots.
    """
    chain = [p.primitive()]
    d = p.derivative().primitive()
    if d.is_zero():
        return chain
    chain.append(d)
    while True:
        a, b = chain[-2], chain[-1]
        if b.degree <= 0:
            break
        scale_sign = 1 if b.leading > 0 or (a.degree - b.degree) % 2 == 1 else -1
        r = _pseudo_rem(a, b)
        if r.is_zero():
            break
        chain.append((-r if scale_sign > 0 else r).primitive())
    return chain


def _variations(signs: list[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def variations_at(chain: list[IntPolynomial], x: Fraction) -> int:
    return _variations([p.sign_at(x) for p in chain])


def count_roots_in(chain: list[IntPolynomial], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi]; endpoints must not be roots of chain[0]."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if chain[0].sign_at(lo) == 0 or chain[0].sign_at(hi) == 0:
        raise ValueError("endpoint is a root; pick a different endpoint")
    return variations_at(chain, lo) - variations_at(chain, hi)


_TWO = Fraction(2)
_EQUALITY_WIDTH = Fraction(1, 1 << 64)


class _TopRoot:
    """The largest root of a graph's charpoly p, isolated in an interval.

    The root is simple (Perron) and the only root of p in [lo, hi]: either
    lo < hi and neither end is a root, or lo == hi is the root itself. p is
    monic, hence positive above its top root, so one sign test at a midpoint
    says which half keeps the root.
    """

    def __init__(self, g: Graph, p: IntPolynomial):
        self.p = p
        # the max degree bounds every |eigenvalue|; +1 makes the bound strict
        bound = Fraction(g.max_degree() + 1)
        if is_starlike(g):
            # deleting the center leaves paths, whose eigenvalues lie in
            # (-2, 2); by interlacing p has at most one root in [2, inf), so
            # p(2) < 0, = 0, > 0 puts the top root above, at, below 2
            s = p.sign_at(_TWO)
            if s <= 0:
                self.lo, self.hi = _TWO, _TWO if s == 0 else bound
                return
            bound = _TWO
        # Sturm bisection of (-bound, bound], keeping the variation counts
        # at both ends; a midpoint that is a root moves towards lo
        chain = sturm_chain(p)
        lo, hi = -bound, bound
        v_lo, v_hi = variations_at(chain, lo), variations_at(chain, hi)
        while v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            while p.sign_at(mid) == 0:
                mid = (lo + mid) / 2
            v_mid = variations_at(chain, mid)
            if v_mid > v_hi:
                lo, v_lo = mid, v_mid
            else:
                hi, v_hi = mid, v_mid
        self.lo, self.hi = lo, hi

    def narrow(self, width: Fraction) -> None:
        """Bisect until hi - lo <= width, one sign test of p per step."""
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            s = self.p.sign_at(mid)
            if s == 0:  # p is monic: only an integer midpoint gets here
                self.lo = self.hi = mid
            elif s > 0:
                self.hi = mid
            else:
                self.lo = mid


def spectral_radius(g: Graph, tol: float = 1e-10) -> float:
    """Largest adjacency eigenvalue by exact bisection on the charpoly.

    The result is the midpoint of a final interval at most tol wide.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if g.n == 0 or g.edge_count == 0:
        raise ValueError("spectral radius needs a connected graph with an edge")
    if not is_connected(g):
        raise ValueError("spectral radius needs a connected graph")
    root = _TopRoot(g, charpoly(g))
    root.narrow(Fraction(tol))
    return float((root.lo + root.hi) / 2)


def compare_spectral_radii_exact(alpha: Partition, beta: Partition) -> Ordering:
    """Certified order of the spectral radii of S(alpha) and S(beta).

    Never touches floats. Identical polynomials or a shared top root (caught
    by a gcd with a root where the two intervals overlap) certify equality;
    anything else separates after finitely many rational bisections.
    """
    ga, gb = make_starlike(alpha).graph, make_starlike(beta).graph
    pa, pb = charpoly(ga), charpoly(gb)
    if pa == pb:
        return Ordering.EQUAL
    # the larger p(2), the smaller the radius (see _TopRoot)
    sa, sb = pa.sign_at(_TWO), pb.sign_at(_TWO)
    if sa != sb or sa == 0:
        return Ordering((sa < sb) - (sa > sb))
    a, b = _TopRoot(ga, pa), _TopRoot(gb, pb)
    width = max(a.hi - a.lo, b.hi - b.lo)
    gcd_checked = False
    while True:
        # the roots lie in [lo, hi]; touching ends separate unless both are points
        if a.hi <= b.lo and a.lo < b.hi:
            return Ordering.LESS
        if b.hi <= a.lo and b.lo < a.hi:
            return Ordering.GREATER
        if width < _EQUALITY_WIDTH and not gcd_checked:
            # each interval holds no other root of its charpoly, so the gcd
            # has a root in the overlap iff the top roots coincide; the ends
            # of an overlap wider than a point are not roots of the gcd
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            shared = poly_gcd(pa, pb)
            if shared.sign_at(lo) * shared.sign_at(hi) <= 0:
                return Ordering.EQUAL
            gcd_checked = True
        width /= 2
        a.narrow(width)
        b.narrow(width)


# ---------------------------------------------------------------------------
# Float reporting layer


@dataclass(frozen=True)
class Spectrum:
    """All adjacency eigenvalues, descending, with the accuracy they carry."""

    eigenvalues: tuple[float, ...]
    tol: float


def eigenvalues(g: Graph, tol: float = 1e-10) -> Spectrum:
    """Eigenvalues via a dense symmetric solver.

    Accuracy is what LAPACK delivers (around 1e-13 * n in practice); tol
    below that is rejected rather than silently missed.
    """
    if tol < 1e-13:
        raise ValueError("tol below float eigensolver accuracy")
    if g.n == 0:
        return Spectrum((), tol)
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for w in g.adj[u]:
            a[u, w] = 1.0
    vals = np.linalg.eigvalsh(a)
    return Spectrum(tuple(sorted((float(v) for v in vals), reverse=True)), tol)


def estrada_index(g: Graph, tol: float = 1e-10) -> float:
    """Sum of exp(eigenvalue) over the spectrum."""
    return float(sum(np.exp(v) for v in eigenvalues(g, tol).eigenvalues))
