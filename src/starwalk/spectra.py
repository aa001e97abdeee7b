"""Certified spectral-radius comparisons on exact characteristic polynomials.

Adjacency spectral radii of same-order starlike trees can agree to far more
digits than a double carries (the gap decays exponentially in branch length),
so any float eigensolver reports ties. Order is decided here with integer
polynomial arithmetic instead: characteristic polynomials come exactly from
`poly` (and are re-exported here), root counts come from Sturm chains, and
comparisons bisect with rational sign tests until the order is certified or
a gcd certifies equality.

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


def _upper_root_bound(g: Graph) -> int:
    # max degree dominates the spectral radius; +1 makes it strict
    return g.max_degree() + 1


def _nonroot_point(lo: Fraction, hi: Fraction, polys: list[IntPolynomial]) -> Fraction:
    """A rational point in (lo, hi) at which none of polys vanish."""
    step = (hi - lo) / 2
    mid = lo + step
    while True:
        if all(p.sign_at(mid) != 0 for p in polys):
            return mid
        step /= 2
        mid = lo + step


def _isolate_top_root(p: IntPolynomial, hi_bound: Fraction) -> tuple[Fraction, Fraction]:
    """Interval (lo, hi] holding exactly one distinct root of p, the largest.

    Endpoints are non-roots, so a sign change brackets the root whenever its
    multiplicity is odd (always the case for the Perron root).
    """
    chain = sturm_chain(p)
    lo = -hi_bound
    hi = hi_bound
    while p.sign_at(lo) == 0:
        lo -= 1
    while p.sign_at(hi) == 0:
        hi += 1
    if count_roots_in(chain, lo, hi) < 1:
        raise ValueError("polynomial has no real root in range")
    while count_roots_in(chain, lo, hi) > 1:
        mid = _nonroot_point(lo, hi, [p])
        if count_roots_in(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _sign_class_at_two(p: IntPolynomial) -> int:
    """-1, 0, +1 for lambda_1 below, at, or above 2 on starlike charpolys.

    Valid because deleting the center (or a path leaf) leaves disjoint paths,
    whose eigenvalues stay inside (-2, 2); interlacing then pins lambda_2 < 2,
    so the charpoly has at most one root in [2, inf) and its sign at 2 tells
    which side lambda_1 is on.
    """
    s = p.sign_at(Fraction(2))
    return -s


def spectral_radius(g: Graph, tol: float = 1e-10) -> float:
    """Largest adjacency eigenvalue by exact bisection on the charpoly.

    For starlike trees (paths included) with lambda_1 > 2 the interval (2, up]
    provably brackets only the Perron root and plain rational sign bisection
    suffices; otherwise a Sturm chain first isolates the top root. The result
    is the midpoint of a final interval narrower than tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if g.n == 0 or g.edge_count == 0:
        raise ValueError("spectral radius needs a connected graph with an edge")
    if not is_connected(g):
        raise ValueError("spectral radius needs a connected graph")
    p = charpoly(g)
    hi_bound = Fraction(_upper_root_bound(g))
    if is_starlike(g):
        cls = _sign_class_at_two(p)
        if cls == 0:
            return 2.0
        if cls > 0:
            lo, hi = Fraction(2), hi_bound
        else:
            lo, hi = _isolate_top_root(p, Fraction(2))
    else:
        lo, hi = _isolate_top_root(p, hi_bound)
    # one simple root inside: p(lo) and p(hi) have opposite signs
    goal = Fraction(tol)
    sign_hi = p.sign_at(hi)
    while hi - lo > goal:
        mid = (lo + hi) / 2
        s = p.sign_at(mid)
        if s == 0:
            return float(mid)
        if s == sign_hi:
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


def compare_spectral_radii_exact(alpha: Partition, beta: Partition) -> Ordering:
    """Certified order of the spectral radii of S(alpha) and S(beta).

    Never touches floats. Identical polynomials or a shared top root (caught
    by a gcd with a root in the remaining interval) certify equality; anything
    else separates after finitely many rational bisections.
    """
    ga, gb = make_starlike(alpha).graph, make_starlike(beta).graph
    pa, pb = charpoly(ga), charpoly(gb)
    if pa == pb:
        return Ordering.EQUAL
    ca, cb = _sign_class_at_two(pa), _sign_class_at_two(pb)
    if ca != cb:
        return Ordering.LESS if ca < cb else Ordering.GREATER
    if ca == 0:
        return Ordering.EQUAL
    bound = Fraction(max(_upper_root_bound(ga), _upper_root_bound(gb)))
    if ca > 0:
        # both radii in (2, bound], each the only root of its charpoly there
        lo, hi = Fraction(2), bound
        shared = None
        while True:
            mid = _nonroot_point(lo, hi, [pa, pb])
            above_a = pa.sign_at(mid) < 0
            above_b = pb.sign_at(mid) < 0
            if above_a != above_b:
                return Ordering.GREATER if above_a else Ordering.LESS
            if above_a:
                lo = mid
            else:
                hi = mid
            if hi - lo < Fraction(1, 1 << 64):
                if shared is None:
                    shared = poly_gcd(pa, pb)
                if shared.degree >= 1 and shared.sign_at(lo) * shared.sign_at(hi) < 0:
                    return Ordering.EQUAL
    # both radii below 2: roots may cluster, count them with Sturm chains.
    # lo = 1/2 is never a root (adjacency eigenvalues are algebraic integers)
    # and sits below every top eigenvalue of a graph with an edge.
    chain_a, chain_b = sturm_chain(pa), sturm_chain(pb)
    lo, hi = Fraction(1, 2), Fraction(2)
    shared = None
    shared_chain = None
    while True:
        mid = _nonroot_point(lo, hi, [pa, pb])
        na = count_roots_in(chain_a, mid, hi)
        nb = count_roots_in(chain_b, mid, hi)
        if na >= 1 and nb == 0:
            return Ordering.GREATER
        if nb >= 1 and na == 0:
            return Ordering.LESS
        if na >= 1:
            lo = mid
        else:
            hi = mid
        if count_roots_in(chain_a, lo, hi) == 1 and count_roots_in(chain_b, lo, hi) == 1:
            if shared is None:
                shared = poly_gcd(pa, pb)
                shared_chain = sturm_chain(shared) if shared.degree >= 1 else None
            if shared_chain is not None and count_roots_in(shared_chain, lo, hi) >= 1:
                # the single roots of both polynomials here coincide
                return Ordering.EQUAL


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
