"""Dense integer polynomials and exact characteristic polynomials of forests.

Pure Python on unbounded integers, no floating point and no numpy, so the
walk kernel can build on it without pulling in the spectral layer. This is
the one module that reads a polynomial's coefficients: `IntPolynomial`
adds and multiplies on the series loops below, and pseudo-remainders give
the gcd and Sturm chains. Starlike trees (paths included) take a closed
form over path polynomials; every other forest takes Schwenk's
edge-deletion recurrence. Both run on the charpoly read from its top
coefficient down, so a caller that needs only the top few coefficients
pays only for those, and both fold subtrees into their root by one product
rule (`_merge`). The closed form also runs on branch lists with no tree
built: `starlike_series` folds a whole chain of them, sharing the work of
common prefixes, and `starlike_charpoly` reads one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Iterator, Sequence

from .trees import Graph, starlike_branches


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients ascending; () is forbidden,
    the zero polynomial is (0,)."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_series_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + -other

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-v for v in self.coeffs])

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([other * v for v in self.coeffs])
        a, b = self.coeffs, other.coeffs
        return IntPolynomial(_series_mul(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative power")
        result = IntPolynomial([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def dyadic_value(self, num: int, exp: int) -> int:
        """2^(exp * degree) * p(num / 2^exp), an exact integer: Horner with
        shifts in place of powers of the denominator."""
        acc = 0
        shift = 0
        for c in reversed(self.coeffs):
            acc = acc * num + (c << shift)
            shift += exp
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Exact sign at a rational point, via integer-scaled Horner."""
        p, q = x.numerator, x.denominator
        acc = 0
        qpow = 1
        for c in reversed(self.coeffs):
            acc = acc * p + c * qpow
            qpow *= q
        # note qpow overshoots by one factor at the end; sign is unaffected
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "IntPolynomial":
        if self.degree <= 0:
            return IntPolynomial([0])
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPolynomial":
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial([c // g for c in self.coeffs])


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


class CycleError(ValueError):
    """The graph has a cycle; the charpoly routines here take forests only."""


# A forest's charpoly is x^n + c_2 x^(n-2) + c_4 x^(n-4) + ... (it is
# bipartite, so odd offsets vanish) with c_2j = (-1)^j times the number of
# j-edge matchings. Read from the top it is the series c_0 + c_2 s + c_4 s^2
# + ... in s = x^-2, and every step of the recurrences below is a sum or
# product of such series. Cutting each series after `terms` coefficients
# therefore keeps the kept ones exact, and a forest on n vertices costs at
# most O(n terms^2) integer products instead of O(n^2). The same two loops
# add and multiply IntPolynomials, on ascending coefficients, uncut.


def _series_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out


def _series_mul(a: Sequence[int], b: Sequence[int], terms: int) -> list[int]:
    """Product of two series, cut after `terms` coefficients."""
    out = [0] * max(0, min(len(a) + len(b) - 1, terms))
    for i, ai in enumerate(a[: len(out)]):
        if ai:
            for j, bj in enumerate(b[: len(out) - i], i):
                out[j] += ai * bj
    return out


def _path_series(a: int, terms: int) -> list[int]:
    """P_a as a series: the path on a vertices has C(a - j, j) j-edge matchings."""
    return [(-1) ** j * comb(a - j, j) for j in range(min(a // 2 + 1, terms))]


def _merge(
    acc: tuple[list[int], list[int]], child: tuple[list[int], list[int]], terms: int
) -> tuple[list[int], list[int]]:
    """The product rule that folds one more subtree (f, g) into the series
    (F, G) of the subtrees folded so far: (F f, G f + F g)."""
    (f_all, g_all), (f, g) = acc, child
    return (
        _series_mul(f_all, f, terms),
        _series_add(_series_mul(g_all, f, terms), _series_mul(f_all, g, terms)),
    )


def _close(acc: tuple[list[int], list[int]], terms: int) -> list[int]:
    """phi of the root joined to the folded subtrees, F - s G (see `_join_at_root`)."""
    f_all, g_all = acc
    return _series_add(f_all, [0] + [-v for v in g_all])[:terms]


def _join_at_root(
    children: Iterable[tuple[list[int], list[int]]], terms: int
) -> tuple[list[int], list[int]]:
    """Series of (phi(T), phi(T - r)) for a new root r joined to disjoint subtrees.

    Each child is (F, G): F = phi of the child's forest and G = the sum,
    over its trees S with root s, of phi(S - s) times phi of the others.
    Deleting r's edges one by one gives
    phi(T) = x prod F_i - sum_i G_i prod_{j != i} F_j, and phi(T - r) is
    prod F_i. Both come from one left fold, which merges two children by
    the product rule (`_merge`). As series the factor x drops out and the
    sum gains a factor s, because G_i has one degree less.
    """
    acc: tuple[list[int], list[int]] = ([1], [])
    for child in children:
        acc = _merge(acc, child, terms)
    return _close(acc, terms), acc[0]


def starlike_series(
    chain: Iterable[Sequence[int]], terms: int
) -> Iterator[list[int]]:
    """The top series of phi(S(a_1..a_k)) for each branch list of chain, in
    order: the first min(terms, n // 2 + 1) coefficients c_0, c_2, ... of
    the charpoly on n = a_1 + ... + a_k + 1 vertices, where a missing
    trailing coefficient is 0. No tree is built.

    phi(S) = x prod P_{a_i} - sum_i P_{a_i - 1} prod_{j != i} P_{a_j}: the
    center joined to k paths, each of which loses its end to P_{a_i - 1}
    (`_join_at_root` over path series). The fold state after each prefix of
    the current list is kept on a stack, so a list that shares its first j
    branches with the one before folds only the rest. Consecutive lists of
    a shortlex chain share long prefixes; any order, repeats included, is
    still exact.
    """
    if terms < 1:
        raise ValueError("terms must be positive")
    paths: dict[int, tuple[list[int], list[int]]] = {}
    stack: list[tuple[list[int], list[int]]] = [([1], [])]  # stack[j]: first j folded
    prev: tuple[int, ...] = ()
    for branches in chain:
        parts = tuple(branches)
        shared = 0
        for a, b in zip(parts, prev):
            if a != b:
                break
            shared += 1
        del stack[shared + 1 :]
        for a in parts[shared:]:
            child = paths.get(a)
            if child is None:
                if a < 1:
                    raise ValueError(f"branch lengths must be positive, got {parts}")
                child = paths[a] = (_path_series(a, terms), _path_series(a - 1, terms))
            stack.append(_merge(stack[-1], child, terms))
        prev = parts
        yield _close(stack[-1], terms)


def _starlike_series(branches: Sequence[int], terms: int) -> list[int]:
    """The top series of one starlike tree: the one-list case of `starlike_series`."""
    return next(starlike_series((branches,), terms))


def rooted_forest(g: Graph) -> tuple[list[int], list[int]]:
    """(order, parent) of the forest g, each component rooted at its least
    vertex: order lists every vertex after its parent, breadth first, and a
    root's parent is -1. Raises CycleError on a cycle."""
    parent = [-1] * g.n
    seen = [False] * g.n
    order: list[int] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        for v in component:  # the list grows while it is read
            for w in g.adj[v]:
                if w == parent[v]:
                    continue
                if seen[w]:
                    raise CycleError("charpoly is implemented for forests only")
                seen[w] = True
                parent[w] = v
                component.append(w)
        order += component
    return order, parent


def _schwenk_series(g: Graph, terms: int) -> list[int]:
    """Bottom-up over each rooted component, carrying phi(subtree at v) and
    phi(subtree minus v) per vertex; raises CycleError on a cycle."""
    order, parent = rooted_forest(g)
    sub: list = [None] * g.n  # v -> series of (phi(subtree at v), phi(subtree minus v))
    result = [1]
    for v in reversed(order):
        sub[v] = _join_at_root((sub[w] for w in g.adj[v] if w != parent[v]), terms)
        if parent[v] < 0:
            result = _series_mul(result, sub[v][0], terms)
    return result


def charpoly_top(g: Graph, terms: int) -> list[int]:
    """[c_0, c_2, c_4, ...]: the coefficients of x^n, x^(n-2), x^(n-4), ...
    in the characteristic polynomial of the forest g, the first
    min(terms, n // 2 + 1) of them. Raises CycleError on a cycle.

    Repeated deletion of a cut edge (u,v) satisfies
    phi(G) = phi(G - uv) - phi(G - u - v). A starlike tree (paths included)
    needs this only at its center, over closed-form path series; any other
    forest applies it bottom-up at every vertex (Schwenk).
    """
    if terms < 1:
        raise ValueError("terms must be positive")
    branches = starlike_branches(g)
    if branches is not None:
        top = _starlike_series(branches.parts, terms)
    else:
        top = _schwenk_series(g, terms)
    size = min(terms, g.n // 2 + 1)
    return (top + [0] * size)[:size]


def _from_top(n: int, top: list[int]) -> IntPolynomial:
    """The degree-n forest charpoly whose top series is top (see `charpoly_top`)."""
    coeffs = [0] * (n + 1)
    coeffs[n::-2] = top + [0] * (n // 2 + 1 - len(top))
    return IntPolynomial(coeffs)


def charpoly(g: Graph) -> IntPolynomial:
    """Characteristic polynomial of a forest, exactly (see `charpoly_top`).
    Raises CycleError, a ValueError, on a graph with a cycle."""
    return _from_top(g.n, charpoly_top(g, g.n // 2 + 1))


def path_charpoly(n: int) -> IntPolynomial:
    """Characteristic polynomial of the path on n vertices, n >= -1, with
    P_0 = 1 and P_-1 = 0 (see `_path_series`); its roots are 2cos(j pi/(n+1)),
    strictly inside (-2, 2)."""
    if n < -1:
        raise ValueError("n must be >= -1")
    return _from_top(n, _path_series(n, n // 2 + 1))


def starlike_charpoly(branches: Sequence[int]) -> IntPolynomial:
    """charpoly(make_starlike(branches)), read off the branch list alone."""
    n = sum(branches) + 1
    return _from_top(n, _starlike_series(branches, n // 2 + 1))


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
