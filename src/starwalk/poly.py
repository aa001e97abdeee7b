"""Dense integer polynomials and exact characteristic polynomials of forests.

Pure Python on unbounded integers, no floating point and no numpy, so the
walk kernel can build on it without pulling in the spectral layer.
Starlike trees (paths included) take a closed form over path
polynomials; every other forest takes Schwenk's edge-deletion recurrence.
Both run on the charpoly read from its top coefficient down, so a caller
that needs only the top few coefficients pays only for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Sequence, Union

from .trees import Graph, starlike_branches

Scalar = Union[int, Fraction]


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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, v in enumerate(other.coeffs):
            out[i] -= v
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-v for v in self.coeffs])

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([other * v for v in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if self.is_zero() or other.is_zero():
            return IntPolynomial([0])
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

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

    def evaluate(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
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

    def sign_at_pos_infinity(self) -> int:
        return (self.leading > 0) - (self.leading < 0)

    def sign_at_neg_infinity(self) -> int:
        s = self.sign_at_pos_infinity()
        return s if self.degree % 2 == 0 else -s

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

    def to_json_obj(self) -> list[str]:
        return [str(c) for c in self.coeffs]


X = IntPolynomial([0, 1])
ONE = IntPolynomial([1])


_PATH_CACHE: dict[int, IntPolynomial] = {-1: IntPolynomial([0]), 0: ONE, 1: X}


def path_charpoly(n: int) -> IntPolynomial:
    """Characteristic polynomial of the path on n vertices.

    Follows the three-term recurrence P_n = x P_{n-1} - P_{n-2} with P_0 = 1
    and P_{-1} = 0; all roots are 2cos(j pi/(n+1)), strictly inside (-2, 2).
    """
    if n < -1:
        raise ValueError("n must be >= -1")
    if n not in _PATH_CACHE:
        top = max(_PATH_CACHE)
        for m in range(top + 1, n + 1):
            _PATH_CACHE[m] = X * _PATH_CACHE[m - 1] - _PATH_CACHE[m - 2]
    return _PATH_CACHE[n]


class CycleError(ValueError):
    """The graph has a cycle; the charpoly routines here take forests only."""


# A forest's charpoly is x^n + c_2 x^(n-2) + c_4 x^(n-4) + ... (it is
# bipartite, so odd offsets vanish) with c_2j = (-1)^j times the number of
# j-edge matchings. Read from the top it is the series c_0 + c_2 s + c_4 s^2
# + ... in s = x^-2, and every step of the recurrences below is a sum or
# product of such series. Cutting each series after `terms` coefficients
# therefore keeps the kept ones exact, and a forest on n vertices costs at
# most O(n terms^2) integer products instead of O(n^2).


def _series_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out


def _series_mul(a: list[int], b: list[int], terms: int) -> list[int]:
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


def _join_at_root(
    children: Iterable[tuple[list[int], list[int]]], terms: int
) -> tuple[list[int], list[int]]:
    """Series of (phi(T), phi(T - r)) for a new root r joined to disjoint subtrees.

    Each child is (F, G): F = phi of the child's forest and G = the sum,
    over its trees S with root s, of phi(S - s) times phi of the others.
    Deleting r's edges one by one gives
    phi(T) = x prod F_i - sum_i G_i prod_{j != i} F_j, and phi(T - r) is
    prod F_i. Both come from one left fold, which merges two children by
    the product rule (F1 F2, G1 F2 + F1 G2). As series the factor x drops
    out and the sum gains a factor s, because G_i has one degree less.
    """
    f_all: list[int] = [1]
    g_all: list[int] = []
    for f, g in children:
        f_all, g_all = (
            _series_mul(f_all, f, terms),
            _series_add(_series_mul(g_all, f, terms), _series_mul(f_all, g, terms)),
        )
    return _series_add(f_all, [0] + [-v for v in g_all])[:terms], f_all


def _starlike_series(branches: Sequence[int], terms: int) -> list[int]:
    """phi(S(a_1..a_k)) = x prod P_{a_i} - sum_i P_{a_i - 1} prod_{j != i} P_{a_j}:
    the center joined to k paths, each of which loses its end to P_{a_i - 1}."""
    children = ((_path_series(a, terms), _path_series(a - 1, terms)) for a in branches)
    return _join_at_root(children, terms)[0]


def _schwenk_series(g: Graph, terms: int) -> list[int]:
    """Bottom-up over each rooted component, carrying phi(subtree at v) and
    phi(subtree minus v) per vertex; raises CycleError on a cycle."""
    n = g.n
    visited = [False] * n
    result = [1]
    for root in range(n):
        if visited[root]:
            continue
        parent = {root: -1}
        order = []
        stack = [root]
        visited[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for w in g.adj[v]:
                if w == parent[v]:
                    continue
                if visited[w]:
                    raise CycleError("charpoly is implemented for forests only")
                visited[w] = True
                parent[w] = v
                stack.append(w)
        sub = {}  # v -> series of (phi(subtree at v), phi(subtree minus v))
        for v in reversed(order):
            sub[v] = _join_at_root((sub[w] for w in g.adj[v] if w != parent[v]), terms)
        result = _series_mul(result, sub[root][0], terms)
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


def charpoly(g: Graph) -> IntPolynomial:
    """Characteristic polynomial of a forest, exactly (see `charpoly_top`).
    Raises CycleError, a ValueError, on a graph with a cycle."""
    coeffs = [0] * (g.n + 1)
    coeffs[g.n :: -2] = charpoly_top(g, g.n // 2 + 1)
    return IntPolynomial(coeffs)
