"""Dense integer polynomials and exact characteristic polynomials of forests.

Pure Python on unbounded integers, no floating point and no numpy, so the
walk kernel can build on it without pulling in the spectral layer. This is
the one module that reads a polynomial's coefficients: `IntPolynomial`
is evaluated exactly at dyadic points, by binary splitting with shifts, and
pseudo-remainders give the gcd and Sturm chains. It has no ring
arithmetic: every polynomial here is a charpoly read off its top series,
or a coefficient-wise combination of two. Starlike trees (paths
included) take a closed form over path polynomials; every other forest
takes Schwenk's edge-deletion recurrence. Both run on the charpoly read
from its top coefficient down, so a caller that needs only the top few
coefficients pays only for those, and both fold subtrees into their root
by one product rule (`_merge`). The closed form also runs on branch lists
with no tree built: `starlike_series` folds a whole chain of them, sharing
the work of common prefixes, and `starlike_charpoly` reads one.

The fold works on matching counts. In t = -x^-2 the top series of a
forest's charpoly is its matching polynomial, m_0 + m_1 t + m_2 t^2 + ...
with m_j the number of j-edge matchings, and every series the fold holds
counts matchings of a sub-forest, so every coefficient is a nonnegative
integer. Each series is therefore one Python int, one count per limb of a
width proved large enough from the order and the cut (`_limb_bits`): a
product is one big-int multiply and a cut is one mask. A result is unpacked
by shift and mask, in halves above 16 limbs so the cost stays near-linear,
into the lists `charpoly_top` and `starlike_series` return, signs restored.
"""

from __future__ import annotations

from math import comb, gcd
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .partitions import _Value
from .trees import CycleError, Graph, rooted_forest, starlike_branches

if TYPE_CHECKING:
    from fractions import Fraction


# coefficients per Horner block of `IntPolynomial.dyadic_value`
_BLOCK = 16


class IntPolynomial(_Value):
    """Dense integer polynomial, coefficients ascending; () is forbidden,
    the zero polynomial is (0,). A value with one field, coeffs.

    Construction also records whether every coefficient at an odd offset
    from the top is zero, as in every forest charpoly (see `charpoly_top`):
    p(x) is then x^r q(x^2), r = degree mod 2, and `dyadic_value`, the one
    evaluation (`sign_at` reads its sign), reads q, half the coefficients."""

    __slots__ = ("coeffs", "_stride")
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        c = list(coeffs) or [0]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "_stride", 1 if any(c[-2::-2]) else 2)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-v for v in self.coeffs])

    def dyadic_value(self, num: int, exp: int) -> int:
        """2^(exp * degree) * p(num / 2^exp), an exact integer, in x^2 when
        the coefficients at odd offsets from the top are all zero.

        With u = num^stride and s = stride * exp, the value is the sum of
        d_j u^j 2^(s (m - j)) over the m + 1 coefficients d_j read (every
        stride-th, from the lowest that ends on the top). Binary splitting
        sums it: a power of two of blocks, about `_BLOCK` coefficients each,
        run Horner with shifts, and neighbouring blocks join pairwise, low L
        of l coefficients and high H of h into L 2^(s h) + H u^l, with one
        power of u for every join of a round. Balanced products of large
        values cost less than Horner's long ones by the short u."""
        step = self._stride
        base, size = num**step, step * exp
        read = self.coeffs[(len(self.coeffs) - 1) % step :: step]
        # a power of two of blocks, so that every join of a round is balanced
        count = 1
        while 2 * count * _BLOCK <= len(read):
            count *= 2
        width = -(-len(read) // count)
        blocks = []
        for start in range(0, len(read), width):
            acc, shift = 0, 0
            for c in reversed(read[start : start + width]):
                acc = acc * base + (c << shift)
                shift += size
            blocks.append((acc, shift))
        power = base**width if len(blocks) > 1 else None
        while len(blocks) > 1:
            joined = [
                ((lo << high_shift) + hi * power, low_shift + high_shift)
                for (lo, low_shift), (hi, high_shift) in zip(blocks[::2], blocks[1::2])
            ]
            blocks = joined + blocks[len(joined) * 2 :]
            if len(blocks) > 1:
                power *= power
        # the last coefficient read is c_r, r = (len - 1) % step: x^2 leaves
        # out the factor x of an odd degree
        return blocks[0][0] * num if (len(self.coeffs) - 1) % step else blocks[0][0]

    def sign_at(self, x: int | Fraction) -> int:
        """Exact sign at a dyadic point x, an int or a Fraction whose
        denominator is a power of two: the sign of `dyadic_value`. Raises
        ValueError for any other denominator."""
        exp = x.denominator.bit_length() - 1
        if x.denominator != 1 << exp:
            raise ValueError(f"sign_at takes a dyadic point, got {x}")
        value = self.dyadic_value(x.numerator, exp)
        return (value > 0) - (value < 0)

    def derivative(self) -> "IntPolynomial":
        # a constant leaves [], which construction reads as the zero polynomial
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return gcd(*self.coeffs)

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


# A forest's charpoly is x^n + c_2 x^(n-2) + c_4 x^(n-4) + ... (it is
# bipartite, so odd offsets vanish) with c_2j = (-1)^j m_j, m_j the number of
# j-edge matchings. Read from the top it is the series c_0 + c_2 s + c_4 s^2
# + ... in s = x^-2, and every step of the recurrences below is a sum or
# product of such series. Cutting each series after `terms` coefficients
# keeps the kept ones exact, so a forest on n vertices costs O(n) products
# of `terms`-term series instead of full polynomials.
#
# The fold runs in t = -s, where the series is m_0 + m_1 t + m_2 t^2 + ...
# and each coefficient is a matching count, so a nonnegative integer. Every
# series the fold holds counts matchings of some sub-forest: F those of the
# subtrees folded so far, G those of the joined tree that cover its root,
# limb j for j + 1 edges (`_join_at_root`). So one series is packed into one
# int, m_j in the j-th limb of `limb` bits: a product is one big-int
# multiply (Kronecker substitution) and the cut after `terms` limbs is one
# `& mask`. Limbs are nonnegative and each kept one holds an exact count
# below 2^limb, so no borrow or carry ever crosses into a kept limb; the
# limbs past the cut may overflow, but carries only move up and the mask
# drops them. The signs (-1)^j return once, when a result is unpacked.
#
# The limb bound, for forests on at most n vertices: a j-matching is a set
# of j edges out of at most n - 1, so F's limbs j < terms and G's limbs
# (j + 1 <= terms edges) are at most max_{j <= terms} C(n - 1, j). Every
# count is also at most all the matchings of its sub-forest, its Hosoya
# index; adding edges to join a forest into a tree only adds matchings, and
# among trees on n vertices the path has the most, F_(n+1) (Fibonacci).


def _limb_bits(n: int, terms: int) -> int:
    """Limb width of the fold on forests with at most n vertices, cut after
    terms coefficients: the bit length of the smaller of the two bounds
    above, rounded up to a whole byte for `_path_packed`."""
    fib, nxt = 1, 1  # F_1, F_2
    for _ in range(n):
        fib, nxt = nxt, fib + nxt
    edges = max(n - 1, 0)
    bound = min(fib, comb(edges, min(terms, edges // 2)))
    return -(-bound.bit_length() // 8) * 8


def _unpack(packed: int, limb: int) -> list[int]:
    """The signed top series [c_0, c_2, ...] of a packed fold result, up to
    its last nonzero limb: c_2j = (-1)^j times limb j."""
    out = _limbs(packed, limb, -(-packed.bit_length() // limb))
    out[1::2] = [-v for v in out[1::2]]
    return out


def _limbs(packed: int, limb: int, count: int) -> list[int]:
    # each shift copies the int, so above 16 limbs split it in halves first
    if count > 16:
        low = count // 2
        high = _limbs(packed >> low * limb, limb, count - low)
        return _limbs(packed & (1 << low * limb) - 1, limb, low) + high
    mask = (1 << limb) - 1
    return [packed >> shift & mask for shift in range(0, count * limb, limb)]


def _path_packed(a: int, limb: int, terms: int) -> int:
    """P_a, packed: the path on a vertices has C(a - j, j) j-edge matchings,
    one count per limb."""
    counts = (comb(a - j, j) for j in range(min(a // 2 + 1, terms)))
    return int.from_bytes(b"".join(c.to_bytes(limb // 8, "little") for c in counts), "little")


def _merge(acc: tuple[int, int], child: tuple[int, int], mask: int) -> tuple[int, int]:
    """The product rule that folds one more subtree (f, g) into the series
    (F, G) of the subtrees folded so far: (F f, G f + F g)."""
    (f_all, g_all), (f, g) = acc, child
    return f_all * f & mask, (g_all * f + f_all * g) & mask


def _close(acc: tuple[int, int], limb: int, mask: int) -> int:
    """The root joined to the folded subtrees, F + t G (see `_join_at_root`)."""
    f_all, g_all = acc
    return (f_all + (g_all << limb)) & mask


def _join_at_root(
    children: Iterable[tuple[int, int]], limb: int, mask: int
) -> tuple[int, int]:
    """Packed series of (phi(T), phi(T - r)) for a new root r joined to
    disjoint subtrees.

    Each child is (F, G): F = phi of the child's forest and G = the sum,
    over its trees S with root s, of phi(S - s) times phi of the others.
    Deleting r's edges one by one gives
    phi(T) = x prod F_i - sum_i G_i prod_{j != i} F_j, and phi(T - r) is
    prod F_i. Both come from one left fold, which merges two children by
    the product rule (`_merge`). As series the factor x drops out and the
    sum gains a factor s = -t, because G_i has one degree less: the
    matchings of T are those of T - r and, through t G, those that cover r.
    """
    acc = (1, 0)
    for child in children:
        acc = _merge(acc, child, mask)
    return _close(acc, limb, mask), acc[0]


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
    still exact. One limb width, for the largest order of the chain,
    serves the whole chain.
    """
    if terms < 1:
        raise ValueError("terms must be positive")
    chain = [tuple(branches) for branches in chain]
    for parts in chain:
        if parts and min(parts) < 1:
            raise ValueError(f"branch lengths must be positive, got {parts}")
    limb = _limb_bits(max((sum(parts) + 1 for parts in chain), default=1), terms)
    mask = (1 << terms * limb) - 1
    paths: dict[int, tuple[int, int]] = {}
    stack = [(1, 0)]  # stack[j]: first j folded
    prev: tuple[int, ...] = ()
    for parts in chain:
        shared = 0
        for a, b in zip(parts, prev):
            if a != b:
                break
            shared += 1
        del stack[shared + 1 :]
        for a in parts[shared:]:
            child = paths.get(a)
            if child is None:
                child = paths[a] = (
                    _path_packed(a, limb, terms), _path_packed(a - 1, limb, terms)
                )
            stack.append(_merge(stack[-1], child, mask))
        prev = parts
        yield _unpack(_close(stack[-1], limb, mask), limb)


def _starlike_series(branches: Sequence[int], terms: int) -> list[int]:
    """The top series of one starlike tree: the one-list case of `starlike_series`."""
    return next(starlike_series((branches,), terms))


def _schwenk_series(g: Graph, terms: int) -> list[int]:
    """Bottom-up over each rooted component, carrying phi(subtree at v) and
    phi(subtree minus v) per vertex; raises CycleError on a cycle."""
    order, parent = rooted_forest(g)
    limb = _limb_bits(g.n, terms)
    mask = (1 << terms * limb) - 1
    sub: list = [None] * g.n  # v -> packed (phi(subtree at v), phi(subtree minus v))
    result = 1
    for v in reversed(order):
        sub[v] = _join_at_root((sub[w] for w in g.adj[v] if w != parent[v]), limb, mask)
        if parent[v] < 0:
            result = result * sub[v][0] & mask
    return _unpack(result, limb)


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
    P_0 = 1 and P_-1 = 0, read off its C(n - j, j) j-edge matchings; its
    roots are 2cos(j pi/(n+1)), strictly inside (-2, 2)."""
    if n < -1:
        raise ValueError("n must be >= -1")
    return _from_top(n, [(-1) ** j * comb(n - j, j) for j in range(n // 2 + 1)])


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
    P_c P_{d-1} is the charpoly of the path on c + d - 1 vertices with its
    edge (c - 1, c) removed, two degrees below P_{c+d+1}.
    """
    if q < 2:
        raise ValueError("need at least two equal branches")
    if c < 1 or d < 1:
        raise ValueError("branch lengths must be positive")
    m = c + d - 1
    split = charpoly(Graph.from_edges(m, [(i, i + 1) for i in range(m - 1) if i != c - 1]))
    pairs = zip(path_charpoly(m + 2).coeffs, split.coeffs + (0, 0))
    return path_charpoly(d), q - 1, IntPolynomial([a - (q - 1) * b for a, b in pairs])
