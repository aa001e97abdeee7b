"""Exact walk counts on graphs, on Python's unbounded integers.

Walk counts grow like lambda_1^k, so 64-bit arithmetic overflows around
k = 60 even on ten-vertex trees; nothing here touches floating point.

The trace sequence M_k = trace(A^k) (closed walks of every length up to K)
is the k-th power sum of the adjacency eigenvalues. Newton's identities
give M_1..M_K from the top K coefficients of the characteristic
polynomial, which `poly.charpoly_top` computes on a forest for a cost that
grows with min(n, K); a forest is bipartite, so every odd M_k is 0. The
same Newton step runs on a chain of starlike trees (branch lists folded by
`poly.starlike_series`, no tree), and `starlike_even_walk_counts` hands
over their even counts alone. The closed walks at one vertex of a forest
come from the same fold, rooted at that vertex (`poly.rooted_series`). A
graph with a cycle has no exact charpoly: its trace is read off one
propagation of all n unit start vectors packed side by side, one limb per
start vertex, and its counts at one vertex off one unit start vector.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .poly import charpoly_top, rooted_series, starlike_series
from .trees import CycleError, Graph


class MomentSequence(NamedTuple):
    """values[k] = a walk count of length k, k = 0..K."""

    values: tuple[int, ...]


def closed_walk_counts(g: Graph, max_k: int) -> MomentSequence:
    """Trace of A^k for k = 0..max_k, i.e. closed k-walk counts."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    try:
        e = charpoly_top(g, max_k // 2 + 1)
    except CycleError:  # no exact charpoly for a graph with a cycle: sum the diagonal
        return MomentSequence(_packed_trace(g, max_k))
    return MomentSequence(_interleave(_bipartite_power_sums(g.n, e, max_k), max_k))


def _packed_trace(g: Graph, max_k: int) -> tuple[int, ...]:
    """trace(A^k) for k = 0..max_k from one propagation of all n unit start
    vectors packed side by side: entry w holds (A^k)_{w,v} in limb v, and
    the trace is the sum of limb v of entry v.

    No limb carries into the next. A^k is symmetric and nonnegative, so each
    entry is at most lambda_1^k, and lambda_1^2 is at most A^2's largest row
    sum R = max_v sum_{w ~ v} d_w >= 1: every entry fits in R^ceil(K/2)'s
    bit length."""
    adj = g.adj
    r = max(sum(len(adj[w]) for w in nbrs) for nbrs in adj)
    width = (r ** ((max_k + 1) // 2)).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, g.n * width, width)
    return tuple(
        sum((xv >> s) & mask for xv, s in zip(x, shifts))
        for x in _propagate(g, [1 << s for s in shifts], max_k)
    )


def starlike_closed_walk_counts(chain: Iterable[Sequence[int]], max_k: int) -> list[tuple]:
    """closed_walk_counts(make_starlike(pi), max_k).values for each branch
    list pi of chain, in order, read from the branch lists alone; the path
    on m vertices is the one-branch list (m - 1,). Any order is exact; a
    chain whose neighbours share long prefixes, as in shortlex order, costs
    least (see `poly.starlike_series`)."""
    return [_interleave(even, max_k) for even in _starlike_even(chain, max_k)]


def starlike_even_walk_counts(chain: Iterable[Sequence[int]], max_k: int) -> list[tuple]:
    """`starlike_closed_walk_counts` at even k alone: a tree has no odd closed walk."""
    return _starlike_even(chain, max_k)


def _starlike_even(chain: Iterable[Sequence[int]], max_k: int) -> list[tuple[int, ...]]:
    # one body for both public names, which never call each other: one wrapped call each
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    chain = list(chain)  # read twice; starlike_series makes the tuples
    tops = starlike_series(chain, max_k // 2 + 1)
    return [_bipartite_power_sums(sum(parts) + 1, e, max_k) for parts, e in zip(chain, tops)]


def _interleave(even: tuple[int, ...], max_k: int) -> tuple[int, ...]:
    values = [0] * (max_k + 1)  # every odd count is 0
    values[::2] = even
    return tuple(values)


def _bipartite_power_sums(n: int, e: list[int], max_k: int) -> tuple[int, ...]:
    """Even power sums p_0, p_2, ..., p_(2 floor(max_k / 2)) of the roots of
    x^n + a_2 x^(n-2) + a_4 x^(n-4) + ..., e[j] = a_(2j); every odd one is 0.

    Newton's identities p_k + a_2 p_(k-2) + ... + a_(k-2) p_2 + k a_k = 0,
    a_j = 0 for j > n: p_k reads only a_2..a_k, so e may stop after
    a_(max_k). The history p_(2m-2), ..., p_2 is kept newest first, so each
    step pairs it with a_2, a_4, ... as they stand; `map` stops at the
    shorter list, which drops the a_j past a_n."""
    top = len(e) - 1
    coeffs = e[1:]
    hist: list[int] = []  # hist[i] = p_(2(m-1-i)) before step m
    for m in range(1, max_k // 2 + 1):
        acc = sum(map(mul, coeffs, hist))
        if m <= top:
            acc += 2 * m * e[m]
        hist.insert(0, -acc)
    return (n, *reversed(hist))


def _propagate(g: Graph, x: list[int], max_k: int) -> Iterator[list[int]]:
    """A^k x for k = 0..max_k: one neighbor sum per vertex and step."""
    adj = g.adj
    yield x
    for _ in range(max_k):
        x = [sum(x[w] for w in nbrs) for nbrs in adj]
        yield x


def closed_walk_counts_at(g: Graph, v: int, max_k: int) -> MomentSequence:
    """Closed k-walk counts from a single start vertex: (A^k)_{v,v}.

    On a forest they are the series phi(G - v) / phi(G), which is
    sum_k (A^k)_{v,v} x^(-k-1); the other trees of the forest divide out,
    and one fold rooted at v gives the top series c of phi(T) and c' of
    phi(T - v) for v's tree T. In s = x^-2 the even counts h_j =
    (A^2j)_{v,v} solve c h = c' with c_0 = 1, so
    h_j = c'_j - sum_{i >= 1} c_i h_(j-i), and every odd count is 0. A
    graph with a cycle propagates the unit vector at v instead."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    terms = max_k // 2 + 1
    try:
        top, rest = rooted_series(g, v, terms)
    except CycleError:
        start = [0] * g.n
        start[v] = 1
        return MomentSequence(tuple(x[v] for x in _propagate(g, start, max_k)))
    coeffs = top[1:]
    hist: list[int] = []  # hist[i] = h_(j-1-i) before step j
    for c in rest + [0] * (terms - len(rest)):
        hist.insert(0, c - sum(map(mul, coeffs, hist)))
    return MomentSequence(_interleave(tuple(reversed(hist)), max_k))


def all_walk_counts(g: Graph, max_k: int) -> MomentSequence:
    """Grand sum of A^k (walks of length k between all vertex pairs)."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    return MomentSequence(tuple(map(sum, _propagate(g, [1] * g.n, max_k))))
