"""Exact walk counts on graphs, on Python's unbounded integers.

Walk counts grow like lambda_1^k, so 64-bit arithmetic overflows around
k = 60 even on ten-vertex trees; nothing here touches floating point.

The trace sequence M_k = trace(A^k) (closed walks of every length up to K)
is the k-th power sum of the adjacency eigenvalues. Newton's identities
give M_1..M_K from the top K coefficients of the characteristic
polynomial, and on a forest `poly.charpoly_top` computes exactly those,
for a cost that grows with min(n, K) rather than with n. A forest is
bipartite, so only every other coefficient is nonzero and every odd M_k
is 0. `starlike_closed_walk_counts` runs the same Newton step on a chain of
starlike trees given by their branch lists, whose charpoly tops
`poly.starlike_series` folds along shared prefixes without building a
tree. A graph with a cycle has no exact charpoly here; its trace is the
sum of the per-vertex counts, one integer vector propagated from each
start vertex, which is n times the propagation work of `all_walk_counts`.
Both per-vertex and all-walk counts read one propagation loop, A^k x from a
start vector x.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Sequence

from .poly import CycleError, charpoly_top, starlike_series
from .trees import Graph


@dataclass(frozen=True)
class MomentSequence:
    """values[k] = a walk count of length k, k = 0..K."""

    values: tuple[int, ...]


def closed_walk_counts(g: Graph, max_k: int) -> MomentSequence:
    """Trace of A^k for k = 0..max_k, i.e. closed k-walk counts."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    try:
        e = charpoly_top(g, max_k // 2 + 1)
    except CycleError:
        # no exact charpoly for a graph with a cycle: sum the diagonal
        per_vertex = [closed_walk_counts_at(g, v, max_k).values for v in range(g.n)]
        return MomentSequence(tuple(map(sum, zip(*per_vertex))))
    return MomentSequence(_bipartite_power_sums(g.n, e, max_k))


def starlike_closed_walk_counts(
    chain: Iterable[Sequence[int]], max_k: int
) -> list[MomentSequence]:
    """closed_walk_counts(make_starlike(pi), max_k) for each branch list pi
    of chain, in order, read from the branch lists alone. Any order is
    exact; a chain whose neighbours share long prefixes, as in shortlex
    order, costs least (see `poly.starlike_series`)."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    chain = [tuple(pi) for pi in chain]
    tops = starlike_series(chain, max_k // 2 + 1)
    return [
        MomentSequence(_bipartite_power_sums(sum(parts) + 1, e, max_k))
        for parts, e in zip(chain, tops)
    ]


def _bipartite_power_sums(n: int, e: list[int], max_k: int) -> tuple[int, ...]:
    """Power sums p_0..p_max_k of the roots of a monic polynomial of degree n
    whose coefficients at odd offsets from the top vanish.

    With x^n + a_2 x^(n-2) + a_4 x^(n-4) + ... and e[j] = a_(2j), Newton's
    identities p_k + a_2 p_(k-2) + ... + a_(k-2) p_2 + k a_k = 0, where
    a_j = 0 for j > n, leave every odd p_k at 0. p_k reads only a_2..a_k,
    so e may stop after a_(max_k).
    """
    top = len(e) - 1
    evens = [n]  # evens[m] = p_(2m)
    for m in range(1, max_k // 2 + 1):
        lo = max(1, m - top)
        acc = sum(map(mul, e[m - lo:0:-1], evens[lo:m]))
        if m <= top:
            acc += 2 * m * e[m]
        evens.append(-acc)
    values = [0] * (max_k + 1)
    values[::2] = evens
    return tuple(values)


def _propagate(g: Graph, x: list[int], max_k: int) -> Iterator[list[int]]:
    """A^k x for k = 0..max_k from the start vector x: one neighbor sum per
    vertex and step."""
    adj = g.adj
    yield x
    for _ in range(max_k):
        x = [sum(x[w] for w in nbrs) for nbrs in adj]
        yield x


def closed_walk_counts_at(g: Graph, v: int, max_k: int) -> MomentSequence:
    """Closed k-walk counts from a single start vertex: (A^k)_{v,v}."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    start = [0] * g.n
    start[v] = 1
    return MomentSequence(tuple(x[v] for x in _propagate(g, start, max_k)))


def all_walk_counts(g: Graph, max_k: int) -> MomentSequence:
    """Grand sum of A^k (walks of length k between all vertex pairs)."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    return MomentSequence(tuple(map(sum, _propagate(g, [1] * g.n, max_k))))
