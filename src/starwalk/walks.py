"""Exact walk counts on graphs, on Python's unbounded integers.

Walk counts grow like lambda_1^k, so 64-bit arithmetic overflows around
k = 60 even on ten-vertex trees; nothing here touches floating point.

The trace sequence M_k = trace(A^k) (closed walks of every length up to K)
is the k-th power sum of the adjacency eigenvalues. Newton's identities
give M_1..M_K from the top K coefficients of the characteristic
polynomial, and on a forest `poly.charpoly_top` computes exactly those,
for a cost that grows with min(n, K) rather than with n. A forest is
bipartite, so only every other coefficient is nonzero and every odd M_k
is 0. A graph with a cycle has no exact charpoly here; its trace is the
sum of the per-vertex counts, one integer vector propagated from each
start vertex, which is n times the propagation work of `all_walk_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .poly import CycleError, charpoly_top
from .trees import Graph

CLOSED_TOTAL = "closed_total"
CLOSED_AT_VERTEX = "closed_at_vertex"
ALL_WALKS = "all_walks"


@dataclass(frozen=True)
class MomentSequence:
    """values[k] = a walk count of length k, k = 0..K; kind says which."""

    kind: str
    values: tuple[int, ...]

    @property
    def max_k(self) -> int:
        return len(self.values) - 1

    def to_json_obj(self) -> dict:
        # exact integers serialize as decimal strings: they routinely
        # exceed every fixed-width and double-representable range
        return {"kind": self.kind, "values": [str(v) for v in self.values]}


def closed_walk_counts(g: Graph, max_k: int) -> MomentSequence:
    """Trace of A^k for k = 0..max_k, i.e. closed k-walk counts."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    try:
        e = charpoly_top(g, max_k // 2 + 1)
    except CycleError:
        # no exact charpoly for a graph with a cycle: sum the diagonal
        per_vertex = [closed_walk_counts_at(g, v, max_k).values for v in range(g.n)]
        return MomentSequence(CLOSED_TOTAL, tuple(map(sum, zip(*per_vertex))))
    return MomentSequence(CLOSED_TOTAL, _bipartite_power_sums(g.n, e, max_k))


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


def closed_walk_counts_at(g: Graph, v: int, max_k: int) -> MomentSequence:
    """Closed k-walk counts from a single start vertex: (A^k)_{v,v}."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    x = [0] * g.n
    x[v] = 1
    values = [1]
    adj = g.adj
    for _ in range(max_k):
        x = [sum(x[w] for w in nbrs) for nbrs in adj]
        values.append(x[v])
    return MomentSequence(CLOSED_AT_VERTEX, tuple(values))


def all_walk_counts(g: Graph, max_k: int) -> MomentSequence:
    """Grand sum of A^k (walks of length k between all vertex pairs)."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    x = [1] * g.n
    values = [g.n]
    adj = g.adj
    for _ in range(max_k):
        x = [sum(x[w] for w in nbrs) for nbrs in adj]
        values.append(sum(x))
    return MomentSequence(ALL_WALKS, tuple(values))


def brute_force_closed_walks(g: Graph, v: int, k: int) -> int:
    """Closed k-walks from v by explicit enumeration. Test oracle only:
    guarded to tiny sizes because the walk tree is visited node by node."""
    if g.n > 8:
        raise ValueError("brute force capped at 8 vertices")
    if not (0 <= k <= 10):
        raise ValueError("brute force capped at k <= 10")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if k == 0:
        return 1
    adj = g.adj

    def count(cur: int, left: int) -> int:
        if left == 1:
            return 1 if v in adj[cur] else 0
        return sum(count(w, left - 1) for w in adj[cur])

    return count(v, k)
