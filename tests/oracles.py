"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately naive: generate-and-filter enumeration,
explicit walk counting, textbook recurrences. The point is that these
share no code path with the library proper.
"""

from __future__ import annotations

from fractions import Fraction


def all_partitions(n: int, min_parts: int = 1) -> list[tuple[int, ...]]:
    """Every partition of n (nondecreasing tuples) with >= min_parts parts,
    sorted shortlex: by length, then lexicographically."""

    def gen(remaining: int, minimum: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(minimum, remaining + 1):
            for rest in gen(remaining - first, first):
                out.append((first,) + rest)
        return out

    parts = [p for p in gen(n, 1) if len(p) >= min_parts]
    parts.sort(key=lambda t: (len(t), t))
    return parts


def count_closed_walks_brute(adj: list[tuple[int, ...]], start: int, k: int) -> int:
    """Count closed k-walks from start by explicit depth-first enumeration."""
    if k == 0:
        return 1

    def rec(v: int, left: int) -> int:
        if left == 1:
            return 1 if start in adj[v] else 0
        return sum(rec(w, left - 1) for w in adj[v])

    return rec(start, k)


def closed_walk_trace_dp(adj: list[tuple[int, ...]], max_k: int) -> list[int]:
    """trace(A^k) for k = 0..max_k by plain per-start-vertex propagation:
    one integer vector per start vertex, one entry of A^k e_v read per step."""
    n = len(adj)
    totals = [n] + [0] * max_k
    for v in range(n):
        x = [0] * n
        x[v] = 1
        for k in range(1, max_k + 1):
            x = [sum(x[w] for w in nbrs) for nbrs in adj]
            totals[k] += x[v]
    return totals


def newton_power_sums(coeffs: list[int], max_k: int) -> list[int]:
    """Power sums of the roots of a monic integer polynomial.

    coeffs is ascending with coeffs[-1] == 1. Exact integers via the
    Newton identities; this is the spectra-free route to walk counts.
    """
    n = len(coeffs) - 1
    assert coeffs[n] == 1
    s = [n]
    for k in range(1, max_k + 1):
        acc = 0
        for i in range(1, min(k - 1, n) + 1):
            acc += coeffs[n - i] * s[k - i]
        if k <= n:
            acc += k * coeffs[n - k]
        s.append(-acc)
    return s


def prufer_to_edges(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence over 0..n-1 (n = len(seq)+2) into tree edges."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaf_heap = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaf_heap)
    for v in seq:
        u = heapq.heappop(leaf_heap)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    w = heapq.heappop(leaf_heap)
    edges.append((u, w))
    return edges


def charpoly_fraction_gauss(adj: list[tuple[int, ...]]) -> list[int]:
    """Characteristic polynomial det(xI - A) by Fraction Gaussian elimination
    at interpolation points. O(n^4) and slow; fine for tiny graphs."""
    n = len(adj)
    if n == 0:
        return [1]

    def det_at(x: Fraction) -> Fraction:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = x
            for j in adj[i]:
                m[i][j] = Fraction(-1)
        det = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                factor = m[r][col] * inv
                if factor:
                    for c in range(col, n):
                        m[r][c] -= factor * m[col][c]
        return det

    # Lagrange interpolation on n+1 integer points
    xs = list(range(n + 1))
    ys = [det_at(Fraction(x)) for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, bd in enumerate(basis):
                new[d] -= bd * xj
                new[d + 1] += bd
            basis = new
            denom *= xi - xj
        scale = ys[i] / denom
        for d, bd in enumerate(basis):
            coeffs[d] += bd * scale
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return out
