"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately naive: generate-and-filter enumeration,
explicit walk counting, textbook recurrences, Sturm sign variations read
off Horner values. The point is that these share no code path with the
library proper.
"""

from __future__ import annotations

import json
from collections import Counter
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


def partitions_with_parts(n: int, k: int) -> list[tuple[int, ...]]:
    """Every partition of n into exactly k parts (nondecreasing tuples),
    sorted lexicographically."""

    def gen(remaining: int, minimum: int, slots: int) -> list[tuple[int, ...]]:
        if slots == 0:
            return [()] if remaining == 0 else []
        out = []
        for first in range(minimum, remaining // slots + 1):
            for rest in gen(remaining - first, first, slots - 1):
                out.append((first,) + rest)
        return out

    return sorted(gen(n, 1, k))


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


def horner(coeffs: tuple[int, ...], x: int | Fraction) -> int | Fraction:
    """Value at x of the polynomial with ascending coefficients coeffs."""
    acc: int | Fraction = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def dyadic_horner(coeffs: tuple[int, ...], num: int, exp: int) -> int:
    """2^(exp * degree) * p(num / 2^exp) for the polynomial with ascending,
    normalized coefficients coeffs: one Horner loop with shifts in place of
    powers of the denominator, in x^2 when every coefficient at an odd
    offset from the top is zero. The reference for
    `IntPolynomial.dyadic_value`, which sums the same terms by binary
    splitting."""
    step = 1 if any(coeffs[-2::-2]) else 2
    base, acc, shift = num**step, 0, 0
    for c in coeffs[::-step]:
        acc = acc * base + (c << shift)
        shift += step * exp
    # the last coefficient read is c_r, r = (len - 1) % step: x^2 Horner
    # leaves out the factor x of an odd degree
    return acc * num if (len(coeffs) - 1) % step else acc


def poly_product(*factors: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending coefficients of the product of polynomials given by their
    ascending coefficients, by the schoolbook convolution; () is 1."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return tuple(out)


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


def _sign_at(coeffs: tuple[int, ...], x: Fraction) -> int:
    v = horner(coeffs, x)
    return (v > 0) - (v < 0)


def variations_at(chain: list, x: Fraction) -> int:
    """Sign changes along a Sturm chain of polynomials at x, zeros skipped."""
    return _variations([_sign_at(p.coeffs, x) for p in chain])


def count_roots_in(chain: list, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of chain[0] in (lo, hi] by Sturm's theorem;
    endpoints must not be roots of chain[0]."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if _sign_at(chain[0].coeffs, lo) == 0 or _sign_at(chain[0].coeffs, hi) == 0:
        raise ValueError("endpoint is a root; pick a different endpoint")
    return variations_at(chain, lo) - variations_at(chain, hi)


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


# The list-based charpoly series fold that `starwalk.poly` ran before it
# packed each series into one integer, kept verbatim as the reference for
# the packed fold. A series is the charpoly read from its top coefficient
# down, c_0 + c_2 s + c_4 s^2 + ... in s = x^-2, as a list cut after
# `terms` coefficients.


def unpack_by_bytes(packed: int, limb: int) -> list[int]:
    """The signed series [m_0, -m_1, m_2, ...] of an int holding one count
    per limb of `limb` bits (a multiple of 8), up to its last nonzero limb:
    the int is written out as bytes and each limb read back from its slice."""
    size = limb // 8
    raw = packed.to_bytes(-(-packed.bit_length() // limb) * size, "little")
    out = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    out[1::2] = [-v for v in out[1::2]]
    return out


def _series_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out


def _series_mul(a, b, terms):
    """Product of two series, cut after `terms` coefficients."""
    out = [0] * max(0, min(len(a) + len(b) - 1, terms))
    for i, ai in enumerate(a[: len(out)]):
        if ai:
            for j, bj in enumerate(b[: len(out) - i], i):
                out[j] += ai * bj
    return out


def _path_series(a, terms):
    """P_a as a series: the path on a vertices has C(a - j, j) j-edge matchings."""
    from math import comb

    return [(-1) ** j * comb(a - j, j) for j in range(min(a // 2 + 1, terms))]


def _merge(acc, child, terms):
    """The product rule that folds one more subtree (f, g) into the series
    (F, G) of the subtrees folded so far: (F f, G f + F g)."""
    (f_all, g_all), (f, g) = acc, child
    return (
        _series_mul(f_all, f, terms),
        _series_add(_series_mul(g_all, f, terms), _series_mul(f_all, g, terms)),
    )


def _close(acc, terms):
    """phi of the root joined to the folded subtrees, F - s G."""
    f_all, g_all = acc
    return _series_add(f_all, [0] + [-v for v in g_all])[:terms]


def _join_at_root(children, terms):
    """Series of (phi(T), phi(T - r)) for a new root r joined to disjoint subtrees."""
    acc = ([1], [])
    for child in children:
        acc = _merge(acc, child, terms)
    return _close(acc, terms), acc[0]


def starlike_series_lists(chain, terms):
    """The top series of phi(S(a_1..a_k)) for each branch list of chain, in
    order, by the list fold with a stack of fold states, one per prefix."""
    paths = {}
    stack = [([1], [])]  # stack[j]: first j folded
    prev = ()
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
                child = paths[a] = (_path_series(a, terms), _path_series(a - 1, terms))
            stack.append(_merge(stack[-1], child, terms))
        prev = parts
        yield _close(stack[-1], terms)


def forest_series_lists(adj: list[tuple[int, ...]], terms: int) -> list[int]:
    """The top series of the charpoly of a forest (Schwenk, bottom-up over
    each component rooted at its least vertex), by the list fold, zero-padded
    to min(terms, n // 2 + 1) coefficients."""
    n = len(adj)
    parent = [-1] * n
    seen = [False] * n
    order = []
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            component = [root]
            for v in component:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        parent[w] = v
                        component.append(w)
            order += component
    sub = [None] * n
    result = [1]
    for v in reversed(order):
        sub[v] = _join_at_root((sub[w] for w in adj[v] if w != parent[v]), terms)
        if parent[v] < 0:
            result = _series_mul(result, sub[v][0], terms)
    size = min(terms, n // 2 + 1)
    return (result + [0] * size)[:size]


def check_report_json_obj(report) -> dict:
    """A `verify.CheckReport` as a dict in the key order of its JSON line,
    nested subchecks included; json.dumps of it is the reference for
    `CheckReport.json_line`. Violation counts become decimal strings."""
    obj: dict = {
        "name": report.name,
        "instance": report.instance,
        "max_k": report.max_k,
        "holds": report.holds,
        "first_strict_witness": report.first_strict_witness,
        "vacuous": report.vacuous,
        "violation": None,
    }
    if report.violation is not None:
        k, lhs, rhs = report.violation
        obj["violation"] = {"k": k, "lhs": str(lhs), "rhs": str(rhs)}
    if report.subchecks:
        obj["subchecks"] = [check_report_json_obj(s) for s in report.subchecks]
    return obj


def render_json_dumps(command: str, table) -> str:
    """A `cli.Table` in the JSON output format, by json.dumps with an indent
    of 2 on the whole payload, each row an object keyed by the columns: the
    reference for `cli._render_json`."""
    payload = {
        "command": command,
        "params": table.params,
        "rows": [dict(zip(table.columns, row)) for row in table.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def first_witness_closed_form(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """The first k at which two starlike trees of one order, each with at
    least three branches, have different closed-walk counts, by a closed
    form observed on the shortlex chains and not proved: 4 when their
    branch counts differ (M_4 grows with the sum of squared degrees), else
    2(c + 2), with c the smallest part in the symmetric difference of the
    two branch multisets."""
    if len(alpha) != len(beta):
        return 4
    a, b = Counter(alpha), Counter(beta)
    return 2 * (min((a - b) + (b - a)) + 2)


def has_path_from_recursive(adj: list[tuple[int, ...]], u: int, c: int) -> bool:
    """Is there a simple path with c edges starting at u? One recursive
    call per edge of the path tried, so only for small graphs."""
    if c >= len(adj):
        return False
    seen = [False] * len(adj)

    def walk(v: int, left: int) -> bool:
        if left == 0:
            return True
        seen[v] = True
        for w in adj[v]:
            if not seen[w] and walk(w, left - 1):
                seen[v] = False
                return True
        seen[v] = False
        return False

    return walk(u, c)


def tree_centers_peeling(adj: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The one or two middle vertices of a tree, by peeling its leaves
    layer by layer until at most two vertices remain."""
    n = len(adj)
    if n <= 2:
        return tuple(range(n))
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for leaf in layer:
            degree[leaf] = 0
            for w in adj[leaf]:
                if degree[w] > 1:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


def canonical_code_nested(adj: list[tuple[int, ...]]) -> tuple:
    """A free tree's code as nested tuples of sorted child codes, rooted at
    its peeled center: ("c", code), or ("e", the sorted codes of the two
    sides of the central edge). One recursive call per level, so only for
    shallow trees."""

    def rooted(v: int, parent: int) -> tuple:
        return tuple(sorted(rooted(w, v) for w in adj[v] if w != parent))

    centers = tree_centers_peeling(adj)
    if len(centers) == 1:
        return ("c", rooted(centers[0], -1))
    a, b = centers
    return ("e", tuple(sorted((rooted(a, b), rooted(b, a)))))


def spectral_radius_full_halving(g, tol: float) -> float:
    """`spectral_radius` as it stood before its early stop: the seed is the
    cell of the output grid itself, at any tol, and halving always runs to
    the output level. Unlike the rest of this module it runs the library's
    own seeds and halving; the two routes differ only in how fine the seed
    is and where halving stops."""
    from starwalk import spectra
    from starwalk.trees import starlike_branches

    num, den = tol.as_integer_ratio()
    p, branches = spectra.charpoly(g), starlike_branches(g)
    side = 1 if branches is None else p.sign_at(2)
    if side < 0:
        level = spectra._level(len(branches) - 1, 0, num, den)
        bits = level + spectra._ESTIMATE_GUARD
        estimate = spectra._secular_radius(branches.parts, bits)
        root = spectra._starlike_top_root(branches.parts, p, level, estimate, bits)
    elif side == 0:
        return 2.0
    elif branches is not None:
        root = spectra._dynkin_top_root(g, branches.parts, p, num, den)
    else:
        root = spectra._isolate_top_root(g, p, g.max_degree() + 1)
    for _ in range(spectra._level(root.w, root.e, num, den)):
        root.halve()
    return (2 * root.a + root.w) / (1 << root.e + 1)
