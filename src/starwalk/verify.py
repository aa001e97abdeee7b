"""Machine checks for the walk-count comparisons behind the shortlex order.

Each checker computes exact walk counts of both sides of one inequality
(or identity) through a horizon K, and reports what it saw: a starlike side
is read from its branch list, any other side from a concrete graph. A
report never claims more than was computed: ``holds`` means no
counterexample appeared at any k <= K, and a strict witness is recorded only
when one actually occurred. Conditional statements follow a
hypothesis-then-conclusion protocol: if a hypothesis fails on the supplied
instance, the run is marked vacuous instead of failed, so misapplied
instances stay distinguishable from real violations.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import combinations, compress, count
from json.encoder import encode_basestring_ascii as _encode
from operator import gt, itemgetter, lt
from typing import NamedTuple, Optional, Sequence

from .ordering import Witness, _first_divergences
from .partitions import (
    CaseTag, Partition, enumerate_shortlex, shortlex_successor, shortlex_tuples
)
from .trees import (
    Graph,
    attach_paths,
    coalescence,
    is_connected,
    make_path,
    make_starlike,
    starlike_branches,
)
from .walks import (
    all_walk_counts,
    closed_walk_counts,
    closed_walk_counts_at,
    starlike_closed_walk_counts,
    starlike_even_walk_counts,
)

__all__ = [
    "CheckReport",
    "check_li_feng",
    "check_case1",
    "check_case2",
    "check_case3",
    "check_coalescence_lemma",
    "check_path_difference",
    "check_corollaries",
    "check_moment_canceling",
    "verify_theorem",
    "check_all_walks_analogue",
    "run_suite",
]


class CheckReport(NamedTuple):
    """Outcome of one machine check.

    holds is true exactly when violation is unset. first_strict_witness is
    the smallest k where the two sides differed in the claimed direction
    (None if the comparison was an equality throughout, or an identity check
    where strictness is meaningless). vacuous marks conditional checks whose
    hypotheses failed on the given instance; such runs hold trivially.
    """

    name: str
    instance: str
    max_k: int
    first_strict_witness: Optional[int] = None
    violation: Optional[tuple[int, int, int]] = None
    vacuous: bool = False
    subchecks: tuple["CheckReport", ...] = ()

    @property
    def holds(self) -> bool:
        return self.violation is None

    def json_line(self) -> str:
        """The report as one line of JSON, byte for byte what json.dumps
        writes for its fields in this order, subchecks last and only if any.
        Violation counts can exceed 2**53: they are decimal strings."""
        witness, v = self.first_strict_witness, self.violation
        line = (
            f'{{"name": {_encode(self.name)}, "instance": {_encode(self.instance)}, '
            f'"max_k": {self.max_k}, "holds": {"true" if v is None else "false"}, '
            f'"first_strict_witness": {"null" if witness is None else witness}, '
            f'"vacuous": {"true" if self.vacuous else "false"}, "violation": '
            + ("null" if v is None else f'{{"k": {v[0]}, "lhs": "{v[1]}", "rhs": "{v[2]}"}}')
        )
        if self.subchecks:
            line += ', "subchecks": [' + ", ".join(s.json_line() for s in self.subchecks) + "]"
        return line + "}"


def _dominance_report(
    name: str,
    instance: str,
    max_k: int,
    lhs: Sequence[int],
    rhs: Sequence[int],
    direction: str = "le",
    subchecks: tuple = (),
) -> CheckReport:
    """Check lhs <= rhs (>= for "ge") at k = 0..max_k. The first k where it
    fails is the violation; the first strict k before it is the witness."""
    up, down = _first_divergences(lhs, rhs, 0, max_k)
    bad, strict = (up, down) if direction == "le" else (down, up)
    if strict is not None and bad is not None and bad.k < strict.k:
        strict = None
    return CheckReport(
        name=name,
        instance=instance,
        max_k=max_k,
        first_strict_witness=None if strict is None else strict.k,
        violation=bad,
        subchecks=subchecks,
    )


def _describe(g: Graph) -> str:
    if g.n == 1:
        return "P_1"
    branches = starlike_branches(g)
    if branches is None:
        return f"graph(n={g.n},m={g.edge_count})"
    # a path is recognized from one end, as a single branch
    return f"P_{g.n}" if len(branches) == 1 else f"S({branches})"


def _moments(g: Graph, max_k: int) -> tuple[int, ...]:
    return closed_walk_counts(g, max_k).values


def _has_path_from(g: Graph, u: int, c: int) -> bool:
    """Is there a simple path with c edges starting at u?

    Depth first on an explicit stack of (vertex, neighbour iterator)
    frames, the stack being the path so far, so a long path cannot exhaust
    the recursion limit."""
    if c >= g.n:
        return False
    on_path = [False] * g.n
    on_path[u] = True
    stack = [(u, iter(g.adj[u]))]
    while 0 < len(stack) <= c:
        v, nbrs = stack[-1]
        w = next((w for w in nbrs if not on_path[w]), None)
        if w is None:
            on_path[v] = False
            stack.pop()
        else:
            on_path[w] = True
            stack.append((w, iter(g.adj[w])))
    return len(stack) > c


def _require_pendant_path(g: Graph, u: int, c: int) -> None:
    # premise is validated by explicit search, never trusted from the caller
    if not _has_path_from(g, u, c):
        raise ValueError(
            f"premise fails: no simple path with {c} edges starts at vertex {u}"
        )


def check_li_feng(g: Graph, u: int, p: int, q: int, max_k: int = 50) -> CheckReport:
    """Shifting one edge from the longer of two pendant paths never raises
    any closed-walk count: with paths of p and q edges at u and p >= q+2,
    every M_k weakly decreases when they are rebalanced to p-1 and q+1.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if not (0 <= u < g.n):
        raise ValueError(f"u={u} out of range")
    if g.edge_count < 1 or not is_connected(g):
        raise ValueError("base graph must be connected with at least one edge")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if p < q + 2:
        raise ValueError(f"premise p >= q+2 fails: p={p}, q={q}")
    lhs = _moments(attach_paths(g, u, (p, q)), max_k)
    rhs = _moments(attach_paths(g, u, (p - 1, q + 1)), max_k)
    instance = f"{_describe(g)} u={u} p={p} q={q}"
    return _dominance_report("li_feng", instance, max_k, lhs, rhs)


def check_case1(alpha: Partition | Sequence[int], max_k: int = 50) -> CheckReport:
    """Bump-and-shrink rewrite of the last two branches: when the gap between
    them is at least 2, the rewritten tree weakly dominates in every M_k.
    It is the pendant-path shift of `check_li_feng` at the center of
    S(rest), rest = alpha[:-2], read from the two branch lists.
    """
    alpha = Partition(alpha)
    parts = alpha.parts
    if len(parts) < 3:
        raise ValueError("need at least three branches")
    if parts[-2] > parts[-1] - 2:
        raise ValueError(
            f"premise fails: next-to-last part {parts[-2]} must be <= last - 2 "
            f"= {parts[-1] - 2}"
        )
    succ = shortlex_successor(alpha)
    assert succ is not None and succ[1].tag is CaseTag.CASE_I
    beta = succ[0]
    rest, q, p = parts[:-2], parts[-2], parts[-1]
    assert beta == Partition(rest + (p - 1, q + 1))
    # on one or two branches S(rest) is a path, and its center is vertex rest[0]
    base = f"S({Partition(rest)}) u=0" if len(rest) >= 3 else f"P_{sum(rest) + 1} u={rest[0]}"
    lhs, rhs = starlike_closed_walk_counts((alpha, beta), max_k)
    instance = f"S({alpha}) -> S({beta}) via {base}"
    return _dominance_report("case1", instance, max_k, lhs, rhs)


def check_case3(alpha: Partition | Sequence[int], max_k: int = 50) -> CheckReport:
    """A k-branch starlike tree is weakly dominated by the broom with k
    pendant edges and one long branch on the same vertex count.
    """
    alpha = Partition(alpha)
    k = len(alpha)
    n = alpha.n
    if k < 3:
        raise ValueError("need at least three branches")
    if n == k:
        raise ValueError("all-ones partition: the long branch would be empty")
    beta = Partition((1,) * k + (n - k,))
    lhs, rhs = starlike_closed_walk_counts((alpha, beta), max_k)
    return _dominance_report("case3", f"S({alpha}) -> S({beta})", max_k, lhs, rhs)


def check_coalescence_lemma(
    g: Graph,
    u: int,
    h1: Graph,
    v1: int,
    h2: Graph,
    v2: int,
    max_k: int = 50,
) -> CheckReport:
    """Gluing a dominating rooted graph in place of a dominated one at the
    same vertex of g preserves weak dominance of the composites.

    Hypotheses (total counts of h1 vs h2, and rooted counts at v1 vs v2) are
    verified first; if either fails the run is vacuous rather than failed.
    """
    if not (0 <= u < g.n):
        raise ValueError(f"u={u} out of range")
    instance = (
        f"{_describe(g)} u={u} with {_describe(h1)} v={v1} vs {_describe(h2)} v={v2}"
    )
    hyp_total = _dominance_report(
        "coalescence_hyp_total", instance, max_k, _moments(h1, max_k), _moments(h2, max_k)
    )
    hyp_rooted = _dominance_report(
        "coalescence_hyp_rooted",
        instance,
        max_k,
        closed_walk_counts_at(h1, v1, max_k).values,
        closed_walk_counts_at(h2, v2, max_k).values,
    )
    subs = (hyp_total, hyp_rooted)
    if not (hyp_total.holds and hyp_rooted.holds):
        which = "total" if not hyp_total.holds else "rooted"
        return CheckReport(
            name="coalescence",
            instance=f"{instance} [vacuous: {which} hypothesis fails]",
            max_k=max_k,
            vacuous=True,
            subchecks=subs,
        )
    lhs = _moments(coalescence(g, u, h1, v1), max_k)
    rhs = _moments(coalescence(g, u, h2, v2), max_k)
    return _dominance_report("coalescence", instance, max_k, lhs, rhs, subchecks=subs)


def check_path_difference(
    g: Graph, u: int, c: int, d: int, max_k: int = 50
) -> CheckReport:
    """Lengthening a pendant path pays at least the standalone path
    difference: attaching a d-edge path at u gains, in every M_k, at least
    what replacing a (c-edge) path by a (c+d-edge) path gains on its own.
    Requires a c-edge path from u that is a proper subgraph.
    """
    if g.n == c + 1 and g.edge_count == c:
        raise ValueError(
            f"premise fails: a path on {c + 1} vertices is the whole graph, "
            "not a proper subgraph"
        )
    # the single-attachment case of the summed inequality, which validates
    # c, d, u and the premise path
    report = check_corollaries("disjoint", g, u, [(c, d)], max_k)
    instance = f"{_describe(g)} u={u} c={c} d={d}"
    return report._replace(name="path_difference", instance=instance)


def check_corollaries(
    mode: str,
    g: Graph,
    u: int,
    pairs: Sequence[tuple[int, int]],
    max_k: int = 50,
) -> CheckReport:
    """Summed form of the pendant-path gain over several attachments.

    disjoint: every path attaches at u itself; one premise path of
    max(c_i) edges from u suffices. sequential: each path attaches at the
    far end of the previous one; the c_i premise is re-validated on the
    partially built graph at every stage. With one pair both modes coincide
    with the single-attachment inequality.

    Premise paths only have to exist here, not be proper subgraphs: when the
    premise path exhausts the graph the stage degenerates to an equality, so
    the summed weak inequality survives.
    """
    if mode not in ("disjoint", "sequential"):
        raise ValueError(f"mode must be 'disjoint' or 'sequential', got {mode!r}")
    pairs = [(int(c), int(d)) for c, d in pairs]
    if not pairs:
        raise ValueError("need at least one (c, d) pair")
    if any(c < 1 or d < 1 for c, d in pairs):
        raise ValueError("all c and d must be at least 1")
    if not (0 <= u < g.n):
        raise ValueError(f"u={u} out of range")

    if mode == "disjoint":
        _require_pendant_path(g, u, max(c for c, _ in pairs))
        built = attach_paths(g, u, [d for _, d in pairs])
    else:
        built, at = g, u
        for c, d in pairs:
            _require_pendant_path(built, at, c)
            built = attach_paths(built, at, (d,))
            at = built.n - 1  # the far end of the new path

    # the paths on c + d + 1 and c + 1 vertices, for every pair in turn
    paths = starlike_closed_walk_counts([(x,) for c, d in pairs for x in (c + d, c)], max_k)
    rhs = list(_moments(g, max_k))
    for long_path, short_path in zip(paths[::2], paths[1::2]):
        for k in range(max_k + 1):
            rhs[k] += long_path[k] - short_path[k]
    lhs = _moments(built, max_k)
    instance = f"{_describe(g)} u={u} pairs={pairs!r}"
    return _dominance_report(
        f"corollary_{mode}", instance, max_k, lhs, rhs, direction="ge"
    )


def check_moment_canceling(a: int, b: int, pq: int, max_k: int = 50) -> CheckReport:
    """Exact identity, not an inequality: the total-moment difference between
    S(a, (b+1)^pq) and S((a+1)^pq, b) equals (pq-1) times the path difference
    M_k(P_{b+1}) - M_k(P_{a+1}) at every k. The two trees differ in order, so
    this is a statement about differences, not dominance.
    """
    if not (1 <= a < b):
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
    if pq < 2:
        raise ValueError("need p+q >= 2")
    left, right, path_b, path_a = starlike_closed_walk_counts(
        [(a,) + (b + 1,) * pq, (a + 1,) * pq + (b,), (b,), (a,)], max_k
    )
    violation = None
    for k in range(max_k + 1):
        diff = left[k] - right[k]
        target = (pq - 1) * (path_b[k] - path_a[k])
        if diff != target:
            violation = (k, diff, target)
            break
    return CheckReport(
        name="moment_canceling",
        instance=f"a={a} b={b} p+q={pq}",
        max_k=max_k,
        violation=violation,
    )


def check_case2(
    a: int,
    b: int,
    p: int,
    q: int,
    prefix: Sequence[int] = (),
    max_k: int = 50,
) -> CheckReport:
    """Tail-flattening rewrite: branches (a, b^p, (b+1)^q) become
    ((a+1)^(p+q), f) with f = (p+q-1)(b-a) + b - p, and every closed-walk
    count weakly increases, with and without extra prefix branches.

    Sub-reports: the headline total-moment comparison (or, when f = b, the
    pendant-path shift (b+1, a) -> (b, a+1) at the center of S(prefix + b^p)
    that the rewrite then is, read from the branch lists), the center-rooted
    comparison, the two stepping-stone inequalities that add path
    differences one branch at a time, and the prefix-composed comparison
    when a prefix is given.
    """
    if not (1 <= a < b):
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
    if p < 0 or q < 1:
        raise ValueError("need p >= 0 and q >= 1")
    prefix = tuple(int(x) for x in prefix)
    if any(x < 1 for x in prefix):
        raise ValueError("prefix parts must be positive")
    f = (p + q - 1) * (b - a) + b - p
    lhs_tail = (a,) + (b,) * p + (b + 1,) * q
    rhs_tail = (a + 1,) * (p + q) + (f,)
    instance = f"a={a} b={b} p={p} q={q} f={f} prefix=({','.join(map(str, prefix))})"

    # both tails, the two stepping-stone anchors, the paths on b + 1, b and
    # a + 1 vertices, and the prefix-composed trees
    lists = [lhs_tail, rhs_tail, (a,) + (b + 1,) * (p + q), (a + 1,) * (p + q) + (b,)]
    lists += [(b,), (b - 1,), (a,)]
    if prefix:
        lists += [prefix + lhs_tail, prefix + rhs_tail]
    lhs_counts, rhs_counts, grown, anchor, path_b1, path_b0, path_a1, *composed = (
        starlike_closed_walk_counts(lists, max_k)
    )

    if f == b:
        # degenerate balancing part (then q = 1); an empty rest leaves
        # nothing to attach to, and both sides are one path
        rest = prefix + (b,) * p
        assert Partition(prefix + lhs_tail) == Partition(rest + (b + 1, a))
        assert Partition(prefix + rhs_tail) == Partition(rest + (b, a + 1))
        sides = composed or [lhs_counts, rhs_counts]
        bare = "" if rest else " [bare]"
        head = _dominance_report("case2_reduction", instance + bare, max_k, *sides)
    else:
        tails = f"S({Partition(lhs_tail)}) -> S({Partition(rhs_tail)})"
        head = _dominance_report("case2_total_walks", tails, max_k, lhs_counts, rhs_counts)

    subs = [head]
    subs.append(
        _dominance_report(
            "case2_center_walks",
            instance,
            max_k,
            closed_walk_counts_at(make_starlike(lhs_tail), 0, max_k).values,
            closed_walk_counts_at(make_starlike(rhs_tail), 0, max_k).values,
        )
    )

    # stepping stones: lengthen the p short branches, then grow the tail
    # branch; both lower-bounded by sums of standalone path differences
    subs.append(
        _dominance_report(
            "case2_lengthen",
            instance,
            max_k,
            grown,
            [lhs_counts[k] + p * (path_b1[k] - path_b0[k]) for k in range(max_k + 1)],
            direction="ge",
        )
    )
    subs.append(
        _dominance_report(
            "case2_tail",
            instance,
            max_k,
            rhs_counts,
            [
                anchor[k]
                + (q - 1) * (path_b1[k] - path_a1[k])
                + p * (path_b0[k] - path_a1[k])
                for k in range(max_k + 1)
            ],
            direction="ge",
        )
    )

    if composed and f != b:
        subs.append(_dominance_report("case2_composed", instance, max_k, *composed))

    violation = next((s.violation for s in subs if s.violation is not None), None)
    return CheckReport(
        name="case2",
        instance=instance,
        max_k=max_k,
        first_strict_witness=head.first_strict_witness,
        violation=violation,
        subchecks=tuple(subs),
    )


def _chain_reports(
    name: str, n: int, chain: list[tuple[int, ...]], seqs: list, max_k: int, pairs: str,
    stride: int,
) -> list[CheckReport]:
    """Dominance reports along a chain of branch tuples on n vertices, each
    earlier tree against a later one: consecutive or all ordered pairs, as
    `_dominance_report` gives them. seqs[i][j] is tree i's count at
    k = stride * j: stride 2 reads closed walks at even k alone, as every
    odd count of a tree is 0 on both sides and so never a witness."""
    digits = [str(part) for part in range(n)]
    # a one-branch list is the path P_n
    labels = [
        f"P_{n}" if len(t) == 1 else "S(" + ",".join(map(digits.__getitem__, t)) + ")"
        for t in chain
    ]
    lefts = [f"n={n}: {label} -> " for label in labels]
    if pairs == "consecutive":
        index_pairs = zip(range(len(seqs) - 1), range(1, len(seqs)))
    else:
        index_pairs = combinations(range(len(seqs)), 2)
    end = len(seqs[0]) if seqs else 0
    reports = []
    for i, j in index_pairs:
        lhs, rhs = seqs[i], seqs[j]
        # the first index where lhs exceeds rhs (the violation) and the first
        # where it falls below (the witness, if it comes first); end for none
        up = next(compress(count(), map(gt, lhs, rhs)), end)
        down = next(compress(count(), map(lt, lhs, rhs)), end)
        reports.append(CheckReport(
            name,
            lefts[i] + labels[j],
            max_k,
            stride * down if down < up else None,
            Witness(stride * up, lhs[up], rhs[up]) if up < end else None,
        ))
    return reports


def _per_order(part, n_max: int, *args) -> list[partial]:
    """part(n, *args) for every order n <= n_max, largest first: the
    costliest parts start first, so no worker is left with a large one."""
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    return [partial(part, n, *args) for n in range(n_max, 3, -1)]


def _theorem_order(n: int, max_k: int, pairs: str) -> list[CheckReport]:
    # even closed walks of the whole chain, from its branch lists in one call
    chain = shortlex_tuples(n - 1, min_parts=3)
    seqs = starlike_even_walk_counts(chain, max_k)
    return _chain_reports("theorem_sweep", n, chain, seqs, max_k, pairs, 2)


def _all_walks_order(n: int, max_k: int, chain: Optional[list] = None) -> list[CheckReport]:
    # all walks are counted on the trees; a caller holding the chain passes it
    chain = chain or shortlex_tuples(n - 1, min_parts=3)
    seqs = [all_walk_counts(make_starlike(t), max_k).values for t in chain]
    return _chain_reports("all_walks_sweep", n, chain, seqs, max_k, "consecutive", 1)


def verify_theorem(
    n_max: int, max_k: int = 40, pairs: str = "consecutive"
) -> list[CheckReport]:
    """Sweep every order n <= n_max: realize the shortlex chain of starlike
    trees on n vertices and verify weak dominance (with strict witnesses
    where the counts differ) for consecutive or all ordered pairs, sorted
    by (name, instance).
    """
    if pairs not in ("consecutive", "all"):
        raise ValueError(f"pairs must be 'consecutive' or 'all', got {pairs!r}")
    return _run_parts(_per_order(_theorem_order, n_max, max_k, pairs))


def check_all_walks_analogue(n_max: int, max_k: int = 40) -> list[CheckReport]:
    """Same sweep as verify_theorem but counting all walks between all vertex
    pairs; without the bipartite parity zeroes, strict witnesses can be odd.
    """
    return _run_parts(_per_order(_all_walks_order, n_max, max_k))


def _order_reports(n: int, max_k: int) -> list[CheckReport]:
    """The battery's reports on n vertices: the theorem sweep, the low-end
    chain and, through order 9, the all-walks sweep.

    The low end of the order is the path, then the three-branch trees
    S(1, j, n-2-j) with growing j, each strictly below the next: the first
    (n - 2) // 2 trees of the chain. One kernel call counts the even closed
    walks of the path and the chain."""
    chain = shortlex_tuples(n - 1, min_parts=3)
    trees = [(n - 1,)] + chain
    seqs = starlike_even_walk_counts(trees, max_k)
    low = (n - 2) // 2 + 1
    reports = _chain_reports("theorem_sweep", n, chain, seqs[1:], max_k, "consecutive", 2)
    reports += _chain_reports("initial_chain", n, trees[:low], seqs[:low], max_k, "consecutive", 2)
    # the all-walks analogue genuinely fails from order 10 on (smallest
    # crossing: S(1,2,2,2,2) vs S(1,1,1,1,1,4), W_3 = 106 > 104), so the
    # default battery only sweeps the range where it is a theorem-like fact;
    # check_all_walks_analogue remains available for the full range
    if n <= 9:
        reports += _all_walks_order(n, max_k, chain)
    return reports


def _shortlex(lo: int, hi: int) -> list[Partition]:
    return [pi for m in range(lo, hi) for pi in enumerate_shortlex(m, min_parts=3)]


def _case2_rows() -> list[tuple]:
    """(a, b, p, q, prefix) for every genuine tail-flattening step in the
    chains of partitions of 6..11, plus a few synthetic corners (p = 0,
    degenerate f = b, prefix present), each once."""
    rows = []
    for pi in _shortlex(6, 12):
        nxt = shortlex_successor(pi)
        if nxt is not None and nxt[1].tag is CaseTag.CASE_II:
            info = nxt[1]
            rows.append(
                (pi.parts[info.j - 1], pi.parts[-1] - 1, info.p, info.q, pi.parts[: info.j - 1])
            )
    rows += [
        (1, 3, 0, 2, ()),
        (1, 3, 2, 1, ()),
        (2, 4, 1, 2, ()),
        (1, 2, 0, 1, ()),
        (1, 2, 3, 1, ()),
        (2, 3, 1, 1, (1,)),
        (1, 4, 2, 2, (1,)),
    ]
    return list(dict.fromkeys(rows))


def _lemma_reports(max_k: int) -> list[CheckReport]:
    """Instance grids for every lemma and rewrite, each run as
    checker(*row, max_k=max_k).

    The tables are built here, at call time, not at import: importing stays
    cheap, and the rows get the checkers this module's globals hold when the
    suite runs, so a wrapper installed on a checker is the one that runs.
    """
    long_leaf = make_starlike((1, 1, 2))
    tables = [
        (check_li_feng, [
            (g, u, p, q)
            for g, u in [
                (make_path(2), 0), (make_path(3), 0), (make_path(3), 1),
                (make_starlike((1, 1, 1)), 0), (make_starlike((1, 2, 2)), 0),
            ]
            for q in range(0, 3)
            for p in range(q + 2, q + 5)
        ]),
        (check_case1, [(pi,) for pi in _shortlex(5, 11) if pi.parts[-2] <= pi.parts[-1] - 2]),
        (check_case3, [(pi,) for pi in _shortlex(4, 10) if pi.n > len(pi)]),
        (check_case2, _case2_rows()),
        (check_coalescence_lemma, [
            (g, u, h1, v1, h2, v2)
            for g, u in [(make_path(3), 0), (make_starlike((1, 1, 1)), 0), (make_path(4), 1)]
            for h1, v1, h2, v2 in [
                (make_path(2), 0, make_path(3), 0),
                (make_path(3), 0, make_path(4), 0),
                (make_path(3), 1, make_path(5), 2),
                (make_starlike((1, 1, 2)), 0, make_starlike((1, 2, 2)), 0),
                (make_path(3), 0, make_path(3), 0),
                (make_starlike((1, 1, 1)), 0, make_path(4), 0),
            ]
        ]),
        (check_path_difference, [
            (g, u, c, d)
            for g, u, cs in [
                (make_path(3), 0, (1,)),
                (make_path(4), 0, (1, 2)),
                (make_path(5), 1, (1, 2, 3)),
                (long_leaf, 4, (1, 2, 3)),
            ]
            for c in cs
            for d in (1, 2, 3)
        ]),
        (check_corollaries, [
            ("disjoint", make_path(4), 0, ((1, 1), (2, 2))),
            ("disjoint", make_path(4), 0, ((1, 2),)),
            ("disjoint", make_path(5), 0, ((1, 1), (2, 1), (3, 2))),
            ("disjoint", long_leaf, 4, ((1, 1), (2, 1))),
            ("disjoint", make_starlike((1, 1, 1)), 1, ((1, 2), (2, 1))),
            ("sequential", make_path(4), 0, ((1, 1), (2, 1))),
            ("sequential", make_path(4), 0, ((2, 2), (4, 1))),
            ("sequential", make_path(3), 0, ((1, 2),)),
            ("sequential", make_path(2), 0, ((1, 1), (2, 2))),
            ("sequential", long_leaf, 4, ((2, 1), (3, 2))),
        ]),
        (check_moment_canceling, [
            (a, b, pq) for a in range(1, 6) for b in range(a + 1, 7) for pq in range(2, 6)
        ]),
    ]
    return [checker(*row, max_k=max_k) for checker, rows in tables for row in rows]


def _pool_workers(jobs: int, tasks: int) -> int:
    """Processes for _run_parts: jobs, capped by the usable CPUs and tasks."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(jobs, len(affinity(0)) if affinity else os.cpu_count() or 1, tasks)


def _run_parts(parts: list, jobs: int = 1) -> list[CheckReport]:
    """Call every part, on up to `jobs` processes, this one included, and
    return all their reports sorted by (name, instance), the same at any
    parallelism. More than one process needs os.fork; without it the parts
    run here, one after another."""
    workers = _pool_workers(jobs, len(parts))
    if workers > 1 and hasattr(os, "fork"):
        from .pool import run_forked  # only a parallel run needs it

        chunks = run_forked(parts, workers, CheckReport._make)
    else:
        chunks = [part() for part in parts]
    # a report is a tuple that starts (name, instance)
    return sorted((r for chunk in chunks for r in chunk), key=itemgetter(0, 1))


def run_suite(n_max: int = 14, max_k: int = 40, jobs: int = 1) -> list[CheckReport]:
    """Run the whole default battery, sorted by (name, instance): both
    sweeps, the low-end chains, and instance grids for every lemma and
    rewrite, as one part of lemma tables and one part per order.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    parts = [partial(_lemma_reports, max_k)] + _per_order(_order_reports, n_max, max_k)
    return _run_parts(parts, jobs)
