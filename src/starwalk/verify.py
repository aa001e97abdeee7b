"""Machine checks for the walk-count comparisons behind the shortlex order.

Each checker realizes both sides of one inequality (or identity) as concrete
graphs, computes exact walk counts through a horizon K, and reports what it
saw. A report never claims more than was computed: ``holds`` means no
counterexample appeared at any k <= K, and a strict witness is recorded only
when one actually occurred. Conditional statements follow a
hypothesis-then-conclusion protocol: if a hypothesis fails on the supplied
instance, the run is marked vacuous instead of failed, so misapplied
instances stay distinguishable from real violations.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .partitions import CaseTag, Partition, enumerate_shortlex, shortlex_successor
from .trees import (
    Graph,
    attach_two_paths,
    canonical_code,
    coalescence,
    is_connected,
    make_path,
    make_starlike,
    starlike_branches,
)
from .walks import all_walk_counts, closed_walk_counts, closed_walk_counts_at

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


@dataclass(frozen=True)
class CheckReport:
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
    holds: bool
    first_strict_witness: Optional[int] = None
    violation: Optional[tuple[int, int, int]] = None
    vacuous: bool = False
    subchecks: tuple["CheckReport", ...] = ()

    def __post_init__(self):
        if self.holds != (self.violation is None):
            raise ValueError("holds must mirror the absence of a violation")

    def to_json_obj(self) -> dict:
        # violation counts can exceed 2**53; serialize them as decimal strings
        obj: dict = {
            "name": self.name,
            "instance": self.instance,
            "max_k": self.max_k,
            "holds": self.holds,
            "first_strict_witness": self.first_strict_witness,
            "vacuous": self.vacuous,
            "violation": None,
        }
        if self.violation is not None:
            k, lhs, rhs = self.violation
            obj["violation"] = {"k": k, "lhs": str(lhs), "rhs": str(rhs)}
        if self.subchecks:
            obj["subchecks"] = [s.to_json_obj() for s in self.subchecks]
        return obj


def _scan(
    lhs: Sequence[int], rhs: Sequence[int], direction: str
) -> tuple[Optional[int], Optional[tuple[int, int, int]]]:
    """First strict index and first violation of lhs <= rhs (or >= for "ge")."""
    first_strict = None
    for k, (l, r) in enumerate(zip(lhs, rhs)):
        bad = l > r if direction == "le" else l < r
        if bad:
            return first_strict, (k, l, r)
        if first_strict is None and l != r:
            first_strict = k
    return first_strict, None


def _dominance_report(
    name: str,
    instance: str,
    max_k: int,
    lhs: Sequence[int],
    rhs: Sequence[int],
    direction: str = "le",
    subchecks: tuple = (),
) -> CheckReport:
    first_strict, violation = _scan(lhs, rhs, direction)
    return CheckReport(
        name=name,
        instance=instance,
        max_k=max_k,
        holds=violation is None,
        first_strict_witness=first_strict,
        violation=violation,
        subchecks=subchecks,
    )


def _describe(g: Graph) -> str:
    if g.n >= 1 and is_connected(g) and g.max_degree() <= 2:
        return f"P_{g.n}"
    branches = starlike_branches(g)
    if branches is not None:
        return f"S({branches})"
    return f"graph(n={g.n},m={g.edge_count})"


def _moments(g: Graph, max_k: int) -> tuple[int, ...]:
    return closed_walk_counts(g, max_k).values


def _has_path_from(g: Graph, u: int, c: int) -> bool:
    """Is there a simple path with c edges starting at u?"""
    if c >= g.n:
        return False
    seen = [False] * g.n

    def walk(v: int, left: int) -> bool:
        if left == 0:
            return True
        seen[v] = True
        for w in g.adj[v]:
            if not seen[w] and walk(w, left - 1):
                seen[v] = False
                return True
        seen[v] = False
        return False

    return walk(u, c)


def _require_pendant_path(g: Graph, u: int, c: int, proper: bool = True) -> None:
    # premise is validated by explicit search, never trusted from the caller
    if not _has_path_from(g, u, c):
        raise ValueError(
            f"premise fails: no simple path with {c} edges starts at vertex {u}"
        )
    if proper and g.n == c + 1 and g.edge_count == c:
        raise ValueError(
            f"premise fails: a path on {c + 1} vertices is the whole graph, "
            "not a proper subgraph"
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
    lhs = _moments(attach_two_paths(g, u, p, q), max_k)
    rhs = _moments(attach_two_paths(g, u, p - 1, q + 1), max_k)
    instance = f"{_describe(g)} u={u} p={p} q={q}"
    return _dominance_report("li_feng", instance, max_k, lhs, rhs)


def _case1_base(parts: tuple[int, ...]) -> tuple[Graph, int]:
    """Base graph and attachment vertex realizing S(parts[:-2]) plus room
    for the last two branches: a proper star for >= 3 remaining branches,
    otherwise a path with the attachment point chosen so the two pendant
    paths complete the intended starlike tree.
    """
    rest = parts[:-2]
    if len(rest) >= 3:
        return make_starlike(rest).graph, 0
    if len(rest) == 2:
        return make_path(rest[0] + rest[1] + 1), rest[0]
    return make_path(rest[0] + 1), rest[0]


def check_case1(alpha: Partition | Sequence[int], max_k: int = 50) -> CheckReport:
    """Bump-and-shrink rewrite of the last two branches: when the gap between
    them is at least 2, the rewritten tree weakly dominates in every M_k.
    """
    if not isinstance(alpha, Partition):
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

    base, u = _case1_base(parts)
    p, q = parts[-1], parts[-2]
    lhs_g = attach_two_paths(base, u, p, q)
    rhs_g = attach_two_paths(base, u, p - 1, q + 1)
    # the attachment-vertex rules must reconstruct exactly the two trees
    assert canonical_code(lhs_g) == canonical_code(make_starlike(alpha).graph)
    assert canonical_code(rhs_g) == canonical_code(make_starlike(beta).graph)
    instance = f"S({alpha}) -> S({beta}) via {_describe(base)} u={u}"
    return _dominance_report(
        "case1", instance, max_k, _moments(lhs_g, max_k), _moments(rhs_g, max_k)
    )


def check_case3(alpha: Partition | Sequence[int], max_k: int = 50) -> CheckReport:
    """A k-branch starlike tree is weakly dominated by the broom with k
    pendant edges and one long branch on the same vertex count.
    """
    if not isinstance(alpha, Partition):
        alpha = Partition(alpha)
    k = len(alpha)
    n = alpha.n
    if k < 3:
        raise ValueError("need at least three branches")
    if n == k:
        raise ValueError("all-ones partition: the long branch would be empty")
    beta = Partition((1,) * k + (n - k,))
    instance = f"S({alpha}) -> S({beta})"
    return _dominance_report(
        "case3",
        instance,
        max_k,
        _moments(make_starlike(alpha).graph, max_k),
        _moments(make_starlike(beta).graph, max_k),
    )


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
            holds=True,
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
    if c < 1 or d < 1:
        raise ValueError("c and d must be at least 1")
    if not (0 <= u < g.n):
        raise ValueError(f"u={u} out of range")
    _require_pendant_path(g, u, c)
    lhs = _moments(coalescence(g, u, make_path(d + 1), 0), max_k)
    base = _moments(g, max_k)
    long_path = _moments(make_path(c + d + 1), max_k)
    short_path = _moments(make_path(c + 1), max_k)
    rhs = [base[k] + long_path[k] - short_path[k] for k in range(max_k + 1)]
    instance = f"{_describe(g)} u={u} c={c} d={d}"
    return _dominance_report(
        "path_difference", instance, max_k, lhs, rhs, direction="ge"
    )


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
        _require_pendant_path(g, u, max(c for c, _ in pairs), proper=False)
        built = g
        for _, d in pairs:
            built = coalescence(built, u, make_path(d + 1), 0)
    else:
        built, at = g, u
        for c, d in pairs:
            _require_pendant_path(built, at, c, proper=False)
            far = built.n + d - 1
            built = coalescence(built, at, make_path(d + 1), 0)
            at = far

    base = _moments(g, max_k)
    gain = [0] * (max_k + 1)
    for c, d in pairs:
        long_path = _moments(make_path(c + d + 1), max_k)
        short_path = _moments(make_path(c + 1), max_k)
        for k in range(max_k + 1):
            gain[k] += long_path[k] - short_path[k]
    rhs = [base[k] + gain[k] for k in range(max_k + 1)]
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
    left = _moments(make_starlike((a,) + (b + 1,) * pq).graph, max_k)
    right = _moments(make_starlike((a + 1,) * pq + (b,)).graph, max_k)
    path_b = _moments(make_path(b + 1), max_k)
    path_a = _moments(make_path(a + 1), max_k)
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
        holds=violation is None,
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

    Sub-reports: the headline total-moment comparison (or, when f = b and
    the comparison degenerates, the equivalent single pendant-path shift on
    the composed tree), the center-rooted comparison, the two stepping-stone
    inequalities that add path differences one branch at a time, and the
    prefix-composed comparison when a prefix is given.
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

    lhs_counts = _moments(make_starlike(lhs_tail).graph, max_k)
    rhs_counts = _moments(make_starlike(rhs_tail).graph, max_k)

    subs: list[CheckReport] = []
    if f == b:
        # degenerate balancing part: the rewrite is exactly one pendant-path
        # shift (b+1, a) -> (b, a+1) on the rest of the tree
        base_parts = prefix + (b,) * p
        if base_parts:
            base = make_starlike(base_parts)
            assert canonical_code(attach_two_paths(base.graph, base.center, b + 1, a)) == (
                canonical_code(make_starlike(prefix + lhs_tail).graph)
            )
            assert canonical_code(attach_two_paths(base.graph, base.center, b, a + 1)) == (
                canonical_code(make_starlike(prefix + rhs_tail).graph)
            )
            inner = check_li_feng(base.graph, base.center, b + 1, a, max_k=max_k)
            head = CheckReport(
                name="case2_reduction",
                instance=instance,
                max_k=max_k,
                holds=inner.holds,
                first_strict_witness=inner.first_strict_witness,
                violation=inner.violation,
            )
        else:
            # nothing to attach to: both sides are the same path
            head = _dominance_report(
                "case2_reduction", instance + " [bare]", max_k, lhs_counts, rhs_counts
            )
    else:
        head = _dominance_report(
            "case2_total_walks",
            f"S({Partition(lhs_tail)}) -> S({Partition(rhs_tail)})",
            max_k,
            lhs_counts,
            rhs_counts,
        )
    subs.append(head)

    lhs_tree = make_starlike(lhs_tail)
    rhs_tree = make_starlike(rhs_tail)
    subs.append(
        _dominance_report(
            "case2_center_walks",
            instance,
            max_k,
            closed_walk_counts_at(lhs_tree.graph, lhs_tree.center, max_k).values,
            closed_walk_counts_at(rhs_tree.graph, rhs_tree.center, max_k).values,
        )
    )

    # stepping stones: lengthen the p short branches, then grow the tail
    # branch; both lower-bounded by sums of standalone path differences
    path_b1 = _moments(make_path(b + 1), max_k)
    path_b0 = _moments(make_path(b), max_k)
    path_a1 = _moments(make_path(a + 1), max_k)
    grown = _moments(make_starlike((a,) + (b + 1,) * (p + q)).graph, max_k)
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
    anchor = _moments(make_starlike((a + 1,) * (p + q) + (b,)).graph, max_k)
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

    if prefix and f != b:
        subs.append(
            _dominance_report(
                "case2_composed",
                instance,
                max_k,
                _moments(make_starlike(prefix + lhs_tail).graph, max_k),
                _moments(make_starlike(prefix + rhs_tail).graph, max_k),
            )
        )

    violation = next((s.violation for s in subs if s.violation is not None), None)
    return CheckReport(
        name="case2",
        instance=instance,
        max_k=max_k,
        holds=violation is None,
        first_strict_witness=head.first_strict_witness,
        violation=violation,
        subchecks=tuple(subs),
    )


def _sweep_order(n: int, max_k: int, pairs: str, kind: str) -> list[CheckReport]:
    """Dominance reports for partitions of n-1 (>= 3 parts) in shortlex order."""
    counter = closed_walk_counts if kind == "closed" else all_walk_counts
    name = "theorem_sweep" if kind == "closed" else "all_walks_sweep"
    chain = enumerate_shortlex(n - 1, min_parts=3)
    seqs = [counter(make_starlike(pi).graph, max_k).values for pi in chain]
    if pairs == "consecutive":
        index_pairs = [(i, i + 1) for i in range(len(chain) - 1)]
    else:
        index_pairs = list(itertools.combinations(range(len(chain)), 2))
    reports = []
    for i, j in index_pairs:
        instance = f"n={n}: S({chain[i]}) -> S({chain[j]})"
        reports.append(_dominance_report(name, instance, max_k, seqs[i], seqs[j]))
    return reports


def verify_theorem(
    n_max: int, max_k: int = 40, pairs: str = "consecutive"
) -> list[CheckReport]:
    """Sweep every order n <= n_max: realize the shortlex chain of starlike
    trees on n vertices and verify weak dominance (with strict witnesses
    where the counts differ) for consecutive or all ordered pairs.
    """
    if pairs not in ("consecutive", "all"):
        raise ValueError(f"pairs must be 'consecutive' or 'all', got {pairs!r}")
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    reports = []
    for n in range(4, n_max + 1):
        reports.extend(_sweep_order(n, max_k, pairs, "closed"))
    return reports


def check_all_walks_analogue(n_max: int, max_k: int = 40) -> list[CheckReport]:
    """Same sweep as verify_theorem but counting all walks between all vertex
    pairs; without the bipartite parity zeroes, strict witnesses can be odd.
    """
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    reports = []
    for n in range(4, n_max + 1):
        reports.extend(_sweep_order(n, max_k, "consecutive", "all"))
    return reports


def _initial_chain_reports(n: int, max_k: int) -> list[CheckReport]:
    """The low end of the order on n vertices: the path, then the three-branch
    trees S(1, j, n-2-j) with growing j, each strictly below the next.
    """
    labeled = [(f"P_{n}", make_path(n))]
    for j in range(1, (n - 2) // 2 + 1):
        labeled.append((f"S(1,{j},{n - 2 - j})", make_starlike((1, j, n - 2 - j)).graph))
    reports = []
    for (la, ga), (lb, gb) in zip(labeled, labeled[1:]):
        reports.append(
            _dominance_report(
                "initial_chain",
                f"n={n}: {la} -> {lb}",
                max_k,
                _moments(ga, max_k),
                _moments(gb, max_k),
            )
        )
    return reports


def _run_job(job: tuple) -> list[CheckReport]:
    fn, kwargs = job
    out = fn(**kwargs)
    return out if isinstance(out, list) else [out]


def _suite_jobs(n_max: int, max_k: int) -> list[tuple]:
    jobs: list[tuple] = []
    for n in range(4, n_max + 1):
        jobs.append((_sweep_order, {"n": n, "max_k": max_k, "pairs": "consecutive", "kind": "closed"}))
        # the all-walks analogue genuinely fails from order 10 on (smallest
        # crossing: S(1,2,2,2,2) vs S(1,1,1,1,1,4), W_3 = 106 > 104), so the
        # default battery only sweeps the range where it is a theorem-like
        # fact; check_all_walks_analogue remains available for the full range
        if n <= min(n_max, 9):
            jobs.append((_sweep_order, {"n": n, "max_k": max_k, "pairs": "consecutive", "kind": "all"}))
        jobs.append((_initial_chain_reports, {"n": n, "max_k": max_k}))

    li_feng_bases = [
        (make_path(2), 0),
        (make_path(3), 0),
        (make_path(3), 1),
        (make_starlike((1, 1, 1)).graph, 0),
        (make_starlike((1, 2, 2)).graph, 0),
    ]
    for g, u in li_feng_bases:
        for q in range(0, 3):
            for p in range(q + 2, q + 5):
                jobs.append((check_li_feng, {"g": g, "u": u, "p": p, "q": q, "max_k": max_k}))

    for m in range(5, 11):
        for pi in enumerate_shortlex(m, min_parts=3):
            if pi.parts[-2] <= pi.parts[-1] - 2:
                jobs.append((check_case1, {"alpha": pi, "max_k": max_k}))

    for m in range(4, 10):
        for pi in enumerate_shortlex(m, min_parts=3):
            if pi.n > len(pi):
                jobs.append((check_case3, {"alpha": pi, "max_k": max_k}))

    # every genuine tail-flattening instance arising in the chains, plus a
    # few synthetic corners (p = 0, degenerate f = b, prefix present)
    seen_case2 = set()
    for m in range(6, 12):
        for pi in enumerate_shortlex(m, min_parts=3):
            nxt = shortlex_successor(pi)
            if nxt is None or nxt[1].tag is not CaseTag.CASE_II:
                continue
            info = nxt[1]
            key = (pi.parts[info.j - 1], pi.parts[-1] - 1, info.p, info.q, pi.parts[: info.j - 1])
            if key not in seen_case2:
                seen_case2.add(key)
                a, b, p, q, prefix = key
                jobs.append((check_case2, {"a": a, "b": b, "p": p, "q": q, "prefix": prefix, "max_k": max_k}))
    for a, b, p, q, prefix in [
        (1, 3, 0, 2, ()),
        (1, 3, 2, 1, ()),
        (2, 4, 1, 2, ()),
        (1, 2, 0, 1, ()),
        (1, 2, 3, 1, ()),
        (2, 3, 1, 1, (1,)),
        (1, 4, 2, 2, (1,)),
    ]:
        if (a, b, p, q, prefix) not in seen_case2:
            jobs.append((check_case2, {"a": a, "b": b, "p": p, "q": q, "prefix": prefix, "max_k": max_k}))

    for g, u in [(make_path(3), 0), (make_starlike((1, 1, 1)).graph, 0), (make_path(4), 1)]:
        for h1, v1, h2, v2 in [
            (make_path(2), 0, make_path(3), 0),
            (make_path(3), 0, make_path(4), 0),
            (make_path(3), 1, make_path(5), 2),
            (make_starlike((1, 1, 2)).graph, 0, make_starlike((1, 2, 2)).graph, 0),
            (make_path(3), 0, make_path(3), 0),
            (make_starlike((1, 1, 1)).graph, 0, make_path(4), 0),
        ]:
            jobs.append((check_coalescence_lemma, {
                "g": g, "u": u, "h1": h1, "v1": v1, "h2": h2, "v2": v2, "max_k": max_k,
            }))

    long_leaf = make_starlike((1, 1, 2)).graph
    for g, u, cs in [
        (make_path(3), 0, (1,)),
        (make_path(4), 0, (1, 2)),
        (make_path(5), 1, (1, 2, 3)),
        (long_leaf, 4, (1, 2, 3)),
    ]:
        for c in cs:
            for d in (1, 2, 3):
                jobs.append((check_path_difference, {"g": g, "u": u, "c": c, "d": d, "max_k": max_k}))

    for g, u, pairs in [
        (make_path(4), 0, ((1, 1), (2, 2))),
        (make_path(4), 0, ((1, 2),)),
        (make_path(5), 0, ((1, 1), (2, 1), (3, 2))),
        (long_leaf, 4, ((1, 1), (2, 1))),
        (make_starlike((1, 1, 1)).graph, 1, ((1, 2), (2, 1))),
    ]:
        jobs.append((check_corollaries, {"mode": "disjoint", "g": g, "u": u, "pairs": pairs, "max_k": max_k}))
    for g, u, pairs in [
        (make_path(4), 0, ((1, 1), (2, 1))),
        (make_path(4), 0, ((2, 2), (4, 1))),
        (make_path(3), 0, ((1, 2),)),
        (make_path(2), 0, ((1, 1), (2, 2))),
        (long_leaf, 4, ((2, 1), (3, 2))),
    ]:
        jobs.append((check_corollaries, {"mode": "sequential", "g": g, "u": u, "pairs": pairs, "max_k": max_k}))

    for a in range(1, 6):
        for b in range(a + 1, 7):
            for pq in range(2, 6):
                jobs.append((check_moment_canceling, {"a": a, "b": b, "pq": pq, "max_k": max_k}))

    return jobs


def _pool_workers(jobs: int, tasks: int) -> int:
    """Processes for run_suite: what was asked, capped by cores and tasks."""
    return min(jobs, os.cpu_count() or 1, tasks)


def run_suite(n_max: int = 14, max_k: int = 40, jobs: int = 1) -> list[CheckReport]:
    """Run the whole default battery: both sweeps, the low-end chains, and
    instance grids for every lemma and rewrite. Reports come back sorted by
    (name, instance) so output is deterministic at any parallelism.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    job_list = _suite_jobs(n_max, max_k)
    workers = _pool_workers(jobs, len(job_list))
    if workers > 1:
        # a few dozen chunks per worker: fewer round trips, while the
        # heavy large-order sweeps still spread over the workers
        chunksize = max(1, len(job_list) // (32 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_job, job_list, chunksize=chunksize))
    else:
        chunks = [_run_job(j) for j in job_list]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=lambda r: (r.name, r.instance))
    return reports
