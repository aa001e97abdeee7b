"""Closed-walk dominance between graphs and the shortlex order on branches.

Two graphs are compared by their full closed-walk count sequences. Sequences
that agree on every length up to the requested horizon need care: the trees
may be genuinely cospectral (equal forever), or the horizon may simply be too
short. Agreement through max(order of either graph) settles it, because the
walk counts up to the order determine the spectrum; verdicts are only ever
"weakly ... undecided" when the horizon was short and the first divergence
beyond it is reported.

For starlike trees with equal vertex counts the dominance order is total and
matches shortlex on the branch partitions, so comparisons there are O(k) with
an optional walk-count certificate read on the branch lists, building no tree.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, NamedTuple, Optional, Sequence

from .partitions import Ordering, Partition, shortlex_compare
from .trees import Graph, enumerate_free_trees, is_starlike
from .walks import closed_walk_counts, starlike_closed_walk_counts


class Relation(str, enum.Enum):
    STRICTLY_LESS = "strictly_less"
    EQUAL = "equal"
    STRICTLY_GREATER = "strictly_greater"
    INCOMPARABLE = "incomparable"
    WEAKLY_LESS_UNDECIDED = "weakly_less_undecided"
    WEAKLY_GREATER_UNDECIDED = "weakly_greater_undecided"


class Witness(NamedTuple):
    """One walk length where the two counts differ, with both exact counts.
    A named tuple, like every plain record in starwalk: sweeps build one or
    two per compared pair, and a tuple is cheap to build and to pickle."""

    k: int
    lhs: int
    rhs: int

    def to_json_obj(self) -> dict:
        # counts overflow double precision long before interesting lengths,
        # so serialize them as decimal strings
        return {"k": self.k, "lhs": str(self.lhs), "rhs": str(self.rhs)}


class DominanceVerdict(NamedTuple):
    """Outcome of a walk-count comparison up to length max_k.

    witness_up marks the first length where the left graph has more closed
    walks, witness_down the first where it has fewer. For the weak verdicts
    the single witness lies beyond max_k (it is the first divergence found
    while checking cospectrality) and strictness through larger horizons is
    left open.
    """

    relation: Relation
    max_k: int
    witness_up: Optional[Witness] = None
    witness_down: Optional[Witness] = None

    @property
    def witness_strict(self) -> Optional[Witness]:
        if self.relation is Relation.STRICTLY_LESS:
            return self.witness_down
        if self.relation is Relation.STRICTLY_GREATER:
            return self.witness_up
        return None

    def to_json_obj(self) -> dict:
        return {
            "relation": self.relation.value,
            "max_k": self.max_k,
            "witness_up": self.witness_up.to_json_obj() if self.witness_up else None,
            "witness_down": self.witness_down.to_json_obj()
            if self.witness_down
            else None,
        }


def _first_divergences(
    lhs: Sequence[int], rhs: Sequence[int], lo: int, hi: int
) -> tuple[Optional[Witness], Optional[Witness]]:
    """The first k in lo..hi where lhs exceeds rhs (up) and the first where
    it falls below (down); None where there is none."""
    up = down = None
    for k in range(lo, hi + 1):
        if up is None and lhs[k] > rhs[k]:
            up = Witness(k, lhs[k], rhs[k])
        if down is None and lhs[k] < rhs[k]:
            down = Witness(k, lhs[k], rhs[k])
        if up and down:
            break
    return up, down


def _dominance(
    counts: Callable[[int], Sequence[Sequence[int]]], max_k: int, n: int
) -> DominanceVerdict:
    """The verdict on two walk-count sequences for every length 0..max_k,
    counts(k) returning both through k. Ties through max_k are resolved by
    extending the scan to n, the larger vertex count: agreement that far
    means the graphs are cospectral and the sequences agree for every length.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    lhs, rhs = counts(max_k)
    up, down = _first_divergences(lhs, rhs, 0, max_k)
    if up and down:
        return DominanceVerdict(Relation.INCOMPARABLE, max_k, up, down)
    if up:
        return DominanceVerdict(Relation.STRICTLY_GREATER, max_k, witness_up=up)
    if down:
        return DominanceVerdict(Relation.STRICTLY_LESS, max_k, witness_down=down)
    # tied through max_k: extend to the order, far enough to rule out or
    # confirm cospectrality
    bound = max(max_k, n)
    if bound > max_k:
        lhs, rhs = counts(bound)
    up, down = _first_divergences(lhs, rhs, max_k + 1, bound)
    if up:
        return DominanceVerdict(
            Relation.WEAKLY_GREATER_UNDECIDED, max_k, witness_up=up
        )
    if down:
        return DominanceVerdict(Relation.WEAKLY_LESS_UNDECIDED, max_k, witness_down=down)
    return DominanceVerdict(Relation.EQUAL, max_k)


def moment_dominance(g: Graph, h: Graph, max_k: int = 50) -> DominanceVerdict:
    """Compare closed-walk counts of g and h for every length 0..max_k."""
    return _dominance(
        lambda k: [closed_walk_counts(x, k).values for x in (g, h)], max_k, max(g.n, h.n)
    )


_ORDER_TO_RELATION = {
    Ordering.LESS: Relation.STRICTLY_LESS,
    Ordering.EQUAL: Relation.EQUAL,
    Ordering.GREATER: Relation.STRICTLY_GREATER,
}


# a weak certificate confirms the strict shortlex answer on its side
_WEAK_TO_STRICT = {
    Relation.WEAKLY_LESS_UNDECIDED: Relation.STRICTLY_LESS,
    Relation.WEAKLY_GREATER_UNDECIDED: Relation.STRICTLY_GREATER,
}


def _ranked(parts: Partition) -> Partition:
    """The list shortlex ranks: one or two branches make the path (n,)."""
    return Partition((parts.n,)) if len(parts) <= 2 else parts


class StarlikeComparison(NamedTuple):
    alpha: Partition
    beta: Partition
    relation: Relation
    certificate: Optional[DominanceVerdict] = None

    def to_json_obj(self) -> dict:
        return {
            "alpha": list(self.alpha.parts),
            "beta": list(self.beta.parts),
            "relation": self.relation.value,
            "certificate": self.certificate.to_json_obj()
            if self.certificate
            else None,
        }


def compare_starlike(
    alpha: Partition,
    beta: Partition,
    certify: bool = False,
    max_k: int = 50,
) -> StarlikeComparison:
    """Order S(alpha) against S(beta) by closed-walk dominance.

    For equal vertex counts the dominance order on starlike trees is total
    and agrees with shortlex on the sorted branch lists, a list of one or
    two branches (a path) ranking as (n,), so the relation is decided
    combinatorially. certify=True additionally runs the walk-count
    comparison on the two branch lists (`starlike_closed_walk_counts`, no
    tree is built) and raises RuntimeError if it ever contradicts the
    shortlex answer.
    """
    if alpha.n != beta.n:
        raise ValueError(
            f"branch totals differ ({alpha.n} vs {beta.n}); "
            "dominance is only total at fixed vertex count"
        )
    relation = _ORDER_TO_RELATION[shortlex_compare(_ranked(alpha), _ranked(beta))]
    certificate = None
    if certify:
        certificate = _dominance(
            lambda k: starlike_closed_walk_counts((alpha.parts, beta.parts), k),
            max_k,
            alpha.n + 1,  # the order of both trees
        )
        found = _WEAK_TO_STRICT.get(certificate.relation, certificate.relation)
        if found is not relation:
            raise RuntimeError(
                f"walk-count certificate disagrees with shortlex order: "
                f"S({alpha}) vs S({beta}) gave {certificate.relation.value}, "
                f"expected {relation.value}"
            )
    return StarlikeComparison(alpha, beta, relation, certificate)


def find_incomparable_pairs(
    n: int, max_k: int = 50, starlike_only: bool = False
) -> list[tuple[Graph, Graph, DominanceVerdict]]:
    """All unordered pairs of order-n trees whose walk counts cross.

    Walk-count sequences are computed once per tree; pairs whose sequences
    strictly cross somewhere in 0..max_k are returned with both witnesses.
    """
    trees = enumerate_free_trees(n)
    if starlike_only:
        trees = [g for g in trees if is_starlike(g)]
    seqs = [closed_walk_counts(g, max_k).values for g in trees]
    found = []
    for (i, g), (j, h) in itertools.combinations(enumerate(trees), 2):
        up, down = _first_divergences(seqs[i], seqs[j], 0, max_k)
        if up and down:
            found.append(
                (g, h, DominanceVerdict(Relation.INCOMPARABLE, max_k, up, down))
            )
    return found
