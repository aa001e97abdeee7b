"""Digests of the exact radius layer's outputs, to diff two versions of it.

Prints two sha256 digests, one a line:

- verdicts: `compare_spectral_radii_exact` on every ordered pair of the
  194 starlike trees with 2 <= n <= 12 vertices (37 636 pairs), taken by
  order and in shortlex order within an order, one `parts|parts|VERDICT`
  line per pair;
- radii: `repr(spectral_radius(g, tol))` at tol 1e-10 and 1e-14, one value
  a line, on the paper's trio, S(1,1,268), S(2,2,267), S(1^9), every free
  tree with 2..9 vertices and 40 random trees with 10..60 vertices.

A change to the root code leaves both digests as they are:

  verdicts 3b807767a3ae7d8d00b6cf832b190a0474e8d79ba27e40ffd083403c484341bc
           (37636 pairs: LESS 18606, EQUAL 424, GREATER 18606)
  radii    5d48d463c7cccbf14a13f83f67ae6c6abf17e3e8b8aef1ecdc251668d02c0e11
           (280 values)

The radii digest and the verdicts of the pairs with n <= 10 are tests.

Run: python3 scripts/radius_digests.py
"""

import hashlib
import random
from collections import Counter

from starwalk.partitions import Ordering, Partition, enumerate_shortlex
from starwalk.spectra import compare_spectral_radii_exact, spectral_radius
from starwalk.trees import Graph, enumerate_free_trees, make_starlike

VERDICT_N_MAX = 12
RADIUS_TOLS = (1e-10, 1e-14)


def starlike_trees(n_max: int) -> list[Partition]:
    """Branch partitions of every starlike tree with 2..n_max vertices."""
    return [p for n in range(2, n_max + 1) for p in enumerate_shortlex(n - 1, min_parts=1)]


def verdict_lines(n_max: int) -> list[str]:
    trees = starlike_trees(n_max)
    return [
        f"{a}|{b}|{compare_spectral_radii_exact(a, b).name}" for a in trees for b in trees
    ]


def _random_tree(rng: random.Random, n: int) -> Graph:
    """Each vertex after the first joins a uniformly drawn earlier one."""
    return Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def radius_graphs() -> list[Graph]:
    branches = [(80, 90, 100), (85, 90, 95), (90, 90, 90), (1, 1, 268), (2, 2, 267), (1,) * 9]
    graphs = [make_starlike(list(b)) for b in branches]
    graphs += [g for n in range(2, 10) for g in enumerate_free_trees(n)]
    rng = random.Random(0)
    graphs += [_random_tree(rng, rng.randint(10, 60)) for _ in range(40)]
    return graphs


def radius_lines() -> list[str]:
    return [repr(spectral_radius(g, tol)) for g in radius_graphs() for tol in RADIUS_TOLS]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main() -> None:
    verdicts, radii = verdict_lines(VERDICT_N_MAX), radius_lines()
    counts = Counter(line.rsplit("|", 1)[1] for line in verdicts)
    tally = ", ".join(f"{o.name} {counts[o.name]}" for o in Ordering)
    print(f"verdicts {digest(verdicts)} ({len(verdicts)} pairs: {tally})")
    print(f"radii {digest(radii)} ({len(radii)} values)")


if __name__ == "__main__":
    main()
