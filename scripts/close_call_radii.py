"""Close-call study: starlike trees whose spectral radii agree to 12+ digits.

Float eigensolvers report identical radii and Estrada indices for the three
trees below; the exact radius comparison still separates them, and the
walk-count order produces a strict witness index for each adjacent pair.
"""

import argparse
import math
import time

from starwalk.ordering import compare_starlike
from starwalk.partitions import Ordering, Partition, parse_partition
from starwalk.spectra import (
    compare_spectral_radii_exact,
    eigenvalues,
    estrada_index,
    spectral_radius,
)
from starwalk.trees import make_starlike

DEFAULT_TRIO = [Partition(t) for t in ((80, 90, 100), (85, 90, 95), (90, 90, 90))]


ORDER_GLYPH = {Ordering.LESS: "<", Ordering.EQUAL: "=", Ordering.GREATER: ">"}


def run_study(args: argparse.Namespace) -> None:
    print("float view (radius, Estrada index):")
    for alpha in args.tree:
        g = make_starlike(alpha)
        t0 = time.monotonic()
        lam = spectral_radius(g, tol=args.tol)
        ee = estrada_index(eigenvalues(g))
        dt = time.monotonic() - t0
        print(f"  S{alpha.parts}: lambda_1 = {lam:.15f}  EE = {ee:.12f}  ({dt:.2f}s)")

    print("\nexact view (certified radius order + strict walk-count witness):")
    for alpha, beta in zip(args.tree, args.tree[1:]):
        order = compare_spectral_radii_exact(alpha, beta)
        cmp = compare_starlike(alpha, beta, certify=True, max_k=args.max_k)
        witness = cmp.certificate.witness_strict if cmp.certificate else None
        line = f"  lambda_1(S{alpha.parts}) {ORDER_GLYPH[order]} lambda_1(S{beta.parts})"
        if witness is not None:
            line += (
                f"   moments split at k = {witness.k}: "
                f"{witness.lhs} vs {witness.rhs}"
            )
        else:
            line += f"   no strict moment witness through k = {args.max_k}"
        print(line)


def parse_args(argv=None) -> argparse.Namespace:
    """Parsed options; bad input exits 2 through parser.error."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree",
        action="append",
        metavar="A,B,C",
        help="branch lengths, comma separated; repeat for each tree "
        "(default: the 270-edge trio)",
    )
    parser.add_argument("--max-k", type=int, default=400)
    parser.add_argument("--tol", type=float, default=1e-10)
    args = parser.parse_args(argv)
    try:
        args.tree = [parse_partition(t) for t in args.tree] if args.tree else DEFAULT_TRIO
    except ValueError as exc:
        parser.error(str(exc))
    if len(args.tree) < 2:
        parser.error("need at least two trees to compare")
    if len({alpha.n for alpha in args.tree}) > 1:
        parser.error("trees must all have the same order")
    if args.max_k < 2:
        parser.error("max_k must be at least 2")
    if not 0 < args.tol < math.inf:
        parser.error("tol must be positive and finite")
    return args


if __name__ == "__main__":
    run_study(parse_args())
