"""Dominance sweep report: shortlex vs walk counts across small orders.

Runs the closed-walk sweep (and optionally the all-walk-totals analogue)
over every starlike shape up to --n-max and prints a per-order summary.
The closed-walk order never disagrees with shortlex; the total-walk
analogue starts failing at order 10, and --all-walks prints each failure
with its crossing indices.
"""

import argparse
import sys
from collections import defaultdict

from starwalk.verify import check_all_walks_analogue, verify_theorem


def _per_order(reports):
    buckets = defaultdict(lambda: [0, 0, 0])
    for rep in reports:
        n = int(rep.instance.split(":")[0].removeprefix("n="))
        row = buckets[n]
        row[0] += 1
        row[1] += 0 if rep.holds else 1
        if rep.first_strict_witness is not None:
            row[2] = max(row[2], rep.first_strict_witness)
    return buckets


def run_sweep(args: argparse.Namespace) -> int:
    closed = verify_theorem(args.n_max, max_k=args.max_k, pairs=args.pairs)
    print(f"closed-walk sweep, {args.pairs} pairs, K = {args.max_k}:")
    print("  n   pairs  violations  latest witness")
    for n, (count, bad, wit) in sorted(_per_order(closed).items()):
        print(f"  {n:<3d} {count:<6d} {bad:<11d} {wit}")
    total_bad = sum(1 for r in closed if not r.holds)
    print(f"  total: {len(closed)} pairs, {total_bad} violations")

    if args.all_walks:
        walks = check_all_walks_analogue(args.n_max, max_k=args.max_k)
        failures = [r for r in walks if not r.holds]
        print(f"\nall-walk totals, consecutive pairs, K = {args.max_k}:")
        print(f"  {len(walks)} pairs, {len(failures)} violations")
        for rep in failures:
            k, lhs, rhs = rep.violation
            print(f"  {rep.instance}: W_{k} = {lhs} > {rhs}")
        total_bad += len(failures)

    return 1 if total_bad else 0


def parse_args(argv=None) -> argparse.Namespace:
    """Parsed options; bad input exits 2 through parser.error, since exit 1
    means a violation was found."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=14)
    parser.add_argument("--max-k", type=int, default=40)
    parser.add_argument("--pairs", choices=("consecutive", "all"), default="consecutive")
    parser.add_argument("--all-walks", action="store_true")
    args = parser.parse_args(argv)
    if args.n_max < 4:
        parser.error("n_max must be at least 4")
    if args.max_k < 2:
        parser.error("max_k must be at least 2")
    return args


if __name__ == "__main__":
    sys.exit(run_sweep(parse_args()))
