"""Integer partitions in shortlex order and the successor construction.

A partition here is a nondecreasing tuple of positive parts. Partitions are
ordered shortlex: fewer parts first, then lexicographically. The successor of
a partition (within a fixed part-count floor) is computed by one of three
closed-form rewrite cases rather than by scanning; each successor records
which case produced it, because downstream inequality checks are organized
around exactly those cases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class CaseTag(str, enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


@dataclass(frozen=True)
class Partition:
    """Nondecreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        seq = tuple(sorted(parts))
        if not seq:
            raise ValueError("partition needs at least one part")
        if seq[0] < 1:
            raise ValueError(f"parts must be positive, got {seq}")
        object.__setattr__(self, "parts", seq)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class SuccessorCase:
    """Which rewrite produced a successor, with Case II bookkeeping.

    For Case II: j is the 1-based pivot index, p and q count the tail parts
    equal to b and b+1 (b = largest part minus one), and f is the closing
    part. These satisfy f = (p+q-1)*(b-a) + b - p with a the pivot part.
    """

    tag: CaseTag
    j: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    f: Optional[int] = None


def shortlex_compare(alpha: Partition, beta: Partition) -> Ordering:
    """Compare partitions by length first, then lexicographically."""
    ka, kb = len(alpha), len(beta)
    if ka != kb:
        return Ordering.LESS if ka < kb else Ordering.GREATER
    if alpha.parts == beta.parts:
        return Ordering.EQUAL
    return Ordering.LESS if alpha.parts < beta.parts else Ordering.GREATER


def shortlex_successor(alpha: Partition) -> Optional[tuple[Partition, SuccessorCase]]:
    """Next partition of the same total in shortlex order, or None at the end.

    The shortlex maximum is the all-ones partition. Otherwise exactly one of
    three rewrites applies, tested in this order:

    * Case III: all parts lie in {floor(n/k), ceil(n/k)} (the balanced
      partition is the lex maximum at its length, so the successor grows the
      part count): -> (1, ..., 1, n-k) with k ones.
    * Case I: a_{k-1} <= a_k - 2: bump the next-to-last part, shrink the last.
    * Case II: with j the largest index <= k-2 such that a_j <= a_k - 2,
      replace positions j..k-1 by a_j + 1 and close with the balancing part f.
    """
    parts = alpha.parts
    k = len(parts)
    n = alpha.n
    if all(p == 1 for p in parts):
        return None
    lo, hi = n // k, -(-n // k)
    if all(p in (lo, hi) for p in parts):
        # balanced: lex-maximal at this length
        return Partition((1,) * k + (n - k,)), SuccessorCase(CaseTag.CASE_III)
    if k >= 2 and parts[-2] <= parts[-1] - 2:
        succ = parts[:-2] + (parts[-2] + 1, parts[-1] - 1)
        return Partition(succ), SuccessorCase(CaseTag.CASE_I)
    # Case II: pivot = last index (1-based j <= k-2) whose part is <= a_k - 2
    last = parts[-1]
    j = max(i for i in range(k - 2) if parts[i] <= last - 2) + 1
    a = parts[j - 1]
    b = last - 1
    tail = parts[j:]
    p = sum(1 for t in tail if t == b)
    q = sum(1 for t in tail if t == b + 1)
    if p + q != k - j:
        raise AssertionError(f"unreachable: tail of {parts} not in {{{b},{b + 1}}}")
    f = sum(parts[j - 1 :]) - (k - j) * (a + 1)
    assert f == (p + q - 1) * (b - a) + b - p
    succ = parts[: j - 1] + (a + 1,) * (k - j) + (f,)
    return Partition(succ), SuccessorCase(CaseTag.CASE_II, j=j, p=p, q=q, f=f)


def enumerate_shortlex(n: int, min_parts: int = 3) -> list[Partition]:
    """All partitions of n with at least min_parts parts, in shortlex order.

    Generated by following the successor chain from the shortlex minimum,
    which is (1, ..., 1, n - min_parts + 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if min_parts < 1:
        raise ValueError("min_parts must be >= 1")
    if n < min_parts:
        return []
    k = min_parts
    first = Partition((1,) * (k - 1) + (n - k + 1,))
    out = [first]
    cur = first
    while True:
        step = shortlex_successor(cur)
        if step is None:
            break
        cur = step[0]
        out.append(cur)
    return out


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition like "1,2,3" (any order)."""
    items = [t.strip() for t in text.split(",")]
    if any(not t for t in items):
        raise ValueError(f"malformed partition {text!r}")
    try:
        values = [int(t) for t in items]
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return Partition(values)
