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
from typing import Iterable, NamedTuple, Optional


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class CaseTag(str, enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


class _Value:
    """Base of a value class whose first slot is its one field: immutable,
    equal (to values of its own class only) and hashed by that field, and
    printed and pickled as a frozen record with that one field is. A
    subclass's `__init__` sets its slots with `object.__setattr__`, and
    unpickling calls it again on the field."""

    __slots__ = ()

    def _field(self):
        return getattr(self, self.__slots__[0])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field() == other._field()

    def __hash__(self) -> int:
        return hash((self._field(),))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.__slots__[0]}={self._field()!r})"

    def __reduce__(self):
        return self.__class__, (self._field(),)


class Partition(_Value):
    """Nondecreasing tuple of positive integers, a value with one field."""

    __slots__ = ("parts",)
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


class SuccessorCase(NamedTuple):
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


def shortlex_tuples(n: int, min_parts: int = 3) -> list[tuple[int, ...]]:
    """All partitions of n with at least min_parts parts, in shortlex order.

    Generated directly: for each part count k from min_parts up, the k-part
    partitions in lexicographic order, from (1, ..., 1, n - k + 1) to the
    balanced one. This is the order `shortlex_successor` walks, one rewrite
    at a time; the tests check that the two agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if min_parts < 1:
        raise ValueError("min_parts must be >= 1")
    out: list[tuple[int, ...]] = []
    for k in range(min_parts, n + 1):
        _lex_fill(n, k, 1, (), out)
    return out


def enumerate_shortlex(n: int, min_parts: int = 3) -> list[Partition]:
    """`shortlex_tuples` as `Partition`s."""
    return [Partition(parts) for parts in shortlex_tuples(n, min_parts)]


def _lex_fill(n: int, k: int, least: int, head: tuple[int, ...], out: list) -> None:
    """Append head + each nondecreasing k-tuple of parts >= least summing to
    n, in lexicographic order. The caller keeps n >= k * least."""
    if k == 1:
        out.append(head + (n,))
        return
    for first in range(least, n // k + 1):
        _lex_fill(n - first, k - 1, first, head + (first,), out)


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
