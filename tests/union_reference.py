"""The merge-based union rule of the 1 x 1 index, written out for the tests:
four spans per shell (an inner and an outer one for q and for -q), each
wrapping span split at the modulus, one tuple sort and one merge.  The
tests that check `fastpath.UnionIndex1D` and the 1 x 1 counts of `limsup`
build this reference, so that a fault in the library's sweep cannot hide
on both sides."""

from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from diophlab.fastpath import Line1D, threshold_bounds


def merge_intervals(raw: Iterable[tuple[int, int]], mod: int) -> list[tuple[int, int]]:
    """Merge possibly-wrapping integer intervals into disjoint sorted spans
    within [0, mod)."""
    parts: list[tuple[int, int]] = []
    for s, e in raw:
        length = e - s
        if length <= 0:
            continue
        if length >= mod:
            return [(0, mod)]
        s %= mod
        e = s + length
        if e <= mod:
            parts.append((s, e))
        else:
            parts.append((s, mod))
            parts.append((0, e - mod))
    parts.sort()
    merged: list[tuple[int, int]] = []
    for s, e in parts:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


def covers(spans: Sequence[tuple[int, int]], x: int) -> bool:
    i = bisect_right(spans, (x, float("inf"))) - 1
    return i >= 0 and spans[i][0] <= x < spans[i][1]


class ReferenceUnion:
    """U_q B(q*alpha, r_q) mod 1 as inner (certainly covered) and outer
    (possibly covered) merged spans; radii as `UnionIndex1D` takes them."""

    def __init__(self, line: Line1D, q_radii: Sequence[tuple[int, object]], exact_check: Callable):
        self.line = line
        self.exact_check = exact_check
        mod = line.mod
        outer: list[tuple[int, int]] = []
        inner: list[tuple[int, int]] = []
        for q, r in q_radii:
            r_lo, r_hi = r if isinstance(r, tuple) else threshold_bounds(r, line.shift)
            if r_hi <= 0:
                continue
            c, err = line.center(q)
            # the true center lies within err of c (and of mod - c for -q)
            for cc in (c, (-c) % mod):
                outer.append((cc - err - r_hi, cc + err + r_hi + 1))
                inner.append((cc + err - r_lo + 1, cc - err + r_lo))
        self.outer = merge_intervals(outer, mod)
        self.inner = merge_intervals(inner, mod)

    def verdict(self, b: Fraction) -> Optional[bool]:
        """True when the inner spans hold both grid cells of b, False when
        the outer spans hold neither, None when b is in the sliver."""
        mod = self.line.mod
        num = b.numerator << self.line.shift
        x = (num // b.denominator) % mod
        cells = (x,) if num % b.denominator == 0 else (x, (x + 1) % mod)
        if all(covers(self.inner, c) for c in cells):
            return True
        if not any(covers(self.outer, c) for c in cells):
            return False
        return None

    def contains(self, b) -> bool:
        """Strict membership, the sliver (and any b other than a
        `Fraction`) decided by the exact checker."""
        v = self.verdict(b) if isinstance(b, Fraction) else None
        return self.exact_check(b) if v is None else v
