"""Scaled-integer kernels for certified lattice scans and 1D torus membership.

Centers Aq mod 1 are tracked as integers at a fixed binary scale with a
certified accumulated-error margin.  Every decision is either made with the
margin strictly cleared or handed to the exact arithmetic fallback, so the
fast path can never flip a verdict."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Sequence

from .numeric import enclose

SHIFT = 96
MOD = 1 << SHIFT


def scale_fraction(x: Fraction, shift: int = SHIFT) -> int:
    """floor(x * 2^shift); exact when the denominator is a power of two."""
    return (x.numerator << shift) // x.denominator


def threshold_bounds(thr, shift: int = SHIFT) -> tuple[int, int]:
    """Integers [lo, hi] with lo <= thr * 2^shift <= hi, for a threshold given
    as an exact value or a `Radical` (e.g. Radical(C_pow, m))."""
    t_lo, t_hi = enclose(thr, shift)
    return scale_fraction(t_lo, shift), -((-t_hi.numerator << shift) // t_hi.denominator)


def _scaled_entry(x, shift: int) -> tuple[int, int]:
    """(floor-scaled lower end, unit error) of an entry enclosed at
    2^-(shift + 8); the true scaled value lies within [a, a + err]."""
    lo, hi = enclose(x, shift + 8)
    a = scale_fraction(lo, shift)
    if hi == lo:
        return a, 1
    w = hi - lo
    return a, max(1, -(-w.numerator * (1 << shift) // w.denominator) + 1)


class Line1D:
    """Integer model of q |-> Aq mod 1 with certified error bounds.

    Built from one exact entry alpha (the 1 x 1 matrix [[alpha]]) or from an
    `ApproxMatrix`; CF entries are enclosed by their convergent interval.
    """

    def __init__(self, a):
        self.shift = SHIFT
        self.mod = MOD
        rows = getattr(a, "rows", None) or ((a,),)
        scaled = [[_scaled_entry(x, SHIFT) for x in row] for row in rows]
        self.m, self.n = len(scaled), len(scaled[0])
        self.a_rows = tuple(tuple(lo for lo, _ in row) for row in scaled)
        self.err_rows = tuple(tuple(err for _, err in row) for row in scaled)
        # the 1 x 1 model used by center() and the scalar dist_bounds path
        self.a_lo, self.unit_err = scaled[0][0]
        self.scalar = (self.m, self.n) == (1, 1)

    def scale_target(self, b) -> tuple:
        """(b_scaled, b_err) for dist_bounds from a target vector b of exact
        values, (0, 0) when b is None: a `Fraction` is floored, with no
        error when its denominator divides 2^shift, and any other value is
        enclosed as an entry is."""
        if b is None:
            return 0, 0
        parts = [
            (scale_fraction(x, self.shift), int((x.numerator << self.shift) % x.denominator != 0))
            if isinstance(x, Fraction)
            else _scaled_entry(x, self.shift)
            for x in b
        ]
        return tuple(a for a, _ in parts), max(err for _, err in parts)

    def center(self, q: int) -> tuple[int, int]:
        """(scaled center of q*alpha mod 1, error bound), q > 0; 1 x 1 only."""
        return (q * self.a_lo) % self.mod, q * self.unit_err

    def dist_bounds(self, q, b_scaled=0, b_err: int = 0) -> tuple[int, int]:
        """Scaled bounds on ||Aq - b||_Z in the sup norm.

        q is a length-n tuple, or an int in the 1 x 1 case (either sign);
        b_scaled is floor(b * 2^shift), one int for every row or a length-m
        tuple, and the true scaled b lies within b_err of it.  Per row the
        center is sum_j q_j a_ij mod 2^shift and the error sum_j |q_j| err_ij.
        """
        mod = self.mod
        half = mod >> 1
        if self.scalar:
            if not isinstance(q, int):
                (q,) = q
            if not isinstance(b_scaled, int):
                (b_scaled,) = b_scaled
            # -q has center -c: reduce q * alpha directly for either sign;
            # conditional expressions, as min/max calls dominate this path
            v = (q * self.a_lo - b_scaled) % mod
            d = v if v <= half else mod - v
            tot = abs(q) * self.unit_err + b_err
            return (d - tot if d > tot else 0), (d + tot if d + tot < half else half)
        bs = repeat(b_scaled) if isinstance(b_scaled, int) else b_scaled
        absq = tuple(map(abs, q))
        lo = hi = 0
        for row, errs, b in zip(self.a_rows, self.err_rows, bs):
            v = (sum(map(mul, q, row)) - b) % mod
            d = v if v <= half else mod - v
            tot = sum(map(mul, absq, errs)) + b_err
            if d - tot > lo:
                lo = d - tot
            if d + tot > hi:
                hi = min(half, d + tot)
        return lo, hi


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


def _covers(spans: Sequence[tuple[int, int]], x: int) -> bool:
    i = bisect_right(spans, (x, float("inf"))) - 1
    return i >= 0 and spans[i][0] <= x < spans[i][1]


class UnionIndex1D:
    """Certified membership in U_q B(q*alpha, r_q) mod 1 over a fixed q set.

    A radius r_q is any value `threshold_bounds` encloses (`Fraction`,
    `Quadratic`, `Radical`, a `RatInterval` holding r_q), or a tuple of
    integers (lo, hi) with lo <= r_q * 2^shift <= hi, as
    `ApproxFunction.scaled_bounds` yields them.  Queries are
    decided by an inner (definitely covered) and an outer (possibly
    covered) merged union, built from the lower and upper scaled bounds of
    each radius; the sliver between them goes to the exact checker
    supplied by the caller.
    """

    def __init__(
        self,
        line: Line1D,
        q_radii: Sequence[tuple[int, object]],
        exact_check: Callable[[Fraction], bool],
    ):
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

    def contains(self, b: Fraction) -> bool:
        """Strict membership ||q*alpha - b||_Z < r_q for some q in the set;
        a b other than a `Fraction` goes to the exact checker."""
        if not isinstance(b, Fraction):
            return self.exact_check(b)
        mod = self.line.mod
        num = b.numerator << self.line.shift
        x = (num // b.denominator) % mod
        if num % b.denominator == 0:
            if _covers(self.inner, x):
                return True
            if not _covers(self.outer, x):
                return False
        else:
            # true point lies strictly between grid cells x and x+1
            x2 = (x + 1) % mod
            if _covers(self.inner, x) and _covers(self.inner, x2):
                return True
            if not _covers(self.outer, x) and not _covers(self.outer, x2):
                return False
        return self.exact_check(b)
