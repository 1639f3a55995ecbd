"""Scaled-integer kernels for certified lattice scans and 1D torus membership.

Centers Aq mod 1 are tracked as integers at a fixed binary scale with a
certified accumulated-error margin.  Every decision is either made with the
margin strictly cleared or handed to the exact arithmetic fallback, so the
fast path can never flip a verdict."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from operator import lt, mul
from typing import Callable, Optional, Sequence

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


def _merge(starts: list[int], ends: list[int], mod: int) -> tuple[list[int], list[int]]:
    """The cells [starts[i], ends[i]) mod `mod`, for starts in [0, mod) and
    ends above them, as sorted disjoint half-open spans [s[i], e[i]) within
    [0, mod), none touching the next, as lists (s, e); sorts both lists.

    Once the starts and the ends are sorted apart, the union has a gap just
    before the i-th start exactly when the (i-1)-th end lies below it, so
    one comparison per interval merges them.  A span that passes mod holds
    every later start, so only the last one can, and its overhang folds
    onto the spans it reaches from 0 (or covers the circle)."""
    if not starts:
        return [], []
    starts.sort()
    ends.sort()
    gaps = list(compress(range(1, len(starts)), map(lt, ends, islice(starts, 1, None))))
    s = [starts[0]] + [starts[i] for i in gaps]
    e = [ends[i - 1] for i in gaps] + [ends[-1]]
    over = e[-1] - mod
    if over > 0:
        if over >= s[-1]:
            return [0], [mod]
        e[-1] = mod
        j = bisect_right(s, over)
        s[:j], e[:j] = [0], [max(over, e[j - 1]) if j else over]
    return s, e


def _union(balls: list[tuple[int, int]], mod: int) -> tuple[list[int], list[int]]:
    """The spans, as `_merge` gives them, of the integer balls
    {x : |x - c| <= r} mod `mod` for each (c, r) of balls, r >= 0, and of
    their mirror images {x : |x + c| <= r}: the balls are merged, and then
    with the mirror image [1 - e, 1 - s) of each of their spans [s, e)."""
    starts = [(c - r) % mod for c, r in balls]
    s, e = _merge(starts, [a + 2 * r + 1 for a, (_, r) in zip(starts, balls)], mod)
    mirror = [(1 - b) % mod for b in e]
    return _merge(s + mirror, e + [m + (b - a) for m, a, b in zip(mirror, s, e)], mod)


def _holds(spans: tuple[list[int], list[int]], s: int, e: int) -> bool:
    """The cells [s, e), s < e, all lie in one span."""
    starts, ends = spans
    i = bisect_right(starts, s) - 1
    return i >= 0 and e <= ends[i]


def _meets(spans: tuple[list[int], list[int]], s: int, e: int) -> bool:
    """Some cell of [s, e), s < e, lies in a span."""
    starts, ends = spans
    i = bisect_left(starts, e) - 1
    return i >= 0 and ends[i] > s


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

    The true center of q*alpha lies within err = q * unit_err of the
    scaled c = q * a_lo, so the outer union takes the cells within
    err + r_hi of c, for r_hi > 0, and the inner one those within
    r_lo - err - 1, each of them nearer the true center than r_q.  Only the
    balls of q > 0 are listed: those of -q are their mirror images, as b
    lies in -U exactly when -b lies in U.  Each union is built on its first
    query, so a query that the inner union answers builds no outer one.
    """

    def __init__(
        self,
        line: Line1D,
        q_radii: Sequence[tuple[int, object]],
        exact_check: Callable[[Fraction], bool],
    ):
        self.line = line
        self.exact_check = exact_check
        a, u = line.a_lo, line.unit_err
        self._balls = [
            (q * a % line.mod, q * u, *(r if isinstance(r, tuple) else threshold_bounds(r, line.shift)))
            for q, r in q_radii
        ]

    @cached_property
    def inner(self) -> tuple[list[int], list[int]]:
        return _union([(c, lo - err - 1) for c, err, lo, _ in self._balls if lo > err], self.line.mod)

    @cached_property
    def outer(self) -> tuple[list[int], list[int]]:
        return _union([(c, err + hi) for c, err, _, hi in self._balls if hi > 0], self.line.mod)

    def contains(self, b: Fraction) -> bool:
        """Strict membership ||q*alpha - b||_Z < r_q for some q in the set;
        a b other than a `Fraction` goes to the exact checker."""
        if not isinstance(b, Fraction):
            return self.exact_check(b)
        x, off = divmod(b.numerator << self.line.shift, b.denominator)
        # a b off the grid lies strictly between cells x and x + 1
        v = self._decide(x, x + 1 + (off != 0))
        return self.exact_check(b) if v is None else v

    def arc(self, lo: Fraction, hi: Fraction) -> Optional[bool]:
        """Whether every b of the arc [lo, hi), lo < hi, is in the union:
        True when the inner union holds the arc, False when the outer one
        misses it, None otherwise.  The ends are enclosed outward, as the
        cells floor(lo 2^shift) to ceil(hi 2^shift), which hold both grid
        cells of every b in the arc, so either answer is that of
        `contains` for each b."""
        shift = self.line.shift
        return self._decide(
            (lo.numerator << shift) // lo.denominator, -((-hi.numerator << shift) // hi.denominator) + 1
        )

    def _decide(self, s: int, e: int) -> Optional[bool]:
        """True when the inner union holds every cell of [s, e) mod 2^shift,
        s < e, False when the outer union holds none, None otherwise."""
        mod = self.line.mod
        if e - s >= mod:
            s, e = 0, mod
        elif not 0 <= s < mod:
            s, e = s % mod, s % mod + (e - s)
        if e > mod:  # the cells wrap past 0: decided where both parts agree
            v = self._decide(s, mod)
            return v if v is self._decide(0, e - mod) else None
        if _holds(self.inner, s, e):
            return True
        return None if _meets(self.outer, s, e) else False
