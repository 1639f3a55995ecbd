"""Uniform-distribution diagnostics for the orbit {Aq mod 1 : q in Z^n}:
radial exponential sums, exact counting ratios against torus balls, and the
empirical counting constant used by the ubiquity construction."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import mpmath

from .errors import BudgetExceeded
from .fastpath import Line1D, scale_fraction, threshold_bounds
from .lattice import ApproxMatrix, iter_shell, shell_size
from .numeric import compare, dec_str, dist_to_int, enclose

log = logging.getLogger(__name__)

PHASE_PREC = 120


@dataclass
class WeylSumResult:
    c: tuple[int, ...]
    N: int
    count: int
    re: tuple[Fraction, Fraction]
    im: tuple[Fraction, Fraction]
    magnitude: tuple[Fraction, Fraction]
    normalized: tuple[Fraction, Fraction]
    error_budget: Fraction

    def to_json(self) -> dict:
        return {
            "c": list(self.c),
            "N": self.N,
            "count": self.count,
            "re": [dec_str(v) for v in self.re],
            "im": [dec_str(v) for v in self.im],
            "magnitude": [dec_str(v) for v in self.magnitude],
            "normalized": [dec_str(v) for v in self.normalized],
            "error_budget": dec_str(self.error_budget, 18),
        }

    def csv_rows(self):
        yield ("N", "c", "value", "error_radius")
        mid = (self.normalized[0] + self.normalized[1]) / 2
        rad = (self.normalized[1] - self.normalized[0]) / 2
        yield (self.N, " ".join(map(str, self.c)), dec_str(mid), dec_str(rad, 18))


def _mpf_to_fraction(v) -> Fraction:
    sgn, man, exp, _ = v._mpf_
    f = Fraction(-man if sgn else man)
    return f * (1 << exp) if exp >= 0 else f / (1 << -exp)


def weyl_sum(
    A: ApproxMatrix, c: Sequence[int], N: int, budget: int = 1 << 22
) -> WeylSumResult:
    """Radial exponential sum (1/#{||q|| <= N}) sum e^{2 pi i c.Aq}.

    Phases are reduced mod 1 exactly where the entries allow and evaluated
    at PHASE_PREC bits; the reported error budget bounds the accumulated
    rounding over all terms.
    """
    c = tuple(int(x) for x in c)
    if len(c) != A.m or all(x == 0 for x in c):
        raise ValueError("frequency c must be a nonzero vector of length m")
    if N < 1:
        raise ValueError("N >= 1 required")
    count = (2 * N + 1) ** A.n
    if count > budget:
        raise BudgetExceeded(f"{count} lattice points exceed budget {budget}")

    # phase(q) = sum_j c_j (Aq)_j = (row combination c^T A) . q; precompute
    # high-precision values of the n combined coefficients
    coeff_mid: list[Fraction] = []
    coeff_err = Fraction(0)
    for j in range(A.n):
        acc_lo = acc_hi = Fraction(0)
        for i in range(A.m):
            if c[i]:
                lo, hi = enclose(A.rows[i][j], PHASE_PREC)
                lo, hi = lo * c[i], hi * c[i]
                if c[i] < 0:
                    lo, hi = hi, lo
                acc_lo, acc_hi = acc_lo + lo, acc_hi + hi
        coeff_mid.append((acc_lo + acc_hi) / 2)
        coeff_err = max(coeff_err, (acc_hi - acc_lo) / 2)

    # |d/dx e^{2 pi i x}| = 2 pi < 7, and the phase error at ||q|| = s is at
    # most n s coeff_err: the sum over all points in closed form
    two_pi_err = 7 * A.n * coeff_err * sum(s * shell_size(A.n, s) for s in range(1, N + 1))
    re_sum = mpmath.mpf(0)
    im_sum = mpmath.mpf(0)
    with mpmath.workprec(PHASE_PREC):
        for s in range(0, N + 1):
            for q in iter_shell(A.n, s):
                phase = sum(m * qq for m, qq in zip(coeff_mid, q))
                frac = phase - (phase.numerator // phase.denominator)
                t = mpmath.mpf(frac.numerator) / frac.denominator
                re_sum += mpmath.cospi(2 * t)
                im_sum += mpmath.sinpi(2 * t)

    re_mid = _mpf_to_fraction(re_sum)
    im_mid = _mpf_to_fraction(im_sum)
    err = two_pi_err + Fraction(count, 1 << (PHASE_PREC - 8))
    re = (re_mid - err, re_mid + err)
    im = (im_mid - err, im_mid + err)
    mag_hi_sq = max(x * x for x in re) + max(x * x for x in im)
    mag_lo_sq = _min_abs(re) ** 2 + _min_abs(im) ** 2
    from .numeric import _nth_root_lower, _nth_root_upper

    mag = (_nth_root_lower(mag_lo_sq, 2, 64), _nth_root_upper(mag_hi_sq, 2, 64))
    norm = (max(Fraction(0), mag[0] / count), min(Fraction(1), mag[1] / count))
    return WeylSumResult(c, N, count, re, im, mag, norm, err)


def _min_abs(iv: tuple[Fraction, Fraction]) -> Fraction:
    lo, hi = iv
    if lo <= 0 <= hi:
        return Fraction(0)
    return min(abs(lo), abs(hi))


@dataclass
class CountingResult:
    ratio: Fraction
    count: int
    total: int
    boundary_hits: int

    def to_json(self) -> dict:
        return {
            "ratio": str(self.ratio),
            "ratio_dec": dec_str(self.ratio),
            "count": self.count,
            "total": self.total,
            "boundary_hits": self.boundary_hits,
        }


class _Ball:
    """A torus ball B(center, radius) prepared for certified membership:
    the scaled center (within 1 unit) and integer bounds on the radius."""

    def __init__(self, line: Line1D, center: Sequence[Fraction], radius: Fraction):
        self.center = tuple(Fraction(x) for x in center)
        self.radius = Fraction(radius)
        if not (0 < self.radius <= Fraction(1, 2)):
            raise ValueError("radius must lie in (0, 1/2]")
        self.c_scaled = tuple(scale_fraction(x, line.shift) for x in self.center)
        self.r_lo, self.r_hi = threshold_bounds(self.radius, line.shift)

    def exact_member(self, A: ApproxMatrix, q: tuple[int, ...]) -> tuple[bool, bool]:
        """(inside, on the boundary) by exact comparison of every coordinate;
        an undecided comparison counts as inside."""
        hit_boundary = False
        for v, ctr in zip(A.apply(q), self.center):
            cmp = compare(dist_to_int(v - ctr), self.radius)
            if cmp.kind == "greater":
                return False, False
            if cmp.kind == "equal":
                hit_boundary = True
        return True, hit_boundary


def _shell_count(A: ApproxMatrix, line: Line1D, ball: _Ball, s: int) -> tuple[int, int]:
    """(members, boundary hits) of the closed ball among the points of shell
    s.  Integer bounds decide a point strictly inside or outside; a point
    inside the margin, including every exact boundary hit, is compared
    exactly."""
    count = boundary = 0
    r_lo, r_hi, c_scaled = ball.r_lo, ball.r_hi, ball.c_scaled
    for q in iter_shell(A.n, s):
        d_lo, d_hi = line.dist_bounds(q, c_scaled, 1)
        if d_hi < r_lo:
            count += 1
        elif d_lo <= r_hi:
            inside, hit = ball.exact_member(A, q)
            count += inside
            boundary += hit
    return count, boundary


def _check_horizon(n: int, N: int, budget: int) -> int:
    if N < 1:
        raise ValueError("N >= 1 required")
    total = (2 * N + 1) ** n
    if total > budget:
        raise BudgetExceeded(f"{total} lattice points exceed budget {budget}")
    return total


def counting_report(
    A: ApproxMatrix,
    ball: tuple[Sequence[Fraction], Fraction],
    N: int,
    budget: int = 1 << 22,
) -> CountingResult:
    """Exact #{||q|| <= N : Aq mod 1 in B} / (2N+1)^n.

    Membership is strict interior; an exact boundary hit is counted as a
    member and logged.
    """
    line = A.line
    ball = _Ball(line, *ball)
    total = _check_horizon(A.n, N, budget)
    if ball.radius == Fraction(1, 2):
        return CountingResult(Fraction(1), total, total, 0)
    count = boundary = 0
    for s in range(0, N + 1):
        c, h = _shell_count(A, line, ball, s)
        count += c
        boundary += h
    if boundary:
        log.info("counting_report: %d exact boundary hits counted as members", boundary)
    return CountingResult(Fraction(count, total), count, total, boundary)


def counting_ratio(
    A: ApproxMatrix,
    ball: tuple[Sequence[Fraction], Fraction],
    N: int,
    budget: int = 1 << 22,
) -> Fraction:
    return counting_report(A, ball, N, budget).ratio


@dataclass
class EquidConstant:
    c_hat: Fraction
    recommended: Fraction  # c_hat times the safety factor 2
    table: list[tuple[int, int, Fraction]] = field(default_factory=list)
    # rows (l, count, count / (l^n |B|)) for the maximizing ball at each l

    def to_json(self) -> dict:
        return {
            "c_hat": str(self.c_hat),
            "c_hat_dec": dec_str(self.c_hat),
            "recommended": str(self.recommended),
            "table": [
                {"l": l, "count": cnt, "ratio_dec": dec_str(r)} for l, cnt, r in self.table
            ],
        }


def estimate_equid_constant(
    A: ApproxMatrix,
    ball_family: Sequence[tuple[Sequence[Fraction], Fraction]],
    l_values: Sequence[int],
    budget: int = 1 << 22,
) -> EquidConstant:
    """Empirical C_hat = max over the family of #{Aq in 2B : ||q|| <= l}
    divided by l^n |B|.  Multiply by the safety factor 2 before feeding
    ubiquity_params; the true constant is not effectively computable."""
    if not ball_family or not l_values:
        raise ValueError("need at least one ball and one horizon")
    ls = sorted(l_values)
    line = A.line
    balls = [_Ball(line, center, min(2 * Fraction(r), Fraction(1, 2))) for center, r in ball_family]
    _check_horizon(A.n, ls[0], budget)
    _check_horizon(A.n, ls[-1], budget)
    # counts[k][i]: members of ball k with ||q|| <= ls[i], from one pass per ball
    counts: list[list[int]] = []
    for b in balls:
        if b.radius == Fraction(1, 2):
            counts.append([(2 * l + 1) ** A.n for l in ls])
            continue
        shells = [_shell_count(A, line, b, s) for s in range(ls[-1] + 1)]
        members = list(accumulate(c for c, _ in shells))
        boundary = sum(h for _, h in shells)
        if boundary:
            log.info("estimate_equid_constant: %d exact boundary hits counted as members", boundary)
        counts.append([members[l] for l in ls])
    c_hat = Fraction(0)
    table: list[tuple[int, int, Fraction]] = []
    for i, l in enumerate(ls):
        best_row = None
        for (_, radius), row in zip(ball_family, counts):
            vol = (2 * Fraction(radius)) ** A.m
            ratio = Fraction(row[i]) / (Fraction(l) ** A.n * vol)
            if best_row is None or ratio > best_row[2]:
                best_row = (l, row[i], ratio)
            c_hat = max(c_hat, ratio)
        table.append(best_row)
    return EquidConstant(c_hat, 2 * c_hat, table)
