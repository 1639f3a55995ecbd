"""Uniform-distribution diagnostics for the orbit {Aq mod 1 : q in Z^n}:
radial exponential sums, exact counting ratios against torus balls, and the
empirical counting constant used by the ubiquity construction."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul
from typing import Sequence

from mpmath.libmp import from_int, mpf_cos_sin, mpf_div, mpf_shift, round_nearest

from .lattice import DEFAULT_BUDGET, ApproxMatrix, check_window, scan, shell_size, within
from .numeric import (
    Ordering,
    RatInterval,
    _nth_root_lower,
    _nth_root_upper,
    _surd,
    dec_str,
    enclose,
    ex_abs,
)

log = logging.getLogger(__name__)

PHASE_PREC = 120
# Weyl terms are summed as integer multiples of 2^-GRID
GRID = PHASE_PREC + 16


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


def weyl_sum(
    A: ApproxMatrix, c: Sequence[int], N: int, budget: int = DEFAULT_BUDGET
) -> WeylSumResult:
    """Radial exponential sum (1/#{||q|| <= N}) sum e^{2 pi i c.Aq}.

    The phase of q is (c^T A) . q with c^T A enclosed at PHASE_PREC bits and
    replaced by its midpoint; the error budget's first part bounds what that
    costs over the whole box.  Over one common denominator D the phase is
    an integer mod D, reduced exactly.  Each point's half-turn count
    t = 2 (phase mod 1) < 2 is rounded twice, as mpf(numerator) /
    denominator of the reduced fraction is: the numerator to PHASE_PREC
    bits, then the quotient.  Two relative errors of at most 2^-120 on
    t < 2 are why the argument rounding costs at most pi (2^-118 + 2^-239)
    per term.  One cos-sin evaluation of pi t, rounded to PHASE_PREC bits,
    gives both terms, so the value rounding costs less than 2^-120.  The
    terms are summed exactly as integers on the grid 2^-GRID, each floored
    onto it, at a cost below 2^-136.  Together that is below 2^-116 per
    term, against the 2^-(PHASE_PREC - 8) = 2^-112 per term of the budget's
    second part.
    """
    c = tuple(int(x) for x in c)
    if len(c) != A.m or all(x == 0 for x in c):
        raise ValueError("frequency c must be a nonzero vector of length m")
    count = _check_horizon(A.n, N, budget)

    # phase(q) = sum_j c_j (Aq)_j = (row combination c^T A) . q; precompute
    # high-precision values of the n combined coefficients
    coeff_mid: list[Fraction] = []
    coeff_err = Fraction(0)
    for j in range(A.n):
        acc = sum(RatInterval(*enclose(A.rows[i][j], PHASE_PREC)) * c[i] for i in range(A.m) if c[i])
        coeff_mid.append((acc.lo + acc.hi) / 2)
        coeff_err = max(coeff_err, acc.width / 2)

    # |d/dx e^{2 pi i x}| = 2 pi < 7, and the phase error at ||q|| = s is at
    # most n s coeff_err: the sum over all points in closed form
    two_pi_err = 7 * A.n * coeff_err * sum(s * shell_size(A.n, s) for s in range(1, N + 1))
    # the phase of q is sum_j nums_j q_j / D; t = 2 r / D for r the phase
    # numerator mod D, rounded as mpf(r) / D would be: numerator and
    # quotient of the reduced fraction
    nums, _, D = _surd(coeff_mid)
    re_sum = im_sum = 0
    for _, shell in scan(A.n, range(N + 1), budget):
        for q in shell:
            r = sum(map(mul, nums, q)) % D
            g = gcd(r, D)
            t = from_int(r // g, PHASE_PREC, round_nearest)
            t = mpf_shift(mpf_div(t, from_int(D // g), PHASE_PREC, round_nearest), 1)
            cos_t, sin_t = mpf_cos_sin(t, PHASE_PREC, round_nearest, 0, True)
            re_sum += _on_grid(cos_t)
            im_sum += _on_grid(sin_t)

    re_mid = Fraction(re_sum, 1 << GRID)
    im_mid = Fraction(im_sum, 1 << GRID)
    err = two_pi_err + Fraction(count, 1 << (PHASE_PREC - 8))
    re = (re_mid - err, re_mid + err)
    im = (im_mid - err, im_mid + err)
    re_abs, im_abs = ex_abs(RatInterval(*re)), ex_abs(RatInterval(*im))
    mag_hi_sq = re_abs.hi ** 2 + im_abs.hi ** 2
    mag_lo_sq = re_abs.lo ** 2 + im_abs.lo ** 2
    mag = (_nth_root_lower(mag_lo_sq, 2, 64), _nth_root_upper(mag_hi_sq, 2, 64))
    norm = (max(Fraction(0), mag[0] / count), min(Fraction(1), mag[1] / count))
    return WeylSumResult(c, N, count, re, im, mag, norm, err)


def _on_grid(v: tuple) -> int:
    """floor(v 2^GRID) for a finite raw mpf v."""
    sign, man, exp, _ = v
    e = exp + GRID
    m = -man if sign else man
    return m << e if e >= 0 else m >> -e


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


def _ball_hits(
    A: ApproxMatrix, center: tuple[Fraction, ...], radius: Fraction, N: int, budget: int
) -> tuple[list[int], int]:
    """(members of the closed ball B(center, radius) on each shell s <= N,
    exact boundary hits).  The ball of radius 1/2 is the whole torus: every
    point of each shell, and no boundary hits.  Any other ball takes the
    filtered walk: a point inside the filter's margin, including every
    boundary hit, is compared exactly, an undecided comparison raises
    PrecisionExhausted, and boundary hits, counted as members, are logged."""
    if radius == Fraction(1, 2):
        return [shell_size(A.n, s) for s in range(N + 1)], 0
    per_shell = [0] * (N + 1)
    boundary = 0
    for s, _, c in within(A, range(N + 1), budget, radius, center, closed=True):
        per_shell[s] += 1
        boundary += c is Ordering.EQUAL
    if boundary:
        log.info("%d exact boundary hits counted as members", boundary)
    return per_shell, boundary


def _check_horizon(n: int, N: int, budget: int) -> int:
    if N < 1:
        raise ValueError("N >= 1 required")
    return check_window(n, range(N + 1), budget)


def counting_report(
    A: ApproxMatrix,
    ball: tuple[Sequence[Fraction], Fraction],
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> CountingResult:
    """Exact #{||q|| <= N : Aq mod 1 in B} / (2N+1)^n for the closed ball B.

    An exact boundary hit is counted as a member and logged; an undecided
    membership raises PrecisionExhausted.
    """
    center, radius = A.ball(*ball)
    total = _check_horizon(A.n, N, budget)
    per_shell, boundary = _ball_hits(A, center, radius, N, budget)
    count = sum(per_shell)
    return CountingResult(Fraction(count, total), count, total, boundary)


def counting_ratio(
    A: ApproxMatrix,
    ball: tuple[Sequence[Fraction], Fraction],
    N: int,
    budget: int = DEFAULT_BUDGET,
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
    budget: int = DEFAULT_BUDGET,
) -> EquidConstant:
    """Empirical C_hat = max over the family of #{Aq in 2B : ||q|| <= l}
    divided by l^n |B|.  Multiply by the safety factor 2 before feeding
    ubiquity_params; the true constant is not effectively computable."""
    if not ball_family or not l_values:
        raise ValueError("need at least one ball and one horizon")
    ls = sorted(l_values)
    balls = [A.ball(center, min(2 * Fraction(r), Fraction(1, 2))) for center, r in ball_family]
    _check_horizon(A.n, ls[0], budget)
    _check_horizon(A.n, ls[-1], budget)
    # counts[k][i]: members of ball k with ||q|| <= ls[i], from one pass per ball
    counts: list[list[int]] = []
    for center, radius in balls:
        members = list(accumulate(_ball_hits(A, center, radius, ls[-1], budget)[0]))
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
