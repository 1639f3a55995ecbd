"""Uniform-distribution diagnostics for the orbit {Aq mod 1 : q in Z^n}:
radial exponential sums, exact counting ratios against torus balls, and the
empirical counting constant used by the ubiquity construction."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from mpmath.libmp import from_int, from_rational, mpf_neg, mpf_sign, round_ceiling, round_floor, to_rational
from mpmath.libmp.libmpi import mpi_div, mpi_mul, mpi_pi, mpi_sin

from .lattice import DEFAULT_BUDGET, ApproxMatrix, check_window, shell_size, within
from .numeric import Ordering, RatInterval, _nth_root_lower, _nth_root_upper, dec_str, enclose, ex_abs

log = logging.getLogger(__name__)

# working precision of the Dirichlet kernels' interval arithmetic
PHASE_PREC = 160


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

    With theta = c^T A the sum over the box ||q|| <= N is the product of
    the Dirichlet kernels D_N(theta_j) = sin((2N+1) pi theta_j) /
    sin(pi theta_j), one per column j, and D_N is 2N+1 at an integer
    theta_j.  theta_j is summed exactly from rational and quadratic
    entries, so a combination that cancels to an integer is one; a CF
    entry gives its enclosure times c.  D_N has period 1, so the integer nearest the
    midpoint of theta_j's enclosure at PHASE_PREC bits is subtracted
    exactly, and the kernel is evaluated on the rest in mpmath's
    outward-rounded interval arithmetic at PHASE_PREC bits.  Where the
    enclosure of sin(pi theta_j) holds 0 the kernel is bounded by
    |D_N| <= 2N+1 instead.  The box is symmetric and sine is odd, so the
    imaginary part is exactly 0; the error budget is the half-width of
    the real part.
    """
    c = tuple(int(x) for x in c)
    if len(c) != A.m or all(x == 0 for x in c):
        raise ValueError("frequency c must be a nonzero vector of length m")
    count = _check_horizon(A.n, N, budget)

    k = from_int(2 * N + 1)
    pi = mpi_pi(PHASE_PREC)
    re = (from_int(1), from_int(1))
    for col in zip(*A.rows):
        theta = sum(ci * (RatInterval(*enclose(a, PHASE_PREC)) if A.has_cf else a) for ci, a in zip(c, col))
        lo, hi = enclose(theta, PHASE_PREC)
        r = round((lo + hi) / 2)
        if lo == hi == r:
            kernel = (k, k)
        else:
            # D_N(theta) = D_N(theta - r): pi (theta - r) lies near [-pi/2, pi/2]
            x = mpi_mul(pi, (_mpf(lo - r, round_floor), _mpf(hi - r, round_ceiling)), PHASE_PREC)
            den = mpi_sin(x, PHASE_PREC)
            if mpf_sign(den[0]) * mpf_sign(den[1]) <= 0:
                # sin(pi theta) may vanish: |D_N| <= 2N+1 bounds the kernel
                kernel = (mpf_neg(k), k)
            else:
                kernel = mpi_div(mpi_sin(mpi_mul(x, (k, k), PHASE_PREC), PHASE_PREC), den, PHASE_PREC)
        re = mpi_mul(re, kernel, PHASE_PREC)

    re = tuple(Fraction(*to_rational(v)) for v in re)
    im = (Fraction(0), Fraction(0))
    re_abs = ex_abs(RatInterval(*re))
    mag = (_nth_root_lower(re_abs.lo**2, 2, 64), _nth_root_upper(re_abs.hi**2, 2, 64))
    norm = (max(Fraction(0), mag[0] / count), min(Fraction(1), mag[1] / count))
    return WeylSumResult(c, N, count, re, im, mag, norm, (re[1] - re[0]) / 2)


def _mpf(x: Fraction, rnd: str) -> tuple:
    """x as a raw mpf at PHASE_PREC bits, rounded in the direction rnd."""
    return from_rational(x.numerator, x.denominator, PHASE_PREC, rnd)


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
