"""Exponential sums, exact counting, empirical counting constant."""

import json
import logging
import math
from fractions import Fraction as F
from math import gcd
from operator import mul
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_int, mpf_cos_sin, mpf_div, mpf_shift, round_nearest, to_rational

from diophlab.errors import BudgetExceeded
from diophlab.lattice import DEFAULT_BUDGET, ApproxMatrix, scan, shell_size
from diophlab import equidist
from diophlab.equidist import (
    PHASE_PREC,
    CountingResult,
    WeylSumResult,
    _check_horizon,
    counting_ratio,
    counting_report,
    estimate_equid_constant,
    weyl_sum,
)
from diophlab.numeric import CFReal, RatInterval, _nth_root_lower, _nth_root_upper, _surd, enclose, ex_abs, quadratic
from psi_reference import mpf_to_fraction

ROOT = Path(__file__).resolve().parents[1]
# the phase precision of the exact per-point loop that weyl_sum summed
# before its closed form
OLD_PREC = 120
# the exact loop sums its terms as integer multiples of 2^-OLD_GRID
OLD_GRID = OLD_PREC + 16


def bench_matrix(name):
    return ApproxMatrix.from_text((ROOT / "perfbench" / "inputs" / f"{name}.mat").read_text())


def old_weyl_sum(A, c, N, budget=DEFAULT_BUDGET):
    """weyl_sum as it was before its terms were summed exactly: the phases
    in Fractions, cospi and sinpi each at PHASE_PREC bits under workprec,
    and 120-bit mpf sums, whose rounding the budget does not cover."""
    c = tuple(int(x) for x in c)
    if len(c) != A.m or all(x == 0 for x in c):
        raise ValueError("frequency c must be a nonzero vector of length m")
    count = _check_horizon(A.n, N, budget)

    # phase(q) = sum_j c_j (Aq)_j = (row combination c^T A) . q; precompute
    # high-precision values of the n combined coefficients
    coeff_mid: list[F] = []
    coeff_err = F(0)
    for j in range(A.n):
        acc_lo = acc_hi = F(0)
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
        for _, shell in scan(A.n, range(N + 1), budget):
            for q in shell:
                phase = sum(m * qq for m, qq in zip(coeff_mid, q))
                frac = phase - (phase.numerator // phase.denominator)
                t = mpmath.mpf(frac.numerator) / frac.denominator
                re_sum += mpmath.cospi(2 * t)
                im_sum += mpmath.sinpi(2 * t)

    re_mid = mpf_to_fraction(re_sum)
    im_mid = mpf_to_fraction(im_sum)
    err = two_pi_err + F(count, 1 << (PHASE_PREC - 8))
    re = (re_mid - err, re_mid + err)
    im = (im_mid - err, im_mid + err)
    mag_hi_sq = max(x * x for x in re) + max(x * x for x in im)
    mag_lo_sq = _min_abs(re) ** 2 + _min_abs(im) ** 2
    mag = (_nth_root_lower(mag_lo_sq, 2, 64), _nth_root_upper(mag_hi_sq, 2, 64))
    norm = (max(F(0), mag[0] / count), min(F(1), mag[1] / count))
    return WeylSumResult(c, N, count, re, im, mag, norm, err)


def _min_abs(iv):
    """The least |x| over the closed interval iv, as weyl_sum once had it."""
    lo, hi = iv
    if lo <= 0 <= hi:
        return F(0)
    return min(abs(lo), abs(hi))


def loop_weyl_sum(A, c, N, budget=DEFAULT_BUDGET):
    """weyl_sum as it was before its closed form: one cos-sin per point at
    OLD_PREC bits, each term floored onto the grid 2^-OLD_GRID and summed
    exactly, inside an error budget that covers every rounding."""
    c = tuple(int(x) for x in c)
    count = _check_horizon(A.n, N, budget)
    coeff_mid: list[F] = []
    coeff_err = F(0)
    for j in range(A.n):
        acc = sum(RatInterval(*enclose(A.rows[i][j], OLD_PREC)) * c[i] for i in range(A.m) if c[i])
        coeff_mid.append((acc.lo + acc.hi) / 2)
        coeff_err = max(coeff_err, acc.width / 2)
    two_pi_err = 7 * A.n * coeff_err * sum(s * shell_size(A.n, s) for s in range(1, N + 1))
    nums, _, D = _surd(coeff_mid)
    re_sum = im_sum = 0
    for _, shell in scan(A.n, range(N + 1), budget):
        for q in shell:
            r = sum(map(mul, nums, q)) % D
            g = gcd(r, D)
            t = from_int(r // g, OLD_PREC, round_nearest)
            t = mpf_shift(mpf_div(t, from_int(D // g), OLD_PREC, round_nearest), 1)
            cos_t, sin_t = mpf_cos_sin(t, OLD_PREC, round_nearest, 0, True)
            re_sum += math.floor(F(*to_rational(cos_t)) * (1 << OLD_GRID))
            im_sum += math.floor(F(*to_rational(sin_t)) * (1 << OLD_GRID))
    re_mid = F(re_sum, 1 << OLD_GRID)
    im_mid = F(im_sum, 1 << OLD_GRID)
    err = two_pi_err + F(count, 1 << (OLD_PREC - 8))
    re = (re_mid - err, re_mid + err)
    im = (im_mid - err, im_mid + err)
    re_abs, im_abs = ex_abs(RatInterval(*re)), ex_abs(RatInterval(*im))
    mag_hi_sq = re_abs.hi ** 2 + im_abs.hi ** 2
    mag_lo_sq = re_abs.lo ** 2 + im_abs.lo ** 2
    mag = (_nth_root_lower(mag_lo_sq, 2, 64), _nth_root_upper(mag_hi_sq, 2, 64))
    norm = (max(F(0), mag[0] / count), min(F(1), mag[1] / count))
    return WeylSumResult(c, N, count, re, im, mag, norm, err)


def dirichlet_product(thetas, N):
    """sum over ||q|| <= N of e(theta . q) = prod_j D_N(theta_j), with
    D_N(theta) = sin((2N+1) pi theta) / sin(pi theta), or 2N+1 at an
    integer theta; evaluated at 400 bits for rational and quadratic
    thetas, a quadratic one read at the midpoint of its 400-bit
    enclosure."""
    with mpmath.workprec(400):
        total = mpmath.mpf(1)
        for th in thetas:
            lo, hi = enclose(th, 400)
            if lo == hi and lo.denominator == 1:
                total *= 2 * N + 1
            else:
                mid = (lo + hi) / 2
                x = mpmath.mpf(mid.numerator) / mid.denominator
                total *= mpmath.sin((2 * N + 1) * mpmath.pi * x) / mpmath.sin(mpmath.pi * x)
        return mpf_to_fraction(total)


class TestWeylSum:
    def test_n1_closed_form(self, A_sqrt2):
        # sum over q in {-1,0,1}: 1 + 2 cos(2 pi sqrt2), normalized by 3
        res = weyl_sum(A_sqrt2, (1,), 1)
        want = abs(1 + 2 * math.cos(2 * math.pi * math.sqrt(2))) / 3
        assert float(res.normalized[0]) == pytest.approx(want, abs=1e-12)
        assert res.normalized[0] <= res.normalized[1]

    def test_normalized_in_unit_interval(self, A_sqrt2):
        res = weyl_sum(A_sqrt2, (1,), 50)
        assert F(0) <= res.normalized[0] <= res.normalized[1] <= F(1)

    def test_rational_degenerate(self):
        # tAc integral: every term is 1
        A = ApproxMatrix([[F(1, 2)]])
        res = weyl_sum(A, (2,), 100)
        assert res.normalized[1] == 1
        assert res.normalized[0] > 1 - F(1, 1 << 40)

    def test_oracle_n100(self, A_sqrt2):
        # independent direct summation
        s = sum(complex(math.cos(2 * math.pi * math.sqrt(2) * q), math.sin(2 * math.pi * math.sqrt(2) * q)) for q in range(-100, 101))
        res = weyl_sum(A_sqrt2, (1,), 100)
        assert float(res.normalized[1]) == pytest.approx(abs(s) / 201, abs=1e-9)

    def test_decay_envelope(self, A_sqrt2):
        # geometric-series bound: magnitude <= 2/|e^(2 pi i alpha) - 1| + 1
        res = weyl_sum(A_sqrt2, (1,), 2000)
        bound = 2 / abs(complex(math.cos(2 * math.pi * math.sqrt(2)), math.sin(2 * math.pi * math.sqrt(2))) - 1) + 1
        assert float(res.magnitude[1]) <= bound

    def test_zero_frequency_rejected(self, A_sqrt2):
        with pytest.raises(ValueError):
            weyl_sum(A_sqrt2, (0,), 10)

    def test_budget(self, A_sqrt2):
        with pytest.raises(BudgetExceeded):
            weyl_sum(A_sqrt2, (1,), 10**8)

    def test_budget_covers_a_long_sum(self):
        # 120001 terms near 1: 120-bit running sums of size ~10^5 once lost
        # more than the budget, and the interval missed the closed form
        p, N = 4000037, 60000
        res = weyl_sum(ApproxMatrix([[F(1, p)]]), (1,), N)
        assert res.re[0] <= dirichlet_product([F(1, p)], N) <= res.re[1]
        assert res.im[0] <= 0 <= res.im[1]

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 2),
        n=st.integers(1, 2),
        p=st.integers(2, 10**6),
    )
    def test_rational_closed_form(self, data, m, n, p):
        # entries a/p: the sum is a product of Dirichlet kernels, real
        # because the box ||q|| <= N is symmetric
        rows = [[F(data.draw(st.integers(0, p - 1)), p) for _ in range(n)] for _ in range(m)]
        c = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m).filter(any))
        N = data.draw(st.integers(1, 300 if n == 1 else 12))
        thetas = [sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(n)]
        res = weyl_sum(ApproxMatrix(rows), c, N)
        assert res.re[0] <= dirichlet_product(thetas, N) <= res.re[1]
        assert res.im[0] <= 0 <= res.im[1]


@pytest.mark.parametrize(
    "name, c, N",
    [
        ("golden", (1,), 300),
        ("sqrt2", (1,), 300),
        ("sqrt2", (3,), 40),
        ("q12", (1,), 8),
        ("q21", (1, -2), 40),
        ("cf_fast", (1,), 200),
    ],
)
def test_weyl_report_matches_old_loop(name, c, N):
    A = bench_matrix(name)
    assert weyl_sum(A, c, N).to_json() == old_weyl_sum(A, c, N).to_json()


def test_weyl_integral_phase_matches_old_loop():
    A = ApproxMatrix([[F(1, 2)]])
    assert weyl_sum(A, (2,), 50).to_json() == old_weyl_sum(A, (2,), 50).to_json()


@pytest.mark.parametrize(
    "workload, name, N", [("golden-1d", "golden", 2500), ("quad-mxn", "q12", 30)]
)
def test_weyl_benchmark_sizes_match_references(workload, name, N):
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    res = weyl_sum(bench_matrix(name), (1,), N)
    assert refs[workload]["weyl_sum"] == {
        "count": res.count,
        "normalized": [str(x) for x in res.normalized],
    }


def entries(d):
    """Rationals and elements of Q(sqrt d): a matrix takes one radicand."""
    return st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
        st.builds(
            quadratic,
            st.fractions(-2, 2, max_denominator=100),
            st.fractions(-2, 2, max_denominator=100).filter(bool),
            st.just(d),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 2), n=st.integers(1, 2), d=st.sampled_from([2, 3, 5, 13]))
def test_weyl_midpoints_match_old_loop(data, m, n, d):
    # at most 15 terms: every partial sum of the old loop lies below 16 in
    # absolute value, so each 120-bit addition rounded it by at most 2^-117,
    # and the new sum floors each term by less than 2^-136; the terms
    # themselves are the same numbers
    A = ApproxMatrix([[data.draw(entries(d)) for _ in range(n)] for _ in range(m)])
    c = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m).filter(any))
    N = data.draw(st.integers(1, 7 if n == 1 else 1))
    new, old = weyl_sum(A, c, N), old_weyl_sum(A, c, N)
    tol = F(new.count, 1 << 116)
    assert abs(sum(new.re) - sum(old.re)) / 2 <= tol
    assert abs(sum(new.im) - sum(old.im)) / 2 <= tol


def thetas_of(A, c):
    """The exact phases c^T A of a rational or quadratic matrix."""
    return [sum(ci * row[j] for ci, row in zip(c, A.rows)) for j in range(A.n)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 2), n=st.integers(1, 2), d=st.sampled_from([2, 3, 5, 13]))
def test_weyl_closed_form_lies_inside_the_loop(data, m, n, d):
    # the product of Dirichlet kernels is certified at least as tightly
    # as the exact per-point sum it replaced, and holds the 400-bit value
    A = ApproxMatrix([[data.draw(entries(d)) for _ in range(n)] for _ in range(m)])
    c = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m).filter(any))
    N = data.draw(st.integers(1, 40 if n == 1 else 4))
    new, loop = weyl_sum(A, c, N), loop_weyl_sum(A, c, N)
    assert loop.re[0] <= new.re[0] <= new.re[1] <= loop.re[1]
    assert new.im == (0, 0) and loop.im[0] <= 0 <= loop.im[1]
    assert new.re[0] <= dirichlet_product(thetas_of(A, c), N) <= new.re[1]
    assert new.error_budget == (new.re[1] - new.re[0]) / 2


def test_weyl_quadratic_cancellation_is_exact():
    # sqrt2 - sqrt2 cancels to the integer 0: every term is exactly 1
    A = ApproxMatrix([[quadratic(0, 1, 2)], [quadratic(0, 1, 2)]])
    res = weyl_sum(A, (1, -1), 30)
    assert res.re == (res.count, res.count) and res.error_budget == 0
    assert res.normalized[1] == 1


def test_weyl_mixes_an_integral_and_an_irrational_phase():
    # theta = (2 * 1/2, 2 sqrt2) = (1, 2 sqrt2): the integral kernel is
    # exactly 2N + 1, times the one-dimensional sum over the second column
    N = 25
    A = ApproxMatrix([[F(1, 2), quadratic(0, 1, 2)]])
    res = weyl_sum(A, (2,), N)
    line = weyl_sum(ApproxMatrix([[quadratic(0, 1, 2)]]), (2,), N)
    assert res.re[0] <= (2 * N + 1) * line.re[0] <= (2 * N + 1) * line.re[1] <= res.re[1]
    assert res.re[0] <= dirichlet_product(thetas_of(A, (2,)), N) <= res.re[1]
    assert res.re[1] - res.re[0] < F(1, 2**100)


@pytest.mark.parametrize(
    "pq, c",
    [
        # cf:[1;1000] lies in (1, 1001/1000): theta's enclosure ends at 1
        ((1, 1000), 1),
        # cf:[0;2,1] lies in (1/3, 1/2): 5 times it holds 2 inside
        ((0, 2, 1), 5),
    ],
)
def test_weyl_cf_phase_near_an_integer_gets_the_trivial_bound(pq, c):
    # sin(pi theta) may vanish on the enclosure: the kernel is bounded by
    # |D_N| <= 2N + 1 instead of dividing by an interval holding 0
    N = 10
    res = weyl_sum(ApproxMatrix([[CFReal(pq)]]), (c,), N)
    assert res.re == (-(2 * N + 1), 2 * N + 1)
    assert res.normalized == (0, 1)


def test_weyl_golden_just_under_the_point_budget(golden):
    # 4,000,001 points, just under the 2^22 budget: the closed form visits
    # none of them and still holds the 400-bit value
    N = 2 * 10**6
    res = weyl_sum(ApproxMatrix([[golden]]), (1,), N)
    assert res.count == 2 * N + 1 < DEFAULT_BUDGET
    assert res.re[0] <= dirichlet_product([golden], N) <= res.re[1]


class TestCounting:
    def test_full_torus(self, A_sqrt2):
        assert counting_ratio(A_sqrt2, ((F(0),), F(1, 2)), 5) == 1

    def test_sqrt2_oracle_n1000(self, A_sqrt2):
        # frozen count from an independent 50-digit scan: 399 of 2001
        rep = counting_report(A_sqrt2, ((F(0),), F(1, 10)), 1000)
        assert rep.count == 399 and rep.total == 2001
        assert rep.boundary_hits == 0

    def test_boundary_counted_and_logged(self, caplog):
        # rational matrix: q = 1 lands exactly on the boundary of B(1/4, 1/4)
        A = ApproxMatrix([[F(1, 2)]])
        with caplog.at_level(logging.INFO, logger="diophlab.equidist"):
            rep = counting_report(A, ((F(1, 4),), F(1, 4)), 2)
        assert rep.boundary_hits > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{rep.boundary_hits} exact boundary hits counted as members"
        ]

    @pytest.mark.parametrize("name", ["half", "sqrt2", "q21", "q12"])
    def test_whole_torus_matches_the_old_branches(self, monkeypatch, name):
        # radius 1/2 is the whole torus: every point a member, no boundary
        # hit even at distance exactly 1/2 (q = 1 of the matrix 1/2), and
        # no walk, as counting_report's and estimate_equid_constant's own
        # branches had it
        A = ApproxMatrix([[F(1, 2)]]) if name == "half" else bench_matrix(name)
        monkeypatch.setattr(equidist, "within", None)
        center = (F(0),) * A.m
        ls = [1, 3, 7] if A.n == 1 else [1, 2, 3]
        for N in ls:
            total = (2 * N + 1) ** A.n
            assert counting_report(A, (center, F(1, 2)), N) == CountingResult(F(1), total, total, 0)
        est = estimate_equid_constant(A, [(center, F(1, 2)), (center, F(1, 4)), (center, F(1, 3))], ls)
        # the old counts (2l + 1)^n of every ball: the radius 1/4 ball has
        # the largest ratio, and the smallest l the largest of those
        table = [(l, (2 * l + 1) ** A.n, F((2 * l + 1) ** A.n) / (F(l) ** A.n * F(1, 2) ** A.m)) for l in ls]
        assert (est.c_hat, est.table) == (table[0][2], table)

    def test_partition_sums_to_one(self, A_sqrt2):
        # four congruent boxes tile the torus; q sqrt2 mod 1 is irrational
        # for q != 0, so only q = 0 can land on a seam, where the
        # boundary-counts-as-member convention books it in both boxes
        N = 50
        reps = [
            counting_report(A_sqrt2, ((F(2 * i + 1, 8),), F(1, 8)), N)
            for i in range(4)
        ]
        total = sum(r.count for r in reps)
        seam = sum(r.boundary_hits for r in reps)
        assert seam == 2  # q = 0 on the boundary of two boxes
        assert total - seam + 1 == 2 * N + 1


class TestEquidConstant:
    def test_golden_family(self, A_golden):
        fam = [((F(i, 4),), F(1, 8)) for i in range(4)]
        est = estimate_equid_constant(A_golden, fam, [16, 64])
        assert est.c_hat > 0
        assert est.recommended == 2 * est.c_hat
        assert len(est.table) == 2

    def test_tiny_ball_contributes_zero(self, A_golden):
        fam = [((F(1, 3),), F(1, 10**9))]
        est = estimate_equid_constant(A_golden, fam, [4])
        assert est.c_hat == 0

    def test_near_ideal_for_large_l(self, A_golden):
        # perfectly equidistributed idealization gives ~8 in 1D
        fam = [((F(i, 16),), F(1, 8)) for i in range(16)]
        est = estimate_equid_constant(A_golden, fam, [512])
        assert F(3) < est.c_hat < F(6)


def test_mpmath_runs_its_pure_python_backend():
    # the pinned Weyl sums hold on this backend only (README "Determinism"):
    # under gmpy2 the cos-sin working precision of half the terms changes
    assert mpmath.libmp.BACKEND == "python", (
        f"mpmath runs its {mpmath.libmp.BACKEND!r} backend; the pinned Weyl sums need the "
        "pure-Python one: run with MPMATH_NOGMPY=1"
    )
